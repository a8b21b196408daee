import itertools
from collections import Counter
from fractions import Fraction

import pytest

from bipolar_maps.enumeration import (build_count_table,
                                      closed_form_triangulations, count_walks,
                                      enumerate_maps, enumerate_walks,
                                      exact_sample, exact_sampler,
                                      sample_from_table, sample_syt_word,
                                      triangulation_count_by_edges)
from bipolar_maps.errors import EnumerationBudgetError, NoMapsError
from bipolar_maps.planar_map import canonical_form
from bipolar_maps.rng import CounterRng
from bipolar_maps.verify import all_triangulation_walks
from bipolar_maps.weights import FaceWeights, feasible, preset_weights

TRI = preset_weights("tri")
TRI_STEPS = ((1, -1), (-1, 0), (0, 1))


def brute_count(m, n, T):
    cnt = 0
    for seq in itertools.product(TRI_STEPS, repeat=T):
        x, y = 0, m
        ok = True
        for dx, dy in seq:
            x += dx
            y += dy
            if x < 0 or y < 0:
                ok = False
                break
        if ok and (x, y) == (n, 0):
            cnt += 1
    return cnt


def test_closed_form_values():
    assert [closed_form_triangulations(n) for n in range(1, 6)] == \
        [1, 5, 42, 462, 6006]
    assert triangulation_count_by_edges(7) == 0
    assert triangulation_count_by_edges(18) == 87516


def test_count_matches_closed_form():
    for ell in (3, 6, 9, 12, 15, 18):
        assert count_walks(TRI, 0, 1, ell) == triangulation_count_by_edges(ell)


def test_count_matches_brute_force():
    for m, n, T in [(0, 1, 5), (0, 0, 6), (1, 1, 5), (2, 0, 7), (0, 1, 8),
                    (1, 2, 6)]:
        assert count_walks(TRI, m, n, T + 1) == brute_count(m, n, T)


def test_zero_step_walks():
    assert count_walks(TRI, 0, 0, 1) == 1
    assert count_walks(TRI, 2, 1, 1) == 0


def test_enumerate_maps_distinct():
    maps = list(enumerate_maps(TRI, 0, 1, 6))
    assert len(maps) == 5
    assert len({canonical_form(mp) for mp in maps}) == 5
    assert list(enumerate_maps(TRI, 0, 1, 4)) == []


def test_budget_error():
    with pytest.raises(EnumerationBudgetError) as err:
        build_count_table(TRI, 0, 1, 3000, budget=1000)
    assert err.value.required_cells > err.value.budget_cells


def test_exact_sample_unique_walk():
    w = exact_sample(TRI, 0, 1, 3, CounterRng(1))
    assert len(w.moves) == 2 and w.end == (1, 0)


def test_exact_sample_no_maps():
    with pytest.raises(NoMapsError):
        exact_sample(TRI, 0, 1, 4, CounterRng(1))


def test_exact_sample_deterministic():
    a = exact_sample(TRI, 0, 1, 30, CounterRng(9))
    b = exact_sample(TRI, 0, 1, 30, CounterRng(9))
    assert a == b


def test_exact_sample_uniform_at_l6():
    draw = exact_sampler(TRI, 0, 1, 6)
    rng = CounterRng(42)
    counts = Counter(tuple(draw(rng).moves) for _ in range(5000))
    assert len(counts) == 5
    assert min(counts.values()) > 850  # each expected around 1000


def test_syt_sampler_agrees_with_table():
    # tableau route must give the same uniform law as the table route
    rng = CounterRng(7)
    words = Counter(tuple(sample_syt_word(2, rng)) for _ in range(6000))
    assert len(words) == 5
    assert min(words.values()) > 1000


def test_syt_large_is_valid():
    w = exact_sample(TRI, 0, 1, 3000, CounterRng(3))
    assert w.is_bipolar_code() and w.end == (1, 0)
    w0 = exact_sample(TRI, 0, 0, 1000, CounterRng(4))
    assert w0.is_bipolar_code() and w0.end == (0, 0)


def test_weighted_sampling_rational():
    w = FaceWeights({3: Fraction(1, 2), 4: Fraction(2)})
    table = build_count_table(w, 0, 1, 6)
    assert isinstance(table.total, Fraction)
    rng = CounterRng(5)
    for _ in range(20):
        assert sample_from_table(table, rng).is_bipolar_code()


def test_exact_sample_marginals_match_enumeration():
    import scipy.stats
    walks = list(enumerate_walks(TRI, 0, 1, 6))
    draw = exact_sampler(TRI, 0, 1, 6)
    rng = CounterRng(11)
    draws = [draw(rng) for _ in range(10_000)]
    for t in range(1, 6):
        exact = Counter(w.points()[t] for w in walks)
        observed = Counter(w.points()[t] for w in draws)
        keys = sorted(exact)
        assert set(observed) <= set(keys)
        if len(keys) == 1:
            continue  # deterministic layer, nothing to test
        f_exp = [10_000 * exact[k] / len(walks) for k in keys]
        f_obs = [observed.get(k, 0) for k in keys]
        assert scipy.stats.chisquare(f_obs, f_exp).pvalue > 0.001, t


def test_counts_never_contradict_feasibility():
    quad = preset_weights("quad")
    for w in (TRI, quad):
        for m in range(3):
            for n in range(3):
                for ell in range(1, 11):
                    if count_walks(w, m, n, ell) > 0:
                        assert feasible(w, m, n, ell)[0]


def test_enumerate_walks_order_deterministic():
    a = [w.moves for w in enumerate_walks(TRI, 0, 1, 9)]
    b = [w.moves for w in enumerate_walks(TRI, 0, 1, 9)]
    assert a == b and len(a) == 42


def test_all_triangulation_walks_is_the_enumerator():
    for max_moves, expect in ((8, 1208), (9, 3266)):
        walks = [(w.start, w.moves) for w in all_triangulation_walks(max_moves)]
        assert len(walks) == len(set(walks)) == expect
