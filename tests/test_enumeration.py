import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import prod

import pytest

import table_oracle

from bipolar_maps.enumeration import (_syt_walk, _weighted_moves,
                                      build_count_table,
                                      closed_form_triangulations, count_walks,
                                      enumerate_maps, enumerate_walks,
                                      exact_sample, exact_sampler, rank_count,
                                      sample_from_table, sample_syt_word,
                                      triangulation_count_by_edges, walk_of_rank)
from bipolar_maps.errors import EnumerationBudgetError, NoMapsError
from bipolar_maps.planar_map import canonical_form
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import walk_edges
from bipolar_maps.verify import all_triangulation_walks
from bipolar_maps.walks import walk_to_text
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


def test_a_count_keeps_one_layer():
    # with every layer kept, this count peaks at about 31 MB under
    # tracemalloc; with one live layer and every reach mask, about 3.2 MB;
    # with each mask dropped once its layer is built, about 2.5 MB
    count_walks(TRI, 0, 1, 6)  # numpy's first use allocates too
    tracemalloc.start()
    try:
        count_walks(TRI, 0, 1, 300, budget=10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * 10**6


def test_moves_no_walk_can_take_are_left_out():
    # no walk of 29 steps takes a face move of degree 300 000, so the table
    # is the tri table, and so are its draws
    w = FaceWeights({3: 1, 300_000: 1})
    table, tri = build_count_table(w, 0, 1, 30), build_count_table(TRI, 0, 1, 30)
    assert len(table.moves) == 3
    assert (table.moves, table.states, table.total) == (tri.moves, tri.states, tri.total)
    assert count_walks(w, 0, 1, 30) == count_walks(TRI, 0, 1, 30) == tri.total
    draw, tri_draw = exact_sampler(w, 0, 1, 30), exact_sampler(TRI, 0, 1, 30)
    assert [draw(CounterRng(s)) for s in range(10)] == \
        [tri_draw(CounterRng(s)) for s in range(10)]


def test_exact_sample_unique_walk():
    w = exact_sample(TRI, 0, 1, 3, CounterRng(1))
    assert len(w.moves) == 2 and w.end == (1, 0)


def test_exact_sample_no_maps():
    with pytest.raises(NoMapsError):
        exact_sample(TRI, 0, 1, 4, CounterRng(1))


def test_exact_sampler_refuses_a_zero_count_that_passes_feasible():
    # quad (0, 0) at 3 edges passes the necessary conditions, but no walk
    # of two steps closes
    quad = preset_weights("quad")
    assert feasible(quad, 0, 0, 3)[0]
    with pytest.raises(NoMapsError, match="the count is zero"):
        exact_sampler(quad, 0, 0, 3)


def test_exact_sampler_falls_back_to_the_tableau_past_its_budget():
    # tri (0, 1) at 99 edges takes a count table, but not in 1 000 cells:
    # its draws are the tableau's.  quad (0, 0) has no tableau, so its
    # budget error stands
    draw = exact_sampler(TRI, 0, 1, 99, budget=1000)
    assert [draw(CounterRng(s)) for s in range(3)] == \
        [_syt_walk(33, CounterRng(s), drop_last=True) for s in range(3)]
    with pytest.raises(EnumerationBudgetError):
        exact_sampler(preset_weights("quad"), 0, 0, 201, budget=1000)


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
    import scipy.stats
    rng = CounterRng(7)
    words = Counter(tuple(sample_syt_word(2, rng)) for _ in range(6000))
    assert len(words) == 5
    assert min(words.values()) > 1000
    # n = 3: the 42 tableaux are the 42 closed excursions of 9 steps
    walks = set(enumerate_walks(TRI, 0, 0, 10))
    assert len(walks) == closed_form_triangulations(3) == 42
    draws = Counter(_syt_walk(3, rng, drop_last=False) for _ in range(21_000))
    assert set(draws) == walks
    assert scipy.stats.chisquare(list(draws.values())).pvalue > 0.001


def test_syt_large_is_valid():
    w = exact_sample(TRI, 0, 1, 3000, CounterRng(3))
    walk_edges(w)  # raises unless w is a closed bipolar code
    assert w.end == (1, 0)
    w0 = exact_sample(TRI, 0, 0, 1000, CounterRng(4))
    walk_edges(w0)
    assert w0.end == (0, 0)


def test_weighted_sampling_rational():
    w = FaceWeights({3: Fraction(1, 2), 4: Fraction(2)})
    table = build_count_table(w, 0, 1, 6)
    assert isinstance(table.total, Fraction)
    rng = CounterRng(5)
    for _ in range(20):
        walk_edges(sample_from_table(table, rng))
    # exact weights: every walk owns its weight times 2**5 of the ranks
    wt = dict(table.moves)
    weights = {walk: prod((wt[mv] for mv in walk.moves), start=Fraction(1))
               for walk in enumerate_walks(w, 0, 1, 6)}
    assert sum(weights.values()) == table.total
    assert rank_count(table) == table.total * 2**5
    owned = Counter(walk_of_rank(table, k) for k in range(rank_count(table)))
    assert owned == {walk: weight * 2**5 for walk, weight in weights.items()}


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


# -- the dict-of-tuples DP that the dense table replaced, kept as an oracle ----


def dict_count_table(w, m, n, ell):
    """(layers, states) of the dict DP: layer r maps (x, y) to its count."""
    T = ell - 1
    moves = _weighted_moves(w, T)
    deltas = [mv.delta for mv, _ in moves]
    start, end = (0, m), (n, 0)
    max_i = max((-dx for dx, _ in deltas), default=0)
    max_j = max((dy for _, dy in deltas), default=0)
    has_edge = any(d == (1, -1) for d in deltas)

    def prune(x, y, t):
        r = T - t
        if end[0] - x > (r if has_edge else 0):
            return False
        if x - end[0] > r * max_i:
            return False
        if y - end[1] > r:
            return False
        if end[1] - y > r * max_j:
            return False
        return True

    reach: list[set[tuple[int, int]]] = [set() for _ in range(T + 1)]
    if prune(*start, 0):
        reach[0].add(start)
    states = 1
    for t in range(T):
        nxt = reach[t + 1]
        for (x, y) in reach[t]:
            for dx, dy in deltas:
                p = (x + dx, y + dy)
                if p[0] >= 0 and p[1] >= 0 and p not in nxt and prune(*p, t + 1):
                    nxt.add(p)
        states += len(nxt)

    layers: list[dict[tuple[int, int], object]] = [dict() for _ in range(T + 1)]
    if end in reach[T]:
        layers[0][end] = 1
    for r in range(1, T + 1):
        layer = layers[r]
        prev = layers[r - 1]
        for pos in reach[T - r]:
            x, y = pos
            acc = 0
            for (mv, wt), (dx, dy) in zip(moves, deltas):
                c = prev.get((x + dx, y + dy))
                if c:
                    acc += wt * c
            if acc:
                layer[pos] = acc
    return layers, states


ORACLE_WEIGHTS = {
    "tri": TRI,
    "quad": preset_weights("quad"),
    "kgon5": preset_weights("kgon:5"),
    "mixed-2346": FaceWeights({2: 1, 3: 1, 4: 1, 6: 1}),
    "rational-3-4": FaceWeights({3: Fraction(1, 2), 4: Fraction(2)}),
}


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_dense_table_matches_dict_oracle(name):
    w = ORACLE_WEIGHTS[name]
    for m, n, ell in itertools.product(range(3), range(3), range(1, 13)):
        table = build_count_table(w, m, n, ell)
        layers, states = dict_count_table(w, m, n, ell)
        total = layers[ell - 1].get((0, m), 0)
        assert (type(table.total), table.total) == (type(total), total)
        if not feasible(w, m, n, ell)[0]:
            assert (table.rows, table.states, total) == ([], 0, 0)
            continue
        # the start cell counts even when no walk leaves it (ell = 1, start
        # off the end), as it did in the dict DP
        assert table.states == states, (m, n, ell)
        # a table with total 0 keeps no rows; the dict layers are all empty.
        # The padding is read too, so a stray count there shows.
        cells = [{(x, y): (type(c), c) for x, row in enumerate(layer)
                  for y, c in enumerate(row) if c}
                 for layer in table.rows] or [{} for _ in layers]
        assert cells == [{p: (type(c), c) for p, c in layer.items()}
                         for layer in layers], (m, n, ell)


# -- the bounds-checked readers, kept as an oracle ------------------------------


# the longest walks whose every rank interval is checked: mixed-2346 has
# 25 865 walks with m, n <= 2 up to ell = 9 and 2.7 million up to 12, and
# rational-3-4 10 481 up to 10 and 138 863 up to 12, each decoded in Python
RANK_ORACLE_ELL = {"mixed-2346": 9, "rational-3-4": 10}


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_every_walk_owns_its_interval_of_ranks(name):
    # walk k of the enumeration owns the ranks from the sum of the sizes
    # before it, as many as its weight times L**length; both decoders must
    # give it at both ends, and the library's at every rank of a small rank
    # space
    w = ORACLE_WEIGHTS[name]
    top = RANK_ORACLE_ELL.get(name, 12)
    for m, n, ell in itertools.product(range(3), range(3), range(1, top + 1)):
        table = build_count_table(w, m, n, ell)
        ranks = table_oracle.rank_count(table)
        assert rank_count(table) == ranks, (m, n, ell)
        wt = dict(table.moves)
        unit = table_oracle.rank_scale(table) ** table.length
        lo = 0
        for walk in table_oracle.enumerate_walks(table):
            size = prod((wt[mv] for mv in walk.moves), start=Fraction(unit))
            assert size.denominator == 1 and size > 0
            hi = lo + int(size)
            for k in range(lo, hi) if ranks <= 10**4 else {lo, hi - 1}:
                assert walk_of_rank(table, k) == walk, (m, n, ell, k)
            for k in {lo, hi - 1}:
                assert table_oracle.walk_of_rank(table, k) == walk, (m, n, ell, k)
            lo = hi
        assert lo == ranks, (m, n, ell)
        for k in (-1, ranks):
            with pytest.raises(ValueError):
                walk_of_rank(table, k)


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_table_draws_match_the_bounds_checked_reader(name):
    # a draw is the oracle's walk of one randrange below the rank count
    w = ORACLE_WEIGHTS[name]
    cases = [(m, n, ell) for m, n, ell in itertools.product(range(3), range(3), range(1, 15))
             if feasible(w, m, n, ell)[0]]
    # and one table whose counts pass 2**64, so the draws take several words
    cases.append(next((m, n, ell) for ell in range(60, 70) for m in (2, 1) for n in (2, 1)
                      if feasible(w, m, n, ell)[0]))
    for m, n, ell in cases:
        table = build_count_table(w, m, n, ell)
        if not table.total:
            continue
        for seed in range(10):
            rng, ref = CounterRng(seed), CounterRng(seed)
            got = [sample_from_table(table, rng) for _ in range(3)]
            want = [table_oracle.walk_of_rank(table, ref.randrange(table_oracle.rank_count(table)))
                    for _ in range(3)]
            assert got == want, (m, n, ell, seed)
            # the same words were taken
            assert rng.randrange(2**64) == ref.randrange(2**64)


@pytest.mark.parametrize("name", ORACLE_WEIGHTS)
def test_enumeration_order_matches_the_bounds_checked_reader(name):
    w = ORACLE_WEIGHTS[name]
    for m, n, ell in itertools.product(range(3), range(3), range(1, 10)):
        table = build_count_table(w, m, n, ell)
        assert list(enumerate_walks(w, m, n, ell)) == \
            list(table_oracle.enumerate_walks(table)), (m, n, ell)


def walks_digest(walks) -> str:
    h = hashlib.sha256()
    for walk in walks:
        h.update(walk_to_text(walk).encode())
    return h.hexdigest()


def test_draws_and_enumeration_order_are_pinned():
    # digests of the dict DP's output; any change to the table, the readers
    # or the move order shows here.  The three draw digests are of one rank
    # per walk, decoded down the table (the oracle's decoder gives them too)
    quad, rational = preset_weights("quad"), ORACLE_WEIGHTS["rational-3-4"]
    draw = exact_sampler(quad, 0, 0, 201)
    assert walks_digest(draw(CounterRng(s)) for s in range(3)) == \
        "17240ee7ffebb90ce0ed971ca43ace2593ce9b7ded0d1c73b45e1e80f267a215"
    draw = exact_sampler(TRI, 0, 1, 12)  # the README sample line, replica 0
    assert walks_digest([draw(CounterRng(7, 0))]) == \
        "e819b69a82adb456de00fff6bafe8e678aa879cad67293d4e8aafca88c36aa5c"
    draw = exact_sampler(rational, 0, 1, 6)
    assert walks_digest(draw(CounterRng(s)) for s in range(3)) == \
        "f06c86d079d4ec47484c1350dcc1cbb0e07bac5005649191daf85073b6000def"
    assert walks_digest(enumerate_walks(TRI, 0, 1, 9)) == \
        "99a2b7569e2926cd2ea285bec461992a18e15c452854172434b31ccc80ebe0ff"
    # kgon:5 (0,0) has walks only at ell = 1 mod 5; ell = 16 has 3 094
    assert walks_digest(enumerate_walks(preset_weights("kgon:5"), 0, 0, 16)) == \
        "2b9896cb99066bb3b5062f32e2166603f1c688f4d1d2c1a90a8095cc9d4ca495"


def test_tableau_draws_are_pinned():
    # the tableau route's rng use; a change to the ratio rule's draws shows here
    draw = exact_sampler(TRI, 0, 1, 3000)
    assert walks_digest(draw(CounterRng(s)) for s in range(3)) == \
        "71f36cea99dc57a86ce056b782bfbaf2b65f117bfa3730082482ace6ba7b3098"
    draw = exact_sampler(TRI, 0, 0, 1000)
    assert walks_digest([draw(CounterRng(4))]) == \
        "19657e665d94b73d04009e4a975e5a7c9a371ca03f4dce3cc6b3d484b65ae462"


def test_tableau_draws_in_a_row_are_pinned():
    # two draws from one stream: the second pins where the first left it,
    # so a tableau draw that takes one word fewer or more shows here
    draw = exact_sampler(TRI, 0, 0, 124)
    rng = CounterRng(8)
    assert walks_digest([draw(rng)]) == \
        "117c91871dca88138f2dd199830d82fad4fc4e9669c63f846d0d5933304c63cd"
    assert walks_digest([draw(rng)]) == \
        "f0947258aa2c88fa6af38d2bf9ebbb00a39de029b11dbdb0d6d3580ccb9ca5e2"
