import hashlib
import itertools
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, prod

import pytest

import table_oracle

from bipolar_maps.enumeration import (_exact_method, _weighted_moves, _y_period,
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
from bipolar_maps.walks import EDGE, face_move, walk_to_text
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


def test_closed_form_is_the_hook_length_quotient():
    # the two-binomial form against the factorial quotient it replaces
    def factorials(k):
        return 2 * factorial(3 * k) // (factorial(k) * factorial(k + 1) * factorial(k + 2))

    assert all(closed_form_triangulations(k) == factorials(k) for k in range(301))
    assert closed_form_triangulations(10_000) == factorials(10_000)
    with pytest.raises(ValueError):
        closed_form_triangulations(-1)


def test_infeasible_data_count_zero_before_the_budget():
    # off the congruence no box is summed: no budget error, an empty table
    quad = preset_weights("quad")
    assert count_walks(quad, 0, 0, 3000, budget=10) == 0
    table = build_count_table(TRI, 2, 2, 2000, budget=10)
    assert (table.moves, table.rows, table.states, table.total) == ((), [], 0, 0)
    with pytest.raises(EnumerationBudgetError):
        count_walks(quad, 0, 0, 3001, budget=10)
    with pytest.raises(EnumerationBudgetError):
        build_count_table(TRI, 2, 2, 2001, budget=10)


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


@pytest.mark.parametrize("name, m, n, ell, step, cells", [
    ("tri", 0, 1, 300, 1, 2_283_875), ("quad", 0, 0, 201, 2, 1_063_893)])
def test_budget_counts_every_cell_of_every_box(name, m, n, ell, step, cells):
    # the estimate is the sum of the whole boxes of CountTable's docstring,
    # though walks reach about 14 % of their cells
    T = ell - 1
    assert cells == sum((min(t, n + (T - t) * step) + 1) * (min(m + t * step, T - t) + 1)
                        for t in range(T + 1))
    w = preset_weights(name)
    with pytest.raises(EnumerationBudgetError) as err:
        count_walks(w, m, n, ell, budget=cells - 1)
    assert str(err.value) == (f"count table would allocate at least {cells} cells, "
                              f"budget is {cells - 1}")
    assert (err.value.required_cells, err.value.budget_cells) == (cells, cells - 1)
    assert count_walks(w, m, n, ell, budget=cells) > 0


def test_a_count_keeps_one_layer():
    # with every layer kept, this count peaks at about 31 MB under
    # tracemalloc; with one live numpy layer and every reach mask, about
    # 3.2 MB; with each mask dropped once its layer is built, about 2.5 MB;
    # on Python lists, with one bit a reached cell, about 0.5 MB
    count_walks(TRI, 0, 1, 6)  # the first count fills the shared move cache
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


# the move that a tableau word's letter, a row of the tableau, stands for
ROW_MOVES = (face_move(0, 1), EDGE, face_move(1, 0))


def tableau_count(k, r):
    """f^(k,k,k), the tableaux of shape (k, k, k); none unless r = 0."""
    return 0 if r else closed_form_triangulations(k)


@pytest.mark.parametrize("n, ell", [(n, ell) for n in (0, 1) for ell in range(1, 122)
                                    if feasible(TRI, 0, n, ell)[0]])
def test_the_tableau_counts_what_the_table_counts(n, ell):
    # at budget 1 no table past one edge fits, so the tableau serves; with
    # no table at all it serves every ell
    table = count_walks(TRI, 0, n, ell)
    assert table == _exact_method(
        TRI, 0, n, ell, lambda: count_walks(TRI, 0, n, ell, budget=1), tableau_count)
    assert table == _exact_method(TRI, 0, n, ell, None, tableau_count)


def test_the_table_counts_every_other_instance():
    # off the congruence, and at ell <= 120, the table serves (0, 0) and
    # (0, 1); past 120 edges the tableau counts 0 off the congruence
    calls = []

    def table():
        calls.append(1)
        return "table"

    for n, ell in ((0, 2), (1, 4), (0, 120), (1, 120)):
        assert _exact_method(TRI, 0, n, ell, table, tableau_count) == "table"
    assert len(calls) == 4
    assert _exact_method(TRI, 0, 0, 121, table, tableau_count) == \
        closed_form_triangulations(40)
    assert _exact_method(TRI, 0, 1, 122, table, tableau_count) == 0
    assert len(calls) == 4
    # other boundaries and families have no tableau, at any size or budget
    for w, m, n in ((TRI, 1, 0), (TRI, 0, 2), (TRI, 2, 1), (preset_weights("quad"), 0, 1),
                    (FaceWeights({3: 1, 4: 1}), 0, 1), (preset_weights("uniform"), 0, 1)):
        assert _exact_method(w, m, n, 30_000, table, tableau_count) == "table"
        with pytest.raises(ValueError, match="closed-form"):
            _exact_method(w, m, n, 30_000, None, tableau_count)

    def over_budget():
        raise EnumerationBudgetError("over", required_cells=2, budget_cells=1)

    with pytest.raises(EnumerationBudgetError):
        _exact_method(TRI, 1, 0, 19, over_budget, tableau_count)
    assert _exact_method(TRI, 0, 0, 13, over_budget, tableau_count) == 462


def test_exact_sampler_falls_back_to_the_tableau_past_its_budget():
    # tri (0, 1) at 99 edges takes a count table, but not in 1 000 cells:
    # its draws are the tableau's.  quad (0, 0) has no tableau, so its
    # budget error stands
    draw = exact_sampler(TRI, 0, 1, 99, budget=1000)
    for s in range(3):
        word = sample_syt_word(33, CounterRng(s))
        assert word[-1] == 2  # the west move that closes the excursion
        assert draw(CounterRng(s)).moves == tuple(ROW_MOVES[c] for c in word[:-1])
    with pytest.raises(EnumerationBudgetError):
        exact_sampler(preset_weights("quad"), 0, 0, 201, budget=1000)


def test_a_tableau_walk_drops_only_the_closing_west_move(monkeypatch):
    # a (0, 1) walk is its tableau word less the last letter, which must be
    # row 2, the west move; the hook walk always ends there, so a word that
    # does not is refused
    from bipolar_maps import enumeration
    draw = exact_sampler(TRI, 0, 1, 3, budget=1)
    assert draw(CounterRng(0)).moves == (ROW_MOVES[0], ROW_MOVES[1])
    monkeypatch.setattr(enumeration, "sample_syt_word", lambda n, rng: [0, 2, 1])
    with pytest.raises(AssertionError, match="west move"):
        draw(CounterRng(0))


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
    draw = exact_sampler(TRI, 0, 0, 10, budget=1)  # the tableau: no table fits
    draws = Counter(draw(rng) for _ in range(21_000))
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
    """(layers, states) of the dict DP: layer r maps each cell that walks
    from the start hold at time ell - 1 - r without losing the end to its
    count, a count of 0 included (layer 0 holds the end alone)."""
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
                acc += wt * prev.get((x + dx, y + dy), 0)
            layer[pos] = acc
    return layers, states


def assert_rows_match(table, layers):
    """Every cell of every row of the table, the padding included, against
    the dict DP: its count where it keeps the cell (a Fraction for Fraction
    weights, 0 included), an int 0 everywhere else."""
    assert len(table.rows) == len(layers)
    for layer, cells in zip(table.rows, layers):
        got = {(x, y): (type(c), c) for x, row in enumerate(layer) for y, c in enumerate(row)}
        assert got == {p: (type(cells.get(p, 0)), cells.get(p, 0)) for p in got}
        assert set(cells) <= set(got)


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
        total = layers[ell - 1].get((0, m)) or 0  # an int 0 when no walk closes
        assert (type(table.total), table.total) == (type(total), total)
        if not feasible(w, m, n, ell)[0]:
            assert (table.rows, table.states, total) == ([], 0, 0)
            continue
        # the start cell counts even when no walk leaves it (ell = 1, start
        # off the end), as it did in the dict DP
        assert table.states == states, (m, n, ell)
        # a table with total 0 keeps no rows; every dict count is 0
        if total:
            assert_rows_match(table, layers)
        else:
            assert table.rows == [] and not any(c for layer in layers for c in layer.values())


@pytest.mark.parametrize("w, period", [
    (TRI, 3), (preset_weights("quad"), 4), (preset_weights("kgon:5"), 5),
    (FaceWeights({2: 1, 3: 1, 4: 1, 6: 1}), 1), (FaceWeights({3: 1, 5: 1}), 1),
    (FaceWeights({3: 1, 6: 1}), 3)])
def test_y_period_of_the_walk_lattice(w, period):
    # tri keeps x + 2y fixed mod 3 and a k-gon law x + (k - 1)y mod k, so
    # one row's reached cells are k apart; triangles with 2-gons reach every y
    deltas = [mv.delta for mv, _ in _weighted_moves(w, 20)]
    assert _y_period(deltas) == period
    # and no smaller period holds on the cells walks reach
    cells = {(0, 0)}
    rows = Counter()
    for _ in range(6):
        cells = {(x + dx, y + dy) for x, y in cells for dx, dy in deltas}
        for x, y in cells:
            rows[x] = gcd(rows[x], *(y - y2 for x2, y2 in cells if x2 == x))
    assert gcd(*rows.values()) == period


@pytest.mark.parametrize("w, m, n, ell", [
    (TRI, 0, 1, 30), (TRI, 2, 0, 23), (preset_weights("quad"), 0, 0, 25),
    (preset_weights("quad"), 0, 2, 22), (preset_weights("kgon:5"), 0, 0, 31),
    (FaceWeights({3: Fraction(1, 2), 4: Fraction(1, 3)}), 1, 1, 20),
    (FaceWeights({3: 2, 4: 3}), 0, 1, 20),  # int weights other than 1
    # the reach of a row has gaps on its residue class here
    (FaceWeights({2: 1, 3: 1, 4: 1, 6: 1}), 1, 2, 60)])
def test_table_rows_match_a_dict_dp_cell_by_cell(w, m, n, ell):
    # the dict DP's oracle test at lengths where rows hold many cells
    table = build_count_table(w, m, n, ell)
    layers, states = dict_count_table(w, m, n, ell)
    assert table.total and table.states == states
    if ell == 60:
        # the y-period is 1, and some rows of the reach skip a y between
        # their lowest and highest cell
        rows = [{y for x2, y in layer if x2 == x} for layer in layers for x, _ in layer]
        assert _y_period([mv.delta for mv, _ in table.moves]) == 1
        assert any(len(ys) <= max(ys) - min(ys) for ys in rows)
    assert_rows_match(table, layers)


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
