"""Exact counting and exact sampling of quadrant walks.

Counts come from a layered dynamic program over quadrant positions, kept
exact with big integers (or Fractions for non-integer face weights); the
same layers drive backward sampling that is exactly uniform (or exactly
Boltzmann for weighted models).  Triangulation families with tiny
boundaries scale far beyond the table budget through an equivalent
tableau encoding sampled by hook walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import EnumerationBudgetError, NoMapsError
from .rng import CounterRng
from .sewing import walk_to_map
from .walks import EDGE, FaceMove, LatticeWalk, Move
from .weights import FaceWeights, check_boundary, feasible

DEFAULT_BUDGET = 2_000_000

# moves are explored and reported in this fixed order
def _move_key(mv: Move):
    if isinstance(mv, FaceMove):
        return (1, mv.degree, mv.i)
    return (0, 0, 0)


@dataclass
class CountTable:
    """Backward table: layer r holds weighted counts of r-step walks to the end.

    Immutable once built; safe to share between sampling threads.
    """

    moves: tuple[tuple[Move, object], ...]   # (move, weight), fixed order
    start: tuple[int, int]
    end: tuple[int, int]
    length: int
    layers: list[dict[tuple[int, int], object]]
    states: int

    @property
    def total(self):
        return self.layers[self.length].get(self.start, 0)


def _weighted_moves(w: FaceWeights) -> tuple[tuple[Move, object], ...]:
    mvs = w.moves()
    integral = all(a.denominator == 1 for _, a in mvs)
    out = []
    for mv, a in sorted(mvs, key=lambda p: _move_key(p[0])):
        out.append((mv, int(a) if integral else a))
    return tuple(out)


def build_count_table(w: FaceWeights, m: int, n: int, ell: int,
                      budget: int = DEFAULT_BUDGET) -> CountTable:
    """Layered quadrant DP for walks of ell-1 steps from (0, m) to (n, 0)."""
    check_boundary(m, n, ell)
    if w.uniform:
        raise ValueError(
            "uniform weights have an infinite step set, and exact counting "
            "and sampling need a finite one; sample them by rejection or as "
            "free walks (--method rejection or --method free)")
    moves = _weighted_moves(w)
    deltas = [mv.delta for mv, _ in moves]
    T = ell - 1
    start, end = (0, m), (n, 0)
    max_i = max((-dx for dx, _ in deltas), default=0)
    max_j = max((dy for _, dy in deltas), default=0)
    has_edge = any(d == (1, -1) for d in deltas)

    # box bound on reachable cells per layer; bail before doing any work
    estimate = 0
    for t in range(T + 1):
        xs = min(t, n + (T - t) * max_i) + 1
        ys = min(m + t * max_j, T - t) + 1
        estimate += max(xs, 0) * max(ys, 0)
        if estimate > budget:
            raise EnumerationBudgetError(
                f"count table needs about {estimate}+ cells, budget is {budget}",
                required_cells=estimate, budget_cells=budget)

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
        if states > budget:
            raise EnumerationBudgetError(
                f"count table needs more than {budget} cells "
                f"(at layer {t + 1} of {T})",
                required_cells=states, budget_cells=budget)

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
    return CountTable(moves=moves, start=start, end=end, length=T,
                      layers=layers, states=states)


def count_walks(w: FaceWeights, m: int, n: int, ell: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of quadrant walks of ell-1 steps from (0, m) to (n, 0).

    Counts walks over the allowed step set (pure counting: weight values do
    not enter, only which degrees are allowed), which equals the number of
    bipolar maps with ell edges and boundary lengths m+1, n+1.
    """
    counting = FaceWeights({k: Fraction(1) for k in w.support}) if not w.uniform else w
    table = build_count_table(counting, m, n, ell, budget)
    return int(table.total)


def closed_form_triangulations(n: int) -> int:
    """Sphere triangulations with marked adjacent poles and 3n edges."""
    if n < 1:
        raise ValueError("n >= 1 required")
    return 2 * factorial(3 * n) // (factorial(n + 2) * factorial(n + 1) * factorial(n))


def triangulation_count_by_edges(ell: int) -> int:
    """Same sequence indexed by edge count; zero off multiples of 3."""
    if ell < 3 or ell % 3 != 0:
        return 0
    return closed_form_triangulations(ell // 3)


def enumerate_walks(w: FaceWeights, m: int, n: int, ell: int,
                    budget: int = DEFAULT_BUDGET):
    """Yield every quadrant walk exactly once, in a fixed move order."""
    table = build_count_table(w, m, n, ell, budget)
    if not table.total:
        return
    T = table.length
    prefix: list[Move] = []

    def rec(pos, r):
        if r == 0:
            yield LatticeWalk(table.start, tuple(prefix))
            return
        x, y = pos
        prev = table.layers[r - 1]
        for mv, _ in table.moves:
            dx, dy = mv.delta
            p = (x + dx, y + dy)
            if p[0] >= 0 and p[1] >= 0 and prev.get(p):
                prefix.append(mv)
                yield from rec(p, r - 1)
                prefix.pop()

    yield from rec(table.start, T)


def enumerate_maps(w: FaceWeights, m: int, n: int, ell: int,
                   budget: int = DEFAULT_BUDGET):
    """Decode every enumerated walk; stream length equals count_walks."""
    for walk in enumerate_walks(w, m, n, ell, budget):
        yield walk_to_map(walk)


# -- exact sampling -------------------------------------------------------------


def sample_from_table(table: CountTable, rng: CounterRng) -> LatticeWalk:
    """Backward sampling proportional to sub-counts; exact for int weights.

    Fractional weights are rescaled to integers by the lcm of their
    denominators before each draw, which preserves exactness.
    """
    if not table.total:
        raise NoMapsError("no such maps: the count is zero")
    pos = table.start
    moves: list[Move] = []
    for r in range(table.length, 0, -1):
        prev = table.layers[r - 1]
        opts: list[tuple[Move, object]] = []
        for mv, wt in table.moves:
            dx, dy = mv.delta
            p = (pos[0] + dx, pos[1] + dy)
            if p[0] >= 0 and p[1] >= 0:
                c = prev.get(p)
                if c:
                    opts.append((mv, wt * c))
        weights = [wv for _, wv in opts]
        scale = lcm(*(wv.denominator for wv in weights))
        ints = [int(wv * scale) for wv in weights]
        u = rng.randrange(sum(ints))
        k = 0
        while u >= ints[k]:
            u -= ints[k]
            k += 1
        mv = opts[k][0]
        moves.append(mv)
        pos = (pos[0] + mv.delta[0], pos[1] + mv.delta[1])
    return LatticeWalk(table.start, tuple(moves))


# -- hook-walk sampling for large triangulation families ------------------------


def sample_syt_word(n: int, rng: CounterRng) -> list[int]:
    """Uniform standard tableau of shape (n, n, n), as a row word.

    Hook-walk removal places values 3n, 3n-1, ..., 1; ``word[t] = row of
    value t+1``.  Prefix counts satisfy row0 >= row1 >= row2, so the word
    reads off a closed quadrant excursion.
    """
    rows = [n, n, n]
    word = [0] * (3 * n)
    for t in range(3 * n, 0, -1):
        total = rows[0] + rows[1] + rows[2]
        u = rng.randrange(total)
        i = 0
        while u >= rows[i]:
            u -= rows[i]
            i += 1
        j = u
        while True:
            arm = rows[i] - j - 1
            leg = sum(1 for i2 in range(i + 1, 3) if rows[i2] > j)
            if arm + leg == 0:
                break
            u2 = rng.randrange(arm + leg)
            if u2 < arm:
                j = j + 1 + u2
            else:
                i = i + 1 + (u2 - arm)
        word[t - 1] = i
        rows[i] -= 1
    return word


_SYT_MOVES = {0: FaceMove(0, 1), 1: EDGE, 2: FaceMove(1, 0)}


def _syt_walk(n: int, rng: CounterRng, drop_last: bool) -> LatticeWalk:
    word = sample_syt_word(n, rng)
    if drop_last:
        if word[-1] != 2:
            raise AssertionError("closed excursion must end with the west move")
        word = word[:-1]
    return LatticeWalk((0, 0), tuple(_SYT_MOVES[c] for c in word))


def is_triangulation(w: FaceWeights) -> bool:
    """Do these weights allow triangles only?"""
    return not w.uniform and set(w.support) == {3}


def _syt_case(w: FaceWeights, m: int, n: int, ell: int):
    if is_triangulation(w) and (m, n) == (0, 1) and ell % 3 == 0:
        return (ell // 3, True)
    if is_triangulation(w) and (m, n) == (0, 0) and ell % 3 == 1:
        return ((ell - 1) // 3, False)
    return None


def exact_sampler(w: FaceWeights, m: int, n: int, ell: int,
                  budget: int = DEFAULT_BUDGET):
    """One-time setup returning a draw(rng) closure for repeated sampling.

    Small instances share one count table across draws; triangulations with
    boundaries (0,0) or (0,1) use the linear-time tableau sampler beyond 120
    edges or past the table budget (exactly uniform at any size).
    """
    ok, reason = feasible(w, m, n, ell)
    if not ok:
        raise NoMapsError(f"no such maps: {reason}")
    syt = _syt_case(w, m, n, ell)
    if syt is None or ell <= 120:
        try:
            table = build_count_table(w, m, n, ell, budget)
        except EnumerationBudgetError:
            if syt is None:
                raise
        else:
            if not table.total:
                raise NoMapsError("no such maps: the count is zero")
            return lambda rng: sample_from_table(table, rng)
    n_rows, drop = syt
    return lambda rng: _syt_walk(n_rows, rng, drop_last=drop)


def exact_sample(w: FaceWeights, m: int, n: int, ell: int, rng: CounterRng,
                 budget: int = DEFAULT_BUDGET) -> LatticeWalk:
    """Draw a walk exactly from the weighted measure on quadrant walks."""
    return exact_sampler(w, m, n, ell, budget)(rng)

