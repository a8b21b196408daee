"""Exact counting and exact sampling of quadrant walks.

Counts come from a layered dynamic program over quadrant positions, kept
exact with big integers (or Fractions for non-integer face weights), on
Python lists.  Each layer is rows of counts over the box of positions a
walk can hold at that time, padded with zeros, and each row a walk reaches
is computed from the previous layer by one strided slice per move.
``build_count_table`` keeps every layer (``CountTable.rows``);
``count_walks`` keeps only the newest layer.  The rows drive the
exhaustive enumeration and exact sampling by rank: every move from a cell
of one layer reads the next row in range, with no bounds check.  The walks
own consecutive ranks in enumeration order, as many as their weight, so a
draw is one uniform rank, decoded down the rows (``walk_of_rank``): exactly
uniform, or exactly Boltzmann for weighted models.  Triangulation
families with tiny boundaries scale far beyond the table budget through an
equivalent tableau encoding, counted by the hook-length formula and drawn
cell by cell by the hook-length ratio rule.  One rule, ``_exact_method``,
picks the tableau or the table for ``exact_sampler`` and the CLI's
``count`` alike; ``count_walks`` is the table's count alone.

The module imports no numpy: counting, enumerating and drawing small maps
run without it (a draw past its stream's first words loads it, see
``rng``).  ``enumerate_maps`` imports ``sewing``
itself, the one function here that decodes walks into maps, so counting
and drawing walks load no map code.  ``DEFAULT_BUDGET`` is
``errors.DEFAULT_BUDGET``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import comb, gcd, lcm
from operator import add, mul

from .errors import DEFAULT_BUDGET, EnumerationBudgetError, NoMapsError
from .rng import _PREFIX, CounterRng
from .walks import EDGE, LatticeWalk, Move, face_move
from .weights import FaceWeights, check_boundary, feasible


@dataclass
class CountTable:
    """Backward table: layer r holds weighted counts of r-step walks to the end.

    ``rows[r][x][y]`` is layer r's count, an exact int (a Fraction for
    non-integer weights), at (x, y) in the box
    ``0 <= x <= min(t, n + r*step)``, ``0 <= y <= min(m + t*step, r)`` for
    time ``t = length - r``, where ``step`` is the largest coordinate change
    of a move; cells that no walk from the start holds at time t are 0.
    Past its box each layer is padded with zeros: layer r - 1 and each of
    its rows reach past the boxes of layers r - 1 and r by at least
    ``step``, so a move from any cell of layer r's box reads
    ``rows[r - 1][x + dx][y + dy]`` in range, and a negative index (a step
    below x = 0 or y = 0) wraps into the zeros at the end.  The boxes'
    total size is the cell count checked against the budget.  ``states``
    counts the start cell (even when no walk leaves it) plus the cells of
    layers 1..length that walks from the start reach without losing the
    end.  A table whose total is 0 has no rows; when the boundary data
    fail ``weights.feasible`` it is empty: no moves, no rows, states 0.
    The rows of a layer that hold no count may be one shared list.
    Its walks own ``rank_count(table)`` ranks, which ``walk_of_rank``
    decodes and ``sample_from_table`` draws.

    Immutable once built; safe to share between sampling threads.
    """

    moves: tuple[tuple[Move, object], ...]   # (move, weight), fixed order
    start: tuple[int, int]
    end: tuple[int, int]
    length: int
    rows: list[list[list]]  # see above
    states: int
    total: object


def _weighted_moves(w: FaceWeights, most: int) -> tuple[tuple[Move, object], ...]:
    mvs = w.moves(most)
    integral = all(a.denominator == 1 for _, a in mvs)
    return tuple((mv, int(a) if integral else a) for mv, a in mvs)


def _y_period(deltas) -> int:
    """The walk lattice's y-period: the least p > 0 such that two cells of
    one row (one x) that walks from the start reach at one time have y
    apart by a multiple of p; 1 when the moves span only a line.

    The cells reached at time t lie in start + t*d0 + L, for L the lattice
    of the differences d - d0 of the moves.  In Hermite form L has the
    basis (g, h), (0, p) with g the gcd of the differences' x parts and
    g*p the gcd of their 2 x 2 minors."""
    (x0, y0), *rest = deltas
    diffs = [(dx - x0, dy - y0) for dx, dy in rest]
    det = gcd(*(a * d - b * c for (a, b), (c, d) in combinations(diffs, 2)))
    return det // gcd(*(a for a, _ in diffs)) if det else 1


def _count_layers(w: FaceWeights, m: int, n: int, ell: int, budget: int):
    """The layered DP behind ``build_count_table`` and ``count_walks``.

    Returns ``(moves, states, layers)``: the table's moves and states (see
    ``CountTable``), and an iterator over layers 0..ell-1 in turn, each as
    rows padded with zeros as ``CountTable.rows`` is.  The iterator
    computes each layer from the one before; it yields nothing when the
    count is 0.  Boundary data that fail ``weights.feasible`` give no
    moves, states 0 and no layers before the budget is looked at; every
    other instance has each layer's box counted against ``budget`` before
    any work.

    The forward reach of time t is one int bitmask: bit y of its row x is
    set when a walk from the start holds (x, y) at time t without losing
    the end.  A row's set bits lie on one residue class mod the y-period
    (``_y_period``), so each reached row of a backward layer is one strided
    slice, from its lowest set bit to its highest, of the sum over the
    moves of one strided slice of a row of the layer before; a cell of the
    slice off the reach is set back to 0.  Unreached rows share one list of
    zeros.
    """
    check_boundary(m, n, ell)
    if w.uniform:
        raise ValueError(
            "uniform weights have an infinite step set, and exact counting "
            "and sampling need a finite one; sample them by rejection or as "
            "free walks (--method rejection or --method free)")
    if not feasible(w, m, n, ell)[0]:
        return (), 0, iter(())
    T = ell - 1
    moves = _weighted_moves(w, T)
    # the edge move is (1, -1) and a face move is (-i, j), so no move
    # changes x or y by more than `step`
    step = max(abs(d) for mv, _ in moves for d in mv.delta)

    boxes = []
    estimate = 0
    for t in range(T + 1):
        # walks from the start keep x <= t and y <= m + t*step; walks that
        # can still reach the end in r steps keep x <= n + r*step and y <= r
        r = T - t
        boxes.append((min(t, n + r * step) + 1, min(m + t * step, r) + 1))
        estimate += boxes[t][0] * boxes[t][1]
        if estimate > budget:
            raise EnumerationBudgetError(
                f"count table would allocate at least {estimate} cells, "
                f"budget is {budget}",
                required_cells=estimate, budget_cells=budget)

    deltas = [mv.delta for mv, _ in moves]
    # row x of the reach of time t is bits x*width.. of one int, so a move
    # (dx, dy) shifts it by dx*width + dy.  A row of `width` bits has `step`
    # bits to spare above every box: a cell that a face move lifts past its
    # box stays in its row, and one that the edge move takes below y = 0
    # lands on bit width - 1 of the row below; the box mask drops both.
    # `width` is a whole number of bytes, so reached_rows cuts rows as bytes
    width = -(-(max(by for _, by in boxes) + step) // 8) * 8
    shifts = [dx * width + dy for dx, dy in deltas]
    most = max(bx for bx, _ in boxes)
    ones = ((1 << (most * width)) - 1) // ((1 << width) - 1)  # bit 0 of each row
    live = [1 << m]  # feasible passed, so the start lies in its box
    for t in range(T):
        cur, nxt = live[t], 0
        for s in shifts:
            nxt |= cur << s if s >= 0 else cur >> -s
        # left of x = n - r the r edge moves to come fall short of the end
        bx, by = boxes[t + 1]
        cut = max(n - (T - t - 1), 0)
        rows = ones >> ((most - bx + cut) * width) << (cut * width)
        live.append(nxt & rows * ((1 << by) - 1))
    states = 1 + sum(map(int.bit_count, live[1:]))
    if not live[T] >> (n * width) & 1:  # no walk: total 0
        return moves, states, iter(())

    period = _y_period(deltas)
    # (dx, dy, weight), the edge move first (FaceWeights.moves), the weight
    # None for an int 1; a Fraction weight of 1 still makes the counts Fractions
    (_, _, edge_wt), *faces = [(dx, dy, None if wt == 1 and isinstance(wt, int) else wt)
                               for (dx, dy), (_, wt) in zip(deltas, moves)]
    row_bytes = [slice(i, i + width // 8) for i in range(0, most * width // 8, width // 8)]

    def reached_rows(t):
        """Each row of box t's reach, as an int."""
        reach = live[t].to_bytes(boxes[t][0] * width // 8, "little")
        return map(int.from_bytes, map(reach.__getitem__, row_bytes[:boxes[t][0]]),
                   repeat("little"))

    def shape(t):
        """Layer t's rows and their length: past box t they reach `step`
        beyond the boxes of times t - 1, t and t + 1."""
        near = boxes[max(t - 1, 0):t + 2]
        return (max(bx for bx, _ in near) + step, max(by for _, by in near) + step)

    def layers():
        nx, ny = shape(T)
        zero = [0] * ny
        layer = [zero] * nx
        layer[n] = [1] + [0] * (ny - 1)
        yield layer
        for t in range(T - 1, -1, -1):
            live.pop()  # the reach of time t + 1, which no later layer reads
            prev = layer
            nx, ny = shape(t)
            zero = [0] * ny
            layer = [zero] * nx
            for x, bits in enumerate(reached_rows(t)):
                if not bits:
                    continue
                lo = (bits & -bits).bit_length() - 1
                hi = bits.bit_length()
                # the edge move (1, -1): a cell at y = 0 takes nothing from it
                src = prev[x + 1]
                acc = src[lo - 1:hi - 1:period] if lo else [0, *src[period - 1:hi - 1:period]]
                if edge_wt is not None:
                    acc = map(mul, repeat(edge_wt), acc)
                for dx, dy, wt in faces:
                    src = prev[x + dx][lo + dy:hi + dy:period]
                    acc = map(add, acc, src if wt is None else map(mul, repeat(wt), src))
                row = layer[x] = zero.copy()
                row[lo:hi:period] = acc
                if bits.bit_count() <= (hi - 1 - lo) // period:
                    # a gap in the reach: cells of the slice no walk holds
                    for y in range(lo, hi, period):
                        if not bits >> y & 1:
                            row[y] = 0
            yield layer

    return moves, states, layers()


def build_count_table(w: FaceWeights, m: int, n: int, ell: int,
                      budget: int = DEFAULT_BUDGET) -> CountTable:
    """Layered quadrant DP for walks of ell-1 steps from (0, m) to (n, 0).

    Every layer is rows over its box (see ``CountTable``) with a margin of
    zeros; the sum of the box sizes is checked against ``budget`` before
    any work is done.
    """
    moves, states, layers = _count_layers(w, m, n, ell, budget)
    rows = list(layers)
    return CountTable(moves=moves, start=(0, m), end=(n, 0), length=ell - 1,
                      rows=rows, states=states, total=rows[-1][0][m] if rows else 0)


def count_walks(w: FaceWeights, m: int, n: int, ell: int,
                budget: int = DEFAULT_BUDGET) -> int:
    """Exact number of quadrant walks of ell-1 steps from (0, m) to (n, 0).

    Counts walks over the allowed step set (pure counting: weight values do
    not enter, only which degrees are allowed), which equals the number of
    bipolar maps with ell edges and boundary lengths m+1, n+1.  Only the
    newest layer of the DP is kept.
    """
    counting = FaceWeights({k: Fraction(1) for k in w.support}) if not w.uniform else w
    newest = deque(_count_layers(counting, m, n, ell, budget)[2], maxlen=1)
    return int(newest[0][0][m]) if newest else 0


def closed_form_triangulations(n: int) -> int:
    """f^(n,n,n), the standard tableaux of shape (n, n, n): the sphere
    triangulations with marked adjacent poles and 3n edges (boundary
    (0, 1)), and the tri maps of boundary (0, 0) with 3n + 1 edges.
    It is 2(3n)! / (n! (n+1)! (n+2)!), taken as two binomials and one
    small division, not a division of factorials; ``comb`` refuses n < 0."""
    return 2 * comb(3 * n, n) * comb(2 * n, n) // ((n + 1) ** 2 * (n + 2))


def triangulation_count_by_edges(ell: int) -> int:
    """Same sequence indexed by edge count; zero off multiples of 3."""
    k, r = divmod(ell, 3)
    return closed_form_triangulations(k) if k > 0 and not r else 0


def enumerate_walks(w: FaceWeights, m: int, n: int, ell: int,
                    budget: int = DEFAULT_BUDGET):
    """Yield every quadrant walk exactly once, in a fixed move order."""
    table = build_count_table(w, m, n, ell, budget)
    if not table.total:
        return
    rows = table.rows
    steps = [(mv, *mv.delta) for mv, _ in table.moves]
    prefix: list[Move] = []

    def rec(x, y, r):
        if r == 0:
            yield LatticeWalk(table.start, tuple(prefix))
            return
        prev = rows[r - 1]
        for mv, dx, dy in steps:
            if prev[x + dx][y + dy]:
                prefix.append(mv)
                yield from rec(x + dx, y + dy, r - 1)
                prefix.pop()

    yield from rec(*table.start, table.length)


def enumerate_maps(w: FaceWeights, m: int, n: int, ell: int,
                   budget: int = DEFAULT_BUDGET):
    """Decode every enumerated walk; stream length equals count_walks."""
    from .sewing import walk_to_map
    for walk in enumerate_walks(w, m, n, ell, budget):
        yield walk_to_map(walk)


# -- exact sampling -------------------------------------------------------------


def _denominator_lcm(table: CountTable) -> int:
    """L, the lcm of the weights' denominators: 1 for int weights."""
    return lcm(*(wt.denominator for _, wt in table.moves))


def rank_count(table: CountTable) -> int:
    """How many ranks the table's walks own: ``total`` for int weights.

    For Fraction weights it is ``total * L**length``, where L is the lcm of
    the weights' denominators, so that every walk owns a whole number of
    ranks: its weight (the product of its moves' weights) times L**length.
    """
    scale = _denominator_lcm(table)
    return table.total if scale == 1 else int(table.total * scale ** table.length)


def walk_of_rank(table: CountTable, rank: int) -> LatticeWalk:
    """The walk that owns ``rank``, for ``0 <= rank < rank_count(table)``.

    Walks own consecutive ranks in ``enumerate_walks`` order, each as many
    as ``rank_count`` gives it, so a uniform rank is an exact draw.  The
    descent takes no draws: at each step the rank falls in the share of
    one move (its weight times its sub-count, in ``table.moves`` order);
    the shares before it are subtracted, and the rank is floor-divided by
    the move's weight (times L for Fraction weights), which leaves a rank
    of the walks from the next cell.
    """
    ranks = rank_count(table)
    if not 0 <= rank < ranks:
        raise ValueError(f"rank {rank} is not in [0, {ranks})")
    x, y = table.start
    moves: list[Move] = []
    rows = table.rows
    steps = [(mv, *mv.delta) for mv, _ in table.moves]
    if all(type(wt) is int and wt == 1 for _, wt in table.moves):
        # each walk owns one rank, and a share is the sub-count itself
        for r in range(table.length - 1, -1, -1):
            prev = rows[r]
            for mv, dx, dy in steps:
                c = prev[x + dx][y + dy]
                if rank < c:
                    break
                rank -= c
            moves.append(mv)
            x += dx
            y += dy
        return LatticeWalk(table.start, tuple(moves))
    # the walks from a cell of layer r own its count times L**r ranks (the
    # count's denominator divides L**r), and a move of weight wt multiplies
    # them by wt * L, an int
    scale = _denominator_lcm(table)
    wts = [int(wt * scale) for _, wt in table.moves]
    for r in range(table.length - 1, -1, -1):
        prev = rows[r]
        unit = scale ** r
        for (mv, dx, dy), wt in zip(steps, wts):
            c = prev[x + dx][y + dy]
            share = wt * c.numerator * (unit // c.denominator)
            if rank < share:
                break
            rank -= share
        rank //= wt
        moves.append(mv)
        x += dx
        y += dy
    return LatticeWalk(table.start, tuple(moves))


def sample_from_table(table: CountTable, rng: CounterRng) -> LatticeWalk:
    """An exact draw: the walk of one uniform rank (see ``walk_of_rank``).

    The draw takes the words of one ``randrange`` below ``rank_count``.
    """
    if not table.total:
        raise NoMapsError("no such maps: the count is zero")
    return walk_of_rank(table, rng.randrange(rank_count(table)))


# -- tableau sampling for large triangulation families --------------------------


def sample_syt_word(n: int, rng: CounterRng) -> list[int]:
    """Uniform standard tableau of shape (n, n, n), as a row word.

    Values 3n, 3n-1, ..., 1 are removed in turn; ``word[t] = row of value
    t+1``.  For the shape λ of the N values left, set l = (λ₁+2, λ₂+1, λ₃)
    and Δ(l) = (l₁-l₂)(l₁-l₃)(l₂-l₃).  The hook-length formula gives value
    N row i with probability lᵢ·Δ(l-eᵢ) / (N·Δ(l)), and a row that cannot
    shrink gets weight 0.  Prefix counts satisfy row0 >= row1 >= row2, so
    the word reads off a closed quadrant excursion.
    """
    if 3 * n > _PREFIX:  # more words than the stream's pure-Python prefix: all from numpy
        rng.np
    a, b, c = n + 2, n + 1, n
    word = [0] * (3 * n)
    for t in range(3 * n, 0, -1):
        u = rng.randrange(t * (a - b) * (a - c) * (b - c))
        w0 = a * (a - b - 1) * (a - c - 1) * (b - c)
        if u < w0:  # row 0; the word is 0 there already
            a -= 1
        elif u < w0 + b * (a - b + 1) * (a - c) * (b - c - 1):
            word[t - 1] = 1
            b -= 1
        else:
            word[t - 1] = 2
            c -= 1
    return word


_SYT_MOVES = {0: face_move(0, 1), 1: EDGE, 2: face_move(1, 0)}


def _syt_walk(n: int, ell: int, rng: CounterRng) -> LatticeWalk:
    """The walk of the first ell - 1 letters of a tableau word of shape
    (n, n, n); a letter past them ends the excursion, a west move."""
    word = sample_syt_word(n, rng)
    if word[ell - 1:] not in ([], [2]):
        raise AssertionError("closed excursion must end with the west move")
    return LatticeWalk((0, 0), tuple(_SYT_MOVES[c] for c in word[:ell - 1]))


def is_triangulation(w: FaceWeights) -> bool:
    """Do these weights allow triangles only?  (Uniform weights have an
    empty support.)"""
    return set(w.support) == {3}


def _exact_method(w: FaceWeights, m: int, n: int, ell: int, table, tableau):
    """The one rule that picks how an instance is counted and drawn.

    The hook-length tableau of shape (k, k, k) serves triangulations with
    m = 0 and n = 0 or 1, where ell + n - 1 = 3k + r: a walk of ell - 1
    steps is a tableau's word, less its last letter when n = 1, so there
    are walks only when r = 0.  It runs, as ``tableau(k, r)``, past 120
    edges, where ``table()`` is over its budget, or when ``table`` is
    None.  The count table, ``table()``, serves every other instance; with
    ``table`` None those are refused (ValueError).
    """
    k, r = divmod(ell + n - 1, 3)
    hook = is_triangulation(w) and m == 0 and n in (0, 1)
    if table is None and not hook:
        raise ValueError("only triangulations with m = 0 and n <= 1 have a closed-form count")
    if table is not None and (not hook or ell <= 120):
        try:
            return table()
        except EnumerationBudgetError:
            if not hook:
                raise
    return tableau(k, r)


def exact_sampler(w: FaceWeights, m: int, n: int, ell: int,
                  budget: int = DEFAULT_BUDGET):
    """One-time setup returning a draw(rng) closure for repeated sampling.

    ``_exact_method`` picks the method.  Small instances share one count
    table across draws, and each draw takes one ``randrange`` (see
    ``sample_from_table``); triangulations with boundaries (0,0) or (0,1)
    use the tableau sampler beyond 120 edges or past the table budget:
    exactly uniform at any size, and linear-time, with one ``randrange``
    per edge.
    """
    ok, reason = feasible(w, m, n, ell)
    if not ok:
        raise NoMapsError(f"no such maps: {reason}")

    def table():
        counts = build_count_table(w, m, n, ell, budget)
        if not counts.total:
            raise NoMapsError("no such maps: the count is zero")
        return lambda rng: sample_from_table(counts, rng)

    # feasible has passed, so r = 0 (the triangle congruence)
    return _exact_method(w, m, n, ell, table,
                         lambda k, r: lambda rng: _syt_walk(k, ell, rng))


def exact_sample(w: FaceWeights, m: int, n: int, ell: int, rng: CounterRng,
                 budget: int = DEFAULT_BUDGET) -> LatticeWalk:
    """Draw a walk exactly from the weighted measure on quadrant walks."""
    return exact_sampler(w, m, n, ell, budget)(rng)

