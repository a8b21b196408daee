"""Exact counting and exact sampling of quadrant walks.

Counts come from a layered dynamic program over quadrant positions, kept
exact with big integers (or Fractions for non-integer face weights).  Each
layer is a dense array over the box of positions a walk can hold at that
time, allocated once with a margin of zeros, and computed from the
previous layer by one shifted slice per move.  ``build_count_table`` keeps
each finished layer as nested lists padded with zeros (``CountTable.rows``);
``count_walks`` keeps only the newest layer.  The rows drive the
exhaustive enumeration and exact sampling by rank: every move from a cell
of one layer reads the next row in range, with no bounds check.  The walks
own consecutive ranks in enumeration order, as many as their weight, so a
draw is one uniform rank, decoded down the rows (``walk_of_rank``): exactly
uniform, or exactly Boltzmann for weighted models.  Triangulation
families with tiny boundaries scale far beyond the table budget through an
equivalent tableau encoding, drawn cell by cell by the hook-length ratio
rule.

numpy is imported by the count-table DP only, so the closed form and the
tableau sampler load without it.  ``enumerate_maps`` imports ``sewing``
itself, the one function here that decodes walks into maps, so counting
and drawing walks load no map code.  ``DEFAULT_BUDGET`` is
``errors.DEFAULT_BUDGET``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm

from .errors import DEFAULT_BUDGET, EnumerationBudgetError, NoMapsError
from .rng import CounterRng
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


def _count_layers(w: FaceWeights, m: int, n: int, ell: int, budget: int):
    """The layered DP behind ``build_count_table`` and ``count_walks``.

    Returns ``(moves, states, layers)``: the table's moves and states (see
    ``CountTable``), and an iterator over layers 0..ell-1 in turn, each a
    numpy object array indexed ``[x, y]`` and padded with zeros as
    ``CountTable.rows`` is.  The iterator computes each layer from the one
    before and then drops that one; it yields nothing when the count is 0.
    Every layer's box is counted against ``budget`` before any work.
    """
    import numpy as np
    check_boundary(m, n, ell)
    if w.uniform:
        raise ValueError(
            "uniform weights have an infinite step set, and exact counting "
            "and sampling need a finite one; sample them by rejection or as "
            "free walks (--method rejection or --method free)")
    T = ell - 1
    start, end = (0, m), (n, 0)
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
    if not feasible(w, m, n, ell)[0]:
        return (), 0, iter(())

    # an array of time t holds box t at offset (step, step) and reaches
    # `step` past boxes t - 1, t and t + 1 on every side, so each move
    # between neighbouring times reads one slice of it
    def padded(t):
        near = boxes[max(t - 1, 0):t + 2]
        return (max(bx for bx, _ in near) + 2 * step,
                max(by for _, by in near) + 2 * step)

    def box(a, t, dx=0, dy=0):
        """The cells of `a` at box t, or one move (dx, dy) away from it."""
        x, y = step + dx, step + dy
        return a[x:x + boxes[t][0], y:y + boxes[t][1]]

    deltas = [mv.delta for mv, _ in moves]
    # the forward reach: cells a walk from the start holds at time t without
    # losing the end (left of x = n - r, the r edge moves to come fall short)
    live = [np.zeros(padded(t), dtype=bool) for t in range(T + 1)]
    # feasible passed, so T >= max(m, n): the start and the end lie in
    # their boxes
    box(live[0], 0)[start] = True
    for t in range(T):
        nxt = box(live[t + 1], t + 1)
        for dx, dy in deltas:
            nxt |= box(live[t], t + 1, -dx, -dy)
        if n > T - t - 1:
            nxt[:n - (T - t - 1)] = False
    states = 1 + sum(int(np.count_nonzero(a)) for a in live[1:])
    if not box(live[T], T)[end]:  # no walk: total 0
        return moves, states, iter(())

    def layers():
        layer = np.zeros(padded(T), dtype=object)
        box(layer, T)[end] = 1
        yield layer[step:, step:]
        for t in range(T - 1, -1, -1):
            live.pop()  # the mask of time t + 1, which no later layer reads
            prev, layer = layer, np.zeros(padded(t), dtype=object)
            dst, mask = box(layer, t), box(live[t], t)
            for (_, wt), (dx, dy) in zip(moves, deltas):
                src = box(prev, t, dx, dy)[mask]
                # a Fraction weight of 1 still makes the counts Fractions
                dst[mask] += src if wt == 1 and isinstance(wt, int) else wt * src
            yield layer[step:, step:]

    return moves, states, layers()


def build_count_table(w: FaceWeights, m: int, n: int, ell: int,
                      budget: int = DEFAULT_BUDGET) -> CountTable:
    """Layered quadrant DP for walks of ell-1 steps from (0, m) to (n, 0).

    Every layer is allocated once, on its box (see ``CountTable``) with a
    margin of zeros; the sum of the box sizes is checked against
    ``budget`` before any work is done.
    """
    moves, states, layers = _count_layers(w, m, n, ell, budget)
    rows = [layer.tolist() for layer in layers]
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
    return int(newest[0][0, m]) if newest else 0


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

    Small instances share one count table across draws, and each draw
    takes one ``randrange`` (see ``sample_from_table``); triangulations
    with boundaries (0,0) or (0,1) use the tableau sampler beyond 120 edges
    or past the table budget: exactly uniform at any size, and
    linear-time, with one ``randrange`` per edge.
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

