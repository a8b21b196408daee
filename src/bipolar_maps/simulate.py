"""Samplers and the statistical layer.

Rejection sampling anchors boundary data exactly; free walks feed
infinite-volume statistics; the frontier tracer reads vertex degrees
straight off a walk; covariance reports compare empirical
increment structure against the zero-drift theory values.

Both walk samplers take their steps from one flat increment draw.  A free
walk is one draw of all its steps.  Rejection grows a batch of proposals
one step at a time, with one draw per step for the proposals still inside
the quadrant, so a proposal stops costing at its first step out.  Each
step is decoded from one raw Philox word (``CounterRng.words``) with
integer arithmetic, so the walks do not depend on numpy's distribution
code: the uniform law reads its edge bit and two runs of zero bits, and a
finite law compares the word with integer weights that sum to 2**64.  A
finite law's draw table is built once per sampler (``free_sampler``,
``rejection_sampler``), which serves every draw, and a law of more face
moves than ``errors.DEFAULT_BUDGET`` is refused before it is built.  The
uniform decode table is built once per process.

The covariance report draws nothing: its 95 % interval is the delta
method's closed form, taken from exact integer sums over the count vector
of the distinct increments, and the degree correlation is taken from
exact integer sums too.

numpy is imported inside the functions that compute with arrays (the
increment draws and rejection), so the frontier tracer, the covariance
and degree statistics and the interface export load without it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import copysign, floor, sqrt
from operator import attrgetter

from .errors import (DEFAULT_BUDGET, BipolarError, EnumerationBudgetError,
                     NoMapsError, RejectionBudgetError)
from .rng import _PREFIX, CounterRng
from .sewing import Frontier, walk_edges
from .walks import EDGE, LatticeWalk, Move, face_move, move_of
from .weights import (StepDistribution, TheoryStats, check_boundary, congruence,
                      theory_stats, walk_length)


# -- step generation -------------------------------------------------------------

_LOW_BITS = 16  # the uniform decode table covers a word's low 16 bits
_LOW_MASK = (1 << _LOW_BITS) - 1
_UNRESOLVED = -128  # its dy for a face word whose two runs do not end there
_WORDS = 1 << 64


@cache
def _uniform_table():
    """The (dx, dy) int8 tables of the uniform decode over a word's low 16
    bits: bit 0 set is the edge move; otherwise i and j are the lengths of
    the next two runs of zero bits, each ended by a set bit.  Built once
    per process."""
    import numpy as np
    low = np.arange(1 << _LOW_BITS, dtype=np.int32)

    def lowest_set(v):  # bit position, or _LOW_BITS where v == 0
        pos = np.full(v.shape, _LOW_BITS, dtype=np.int32)
        for b in range(_LOW_BITS - 1, -1, -1):
            pos[(v >> b) & 1 == 1] = b
        return pos

    rest = low >> 1
    i = lowest_set(rest)
    j = lowest_set(rest >> np.minimum(i + 1, _LOW_BITS))
    edge = (low & 1) == 1
    dx = np.where(edge, 1, -i)
    dy = np.where(edge, -1, np.where(j < _LOW_BITS, j, _UNRESOLVED))
    return dx.astype(np.int8), dy.astype(np.int8)


def _face_runs(word: int, rng) -> tuple[int, int]:
    """The two zero runs after a face word's edge bit.  A run that passes
    bit 63 reads on into the stream's next words."""
    bits, width = word >> 1, 63
    runs = []
    for _ in range(2):
        run = 0
        while not bits:
            run += width
            bits, width = int(rng.words(1)[0]), 64
        low = (bits & -bits).bit_length() - 1
        runs.append(run + low)
        bits >>= low + 1
        width -= low + 1
    return runs[0], runs[1]


def _word_cuts(lengths, probs):
    """Integer weights for a finite law's moves that sum to exactly 2**64,
    as (kept, cuts): the indices of the moves of positive weight, and the
    running sums of their weights but the last, so that a word w draws
    kept[searchsorted(cuts, w, side="right")].

    The moves come in runs, ``lengths[r]`` moves of probability
    ``probs[r]`` each.  The weights are the float probabilities, normalised
    exactly, times 2**64, rounded by largest remainder: each is the floor
    of its exact share, and the words left over go one each to the moves
    of largest remainder, the earlier move first on a tie.  A run (the
    k - 1 moves of a k-gon) shares its arithmetic, so a law of many face
    moves and few degrees costs a few passes over them.
    """
    import numpy as np
    starts = list(accumulate(lengths, initial=0))
    exact = [Fraction(p) for p in probs]
    total = sum(n * p for n, p in zip(lengths, exact))
    shares = [p * _WORDS / total for p in exact]
    floors = [floor(x) for x in shares]
    left = _WORDS - sum(n * w for n, w in zip(lengths, floors))
    # runs are intervals of moves, so runs by remainder, then by start, list
    # the moves by remainder, then by index: the first `left` take one more
    more = [0] * len(lengths)
    for r in sorted(range(len(lengths)), key=lambda r: (floors[r] - shares[r], r)):
        if not left:
            break
        more[r] = min(lengths[r], left)
        left -= more[r]
    # (first move, moves, weight): each run's moves with one more word, then
    # the rest, leaving out the empty pieces and those of weight 0
    pieces = []
    for start, length, w, m in zip(starts, lengths, floors, more):
        pieces += [(start, m, w + 1), (start + m, length - m, w)]
    pieces = [(start, n, w) for start, n, w in pieces if n and w]
    kept = np.concatenate([np.arange(start, start + n) for start, n, _ in pieces])
    # a lone move weighs 2**64, which is 0 in uint64: its cuts are empty
    weights = np.repeat(np.array([w % _WORDS for _, _, w in pieces], dtype=np.uint64),
                        [n for _, n, _ in pieces])
    return kept, np.cumsum(weights)[:-1]


def _increment_draw(dist: StepDistribution):
    """The law's draw(count, rng) of ``count`` i.i.d. increments, as flat
    (dx, dy) arrays decoded from ``rng.words``.  A finite law's table of
    moves is built here, once, as arrays from its runs of moves
    (``StepDistribution.move_runs``), with no object per move; raises
    EnumerationBudgetError if it would hold more face moves than
    ``DEFAULT_BUDGET``.

    A uniform step is one word: bit 0 is the edge bit, and a face move's
    i and j are the lengths of the next two runs of zero bits, so
    P(E) = 1/2 and P(F(i, j)) = 2^-(i+j+3) exactly.  A run that passes bit
    63 reads on into the words after the draw's, in step order.  A finite
    step is one word, drawn against the integer weights of ``_word_cuts``.
    """
    import numpy as np
    if dist.kind == "uniform":
        dx_table, dy_table = _uniform_table()

        def draw(count, rng):
            words = rng.words(count)
            low = words.view(np.int64) & _LOW_MASK  # an index-typed gather is faster
            dxs, dys = dx_table[low], dy_table[low]
            if count and dys.min() == _UNRESOLVED:
                far = np.flatnonzero(dys == _UNRESOLVED)
                dxs, dys = dxs.astype(np.int64), dys.astype(np.int64)
                for k in far.tolist():
                    i, j = _face_runs(int(words[k]), rng)
                    dxs[k], dys[k] = -i, j
            return dxs, dys
        return draw
    faces = sum(k - 1 for k in dist.face_probs)  # 0 for a direct law: it lists its moves
    if faces > DEFAULT_BUDGET:
        raise EnumerationBudgetError(
            f"draw table too large: the step law has {faces} face moves, "
            f"budget is {DEFAULT_BUDGET}", faces, DEFAULT_BUDGET)
    dxs, dys, lengths, probs = zip(*dist.move_runs())
    kept, cuts = _word_cuts(lengths, probs)
    # the t-th move of run r steps by (dx_r - t, dy_r - t)
    run = np.repeat(np.arange(len(lengths)), lengths)[kept]
    t = kept - np.array(list(accumulate(lengths, initial=0)))[run]
    dx_table = np.array(dxs, dtype=np.int64)[run] - t
    dy_table = np.array(dys, dtype=np.int64)[run] - t

    def draw(count, rng):
        idx = np.searchsorted(cuts, rng.words(count), side="right")
        return dx_table[idx], dy_table[idx]
    return draw


def _walk(start: tuple[int, int], dxs, dys) -> LatticeWalk:
    return LatticeWalk(start, tuple(map(move_of, dxs, dys)))


def free_sampler(dist: StepDistribution, steps: int):
    """The draw(rng) of unconditioned i.i.d. walks of ``steps`` steps from
    the origin (they may leave the quadrant).  The law's draw table is
    built here, once, for every draw."""
    draw = _increment_draw(dist)

    def sample(rng: CounterRng) -> LatticeWalk:
        dxs, dys = draw(steps, rng)
        return _walk((0, 0), dxs.tolist(), dys.tolist())
    return sample


def free_walk(dist: StepDistribution, steps: int, rng: CounterRng) -> LatticeWalk:
    """Unconditioned i.i.d. walk from the origin (may leave the quadrant)."""
    return free_sampler(dist, steps)(rng)


def rejection_sampler(dist: StepDistribution, m: int, n: int, ell: int,
                      max_tries: int = 1_000_000):
    """The draw(rng, count) of ``count`` conditioned walks from batches of
    proposals; the boundary data are checked and the law's draw table is
    built here, once, for every draw.

    A batch grows its proposals one step at a time: each step draws one
    increment for every proposal still inside the quadrant and drops those
    that leave it, so a proposal costs no draw after its first step out.
    After the last step the proposals that end at (n, 0) are accepted in
    batch order.  Every proposal counts as a try however early it is
    dropped.  Boundary data that fail ``weights.walk_length`` (or, for a
    finite law, the congruence) raise NoMapsError before any proposal.
    A draw raises RejectionBudgetError carrying the observed acceptance
    rate when max_tries proposals do not yield enough accepted walks.
    """
    import numpy as np
    check_boundary(m, n, ell)
    ok, reason = walk_length(m, n, ell)
    if ok and dist.kind != "uniform":
        ok, reason = congruence(dist.degrees(), m, n, ell)
    if not ok:
        raise NoMapsError(f"no such maps: {reason}")
    steps = ell - 1
    if steps == 0:
        return lambda rng, count: [LatticeWalk((0, m), ()) for _ in range(count)]
    draw = _increment_draw(dist)

    def sample(rng: CounterRng, count: int) -> list[LatticeWalk]:
        out: list[LatticeWalk] = []
        tried = 0
        batch = 256
        while tried < max_tries and len(out) < count:
            size = min(batch, max_tries - tried)
            tried += size
            batch = min(batch * 4, 65536)
            # rows: the proposals still inside, by batch index; history: for
            # each step, the rows that took it and their increments
            rows = np.arange(size)
            xs = np.zeros(size, dtype=np.int64)
            ys = np.full(size, m, dtype=np.int64)
            history = []
            for _ in range(steps):
                dxs, dys = draw(len(rows), rng)
                history.append((rows, dxs, dys))
                xs += dxs
                ys += dys
                inside = (xs >= 0) & (ys >= 0)
                rows, xs, ys = rows[inside], xs[inside], ys[inside]
                if not len(rows):
                    break
            done = rows[(xs == n) & (ys == 0)][:count - len(out)]
            # rows only shrink, so each step's rows are sorted and hold `done`
            walk_dxs = np.empty((len(done), steps), dtype=np.int64)
            walk_dys = np.empty_like(walk_dxs)
            for t, (took, dxs, dys) in enumerate(history):
                at = np.searchsorted(took, done)
                walk_dxs[:, t], walk_dys[:, t] = dxs[at], dys[at]
            out += [_walk((0, m), dx, dy)
                    for dx, dy in zip(walk_dxs.tolist(), walk_dys.tolist())]
        if len(out) < count:
            raise RejectionBudgetError(
                f"accepted only {len(out)} of {count} samples in {tried} tries "
                f"(ell={ell}, m={m}, n={n})", tries=tried, accepted=len(out))
        return out
    return sample


def rejection_sample_many(dist: StepDistribution, m: int, n: int, ell: int,
                          rng: CounterRng, count: int,
                          max_tries: int = 1_000_000) -> list[LatticeWalk]:
    """Accept ``count`` conditioned walks: one draw of ``rejection_sampler``."""
    return rejection_sampler(dist, m, n, ell, max_tries)(rng, count)


def rejection_sample(dist: StepDistribution, m: int, n: int, ell: int,
                     rng: CounterRng, max_tries: int = 1_000_000) -> LatticeWalk:
    """Exact conditioned sample: i.i.d. steps accepted on quadrant + endpoint."""
    return rejection_sample_many(dist, m, n, ell, rng, 1, max_tries)[0]


def closable_triangulation(x: int, y: int, n: int, r: int) -> bool:
    """Can a triangulation walk go from (x, y) to (n, 0) in r quadrant steps?

    With steps (1,-1), (-1,0), (0,1): r must exceed 2y + x - n by a
    nonnegative multiple of 3, and there must be enough moves to reach
    column n; both conditions together are exact.
    """
    need = 2 * y + x - n
    if r < need or (r - need) % 3 != 0:
        return False
    c = (r - need) // 3
    return x + y + c >= n


WEST_TRIANGLE = face_move(1, 0)
EAST_TRIANGLE = face_move(0, 1)


def sample_simple_triangulation_walk(m: int, n: int, ell: int,
                                     rng: CounterRng) -> LatticeWalk:
    """Random walk encoding a simple triangulation, by steered construction.

    Each step picks uniformly among moves that keep the walk closable and
    would not create a parallel edge (a duplicate is always created by the
    move itself, so one ply of lookahead vetoes it).  The law is not the
    uniform one; use this for generating test instances, not statistics.
    Dead ends trigger a restart, up to 1000 attempts.
    """
    if ell < 2:
        raise BipolarError("need at least two edges for a simple map")
    steps = ell - 1
    if steps > _PREFIX:  # a word a step, more than the stream's pure-Python prefix
        rng.np
    for _ in range(1000):
        frontier = Frontier()
        edges = {(0, 1)}
        x, y = 0, m
        moves: list[Move] = []
        for t in range(steps):
            r = steps - t - 1
            options: list[Move] = []
            # the frontier holds x + 1 vertices below the active one, so
            # x >= 1 keeps edge_of(WEST_TRIANGLE) inside the quadrant
            if (y >= 1 and closable_triangulation(x + 1, y - 1, n, r)
                    and frontier.edge_of(EDGE) not in edges):
                options.append(EDGE)
            if (x >= 1 and closable_triangulation(x - 1, y, n, r)
                    and frontier.edge_of(WEST_TRIANGLE) not in edges):
                options.append(WEST_TRIANGLE)
            if closable_triangulation(x, y + 1, n, r):
                options.append(EAST_TRIANGLE)
            if not options:
                break
            mv = options[rng.randrange(len(options))]
            moves.append(mv)
            edges.add(frontier.push(mv))
            dx, dy = mv.delta
            x += dx
            y += dy
        if len(moves) == steps and (x, y) == (n, 0):
            return LatticeWalk((0, m), tuple(moves))
    raise BipolarError("could not steer a simple triangulation at this size")


# -- frontier degree tracing ------------------------------------------------------


@dataclass
class FrontierTrace:
    """Per-vertex degrees from replaying a walk's frontier.

    Vertex k is the k-th vertex ever created, matching the sewing
    construction exactly; ``created_at`` is the move that created it.
    """

    indegree: list[int]
    outdegree: list[int]
    created_at: list[int]
    final_frontier: set[int]
    n_moves: int

    def bulk_interior(self, eps: float = 0.05) -> list[int]:
        """Vertices created away from both walk ends and not on the boundary."""
        lo = eps * self.n_moves
        hi = (1.0 - eps) * self.n_moves
        return [v for v in range(len(self.indegree))
                if lo <= self.created_at[v] <= hi and v not in self.final_frontier]


def degrees_from_walk(walk: LatticeWalk) -> FrontierTrace:
    """Replay the frontier of a quadrant walk; exact in- and out-degrees.

    Every face move is supported; a walk that is not a closed bipolar code
    raises NotBipolarCodeError, as in ``walk_to_map``.
    """
    frontier, _, heads, outdeg, indeg = walk_edges(walk)
    # a move that creates vertices makes the newest of them its head
    created: list[int] = []
    for t, h in enumerate(heads):
        if h >= len(created):
            created += [t] * (h + 1 - len(created))
    return FrontierTrace(
        indegree=indeg, outdegree=outdeg, created_at=created,
        final_frontier=set(frontier.below) | set(frontier.above) | {frontier.active},
        n_moves=len(walk.moves))


def geometric_pmf(d: int) -> float:
    """P[D = d] for the geometric law starting at 1 with mean 3."""
    p = 1.0 / 3.0
    return p * (1.0 - p) ** (d - 1)


def tv_to_geometric(values: list[int]) -> float:
    """Total-variation distance between an empirical degree law and geometric(3)."""
    if not values:
        raise BipolarError("no degree observations")
    n = len(values)
    tv = 0.0
    covered = 0.0
    for d, c in Counter(values).items():
        pd = geometric_pmf(d)
        tv += abs(c / n - pd)
        covered += pd
    tv += 1.0 - covered  # mass of never-observed degrees
    return 0.5 * tv


# -- covariance reporting ----------------------------------------------------------

_Z95 = 1.959963984540054  # the standard normal's 97.5 % quantile


def _comoments(counts: Counter) -> tuple[int, ...]:
    """For a nonempty count of int pairs (x, y), exactly: n, the sums of x
    and of y, and n^2 times Var[X], Var[Y] and Cov[X, Y]."""
    n, sx, sy, sxx, syy, sxy = map(sum, zip(*(
        (c, c * x, c * y, c * x * x, c * y * y, c * x * y) for (x, y), c in counts.items())))
    return n, sx, sy, n * sxx - sx * sx, n * syy - sy * sy, n * sxy - sx * sy


@dataclass
class StatReport:
    """Empirical increment statistics with optional theory comparison."""

    n_steps: int
    var_diff: float
    var_sum: float
    ratio: float
    ratio_ci: tuple[float, float]
    cov: tuple[tuple[float, float], tuple[float, float]]
    theory: TheoryStats | None = None
    degree_in_hist: dict[int, int] = field(default_factory=dict)
    degree_out_hist: dict[int, int] = field(default_factory=dict)
    degree_joint_hist: dict[str, int] = field(default_factory=dict)
    tv_in: float | None = None
    tv_out: float | None = None
    degree_corr: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "n_steps": self.n_steps,
            "var_diff": self.var_diff,
            "var_sum": self.var_sum,
            "ratio": self.ratio,
            "ratio_ci_95": list(self.ratio_ci),
            "ratio_ci_method": "iid_increments",
            "cov": [list(r) for r in self.cov],
        }
        if self.theory is not None:
            out["theory"] = {
                "var_diff": self.theory.var_diff,
                "var_sum": self.theory.var_sum,
                "ratio": self.theory.ratio,
                "cov": [list(r) for r in self.theory.cov],
            }
        if self.tv_in is not None:
            out["degrees"] = {
                "in_hist": {str(k): v for k, v in sorted(self.degree_in_hist.items())},
                "out_hist": {str(k): v for k, v in sorted(self.degree_out_hist.items())},
                "joint_hist": dict(sorted(self.degree_joint_hist.items())),
                "tv_in_vs_geometric3": self.tv_in,
                "tv_out_vs_geometric3": self.tv_out,
                "in_out_correlation": self.degree_corr,
            }
        return out

    def human_table(self) -> str:
        rows = [
            ("steps", f"{self.n_steps}"),
            ("Var[X-Y]", f"{self.var_diff:.6f}"),
            ("Var[X+Y]", f"{self.var_sum:.6f}"),
            ("ratio", f"{self.ratio:.6f}"),
            ("ratio 95% CI", f"[{self.ratio_ci[0]:.4f}, {self.ratio_ci[1]:.4f}]"),
            ("cov[xx xy]", f"{self.cov[0][0]:+.6f} {self.cov[0][1]:+.6f}"),
            ("cov[yx yy]", f"{self.cov[1][0]:+.6f} {self.cov[1][1]:+.6f}"),
        ]
        if self.theory is not None:
            rows.append(("theory ratio", f"{self.theory.ratio:.6f}"))
            rows.append(("theory Var[X-Y]", f"{self.theory.var_diff:.6f}"))
            rows.append(("theory Var[X+Y]", f"{self.theory.var_sum:.6f}"))
        if self.tv_in is not None:
            rows.append(("TV(in, geom mean 3)", f"{self.tv_in:.4f}"))
            rows.append(("TV(out, geom mean 3)", f"{self.tv_out:.4f}"))
            rows.append(("corr(in, out)", "-" if self.degree_corr is None
                         else f"{self.degree_corr:+.4f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def covariance_report(walks: list[LatticeWalk], dist: StepDistribution | None = None,
                      rng: CounterRng | None = None,
                      bootstrap: int = 1000) -> StatReport:
    """Empirical increment covariance with a delta-method 95 % interval on
    the variance ratio R = Var[X-Y] / Var[X+Y].

    The interval ("iid_increments") treats the increments as i.i.d.: R is
    a smooth function of the first two moments of (X-Y, X+Y), so it is
    R +- z * sqrt(Var psi / n) for the influence function
    psi(d, s) = ((d - d')^2 - V_d - R((s - s')^2 - V_s)) / V_s (van der
    Vaart, *Asymptotic Statistics*, 1998, ch. 3).  Every moment is an
    exact integer sum over the count vector of the distinct increments, and
    each float is made once, at the end.  That holds for free walks
    (``--method free``); the increments of a walk conditioned on its end
    point are dependent, so there it is only indicative.  ``rng`` and
    ``bootstrap`` are accepted and unused, so callers that pass them keep
    working.
    """
    counts: Counter = Counter()
    for w in walks:
        counts.update(map(attrgetter("delta"), w.moves))
    if counts.total() < 2:
        raise BipolarError("degenerate sample: need at least two increments")
    n, sx, sy, nxx, nyy, nxy = _comoments(counts)
    nd, ns = nxx + nyy - 2 * nxy, nxx + nyy + 2 * nxy  # n^2 V_d, n^2 V_s
    if ns == 0:
        raise BipolarError("degenerate sample: Var[X+Y] is zero")
    # with a = n(d - d'), b = n(s - s'): psi = (ns a^2 - nd b^2) / ns^2, so
    # Var psi / n = q / (n^2 ns^4)
    sd, ss = sx - sy, sx + sy
    q = sum(c * (ns * (n * (dx - dy) - sd) ** 2 - nd * (n * (dx + dy) - ss) ** 2) ** 2
            for (dx, dy), c in counts.items())
    nn = n * n
    ratio = nd / ns
    half = _Z95 * sqrt(q / (nn * ns ** 4))
    return StatReport(
        n_steps=n,
        var_diff=nd / nn,
        var_sum=ns / nn,
        ratio=ratio,
        ratio_ci=(ratio - half, ratio + half),
        cov=((nxx / nn, nxy / nn), (nxy / nn, nyy / nn)),
        theory=theory_stats(dist) if dist is not None else None,
    )


def attach_degree_stats(report: StatReport, *traces: FrontierTrace,
                        eps: float = 0.05) -> StatReport:
    """Fill the degree section of a report from the pooled bulk vertices of traces."""
    ins: list[int] = []
    outs: list[int] = []
    for trace in traces:
        bulk = trace.bulk_interior(eps)
        ins += map(trace.indegree.__getitem__, bulk)
        outs += map(trace.outdegree.__getitem__, bulk)
    if not ins:
        raise BipolarError("no bulk interior vertices at this size")
    report.degree_in_hist = dict(sorted(Counter(ins).items()))
    report.degree_out_hist = dict(sorted(Counter(outs).items()))
    joint = Counter(zip(ins, outs))
    report.degree_joint_hist = dict(sorted(("{},{}".format(*k), c) for k, c in joint.items()))
    report.tv_in = tv_to_geometric(ins)
    report.tv_out = tv_to_geometric(outs)
    # degrees of one value on a side have no variance: no correlation, not NaN
    *_, vi, vo, cio = _comoments(joint)
    report.degree_corr = copysign(sqrt(cio * cio / (vi * vo)), cio) if vi and vo else None
    return report


# -- scaled interface export --------------------------------------------------------


def interface_export(walk: LatticeWalk, grid_points: int) -> list[tuple[float, float, float]]:
    """Sample the rescaled interface functions on a uniform grid in [0, 1].

    Row (t, X/sqrt(l), Y/sqrt(l)) uses the walk point with index floor(l*t),
    clamped to the last point; l counts the encoded map's edges.
    """
    if grid_points < 2:
        raise ValueError("need at least two grid points")
    pts = walk.points()
    ell = len(pts)  # edges of the encoded map
    scale = sqrt(ell)
    rows = []
    for g in range(grid_points):
        t = g / (grid_points - 1)
        k = min(int(ell * t), ell - 1)
        rows.append((t, pts[k][0] / scale, pts[k][1] / scale))
    return rows


def interface_csv(rows: list[tuple[float, float, float]]) -> str:
    lines = ["t,x,y"]
    for t, x, y in rows:
        lines.append(f"{t:.12g},{x:.12g},{y:.12g}")
    return "\n".join(lines) + "\n"
