"""Samplers and the statistical layer.

Rejection sampling anchors boundary data exactly; free walks feed
infinite-volume statistics; the frontier tracer reads vertex degrees
straight off a walk; covariance reports compare empirical
increment structure against the zero-drift theory values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import sqrt

import numpy as np

from .errors import BipolarError, NoMapsError, RejectionBudgetError
from .rng import CounterRng
from .sewing import Frontier
from .walks import EDGE, FaceMove, LatticeWalk, Move
from .weights import (StepDistribution, TheoryStats, check_boundary, congruence,
                      theory_stats)


# -- step generation -------------------------------------------------------------


def _draw_moves(dist: StepDistribution, steps: int, rng: CounterRng) -> list[Move]:
    if dist.kind == "uniform":
        is_edge = rng.np.integers(0, 2, size=steps)
        iis = rng.np.geometric(0.5, size=steps) - 1
        jjs = rng.np.geometric(0.5, size=steps) - 1
        return [EDGE if e else FaceMove(int(i), int(j))
                for e, i, j in zip(is_edge, iis, jjs)]
    moves_probs = dist.finite_moves()
    moves = [mv for mv, _ in moves_probs]
    probs = np.array([p for _, p in moves_probs])
    probs = probs / probs.sum()
    idx = rng.np.choice(len(moves), size=steps, p=probs)
    return [moves[k] for k in idx]


def free_walk(dist: StepDistribution, steps: int, rng: CounterRng) -> LatticeWalk:
    """Unconditioned i.i.d. walk from the origin (may leave the quadrant)."""
    return LatticeWalk((0, 0), tuple(_draw_moves(dist, steps, rng)))


def _propose_batch(dist: StepDistribution, m: int, steps: int, size: int,
                   rng: CounterRng):
    if dist.kind == "uniform":
        is_edge = rng.np.integers(0, 2, size=(size, steps)).astype(bool)
        iis = rng.np.geometric(0.5, size=(size, steps)) - 1
        jjs = rng.np.geometric(0.5, size=(size, steps)) - 1
        dxs = np.where(is_edge, 1, -iis)
        dys = np.where(is_edge, -1, jjs)
    else:
        moves_probs = dist.finite_moves()
        probs = np.array([p for _, p in moves_probs])
        probs = probs / probs.sum()
        deltas = np.array([mv.delta for mv, _ in moves_probs])
        idx = rng.np.choice(len(moves_probs), size=(size, steps), p=probs)
        dxs = deltas[idx, 0]
        dys = deltas[idx, 1]
    return dxs, dys


def _row_walk(dxs, dys, row: int, m: int) -> LatticeWalk:
    moves = tuple(EDGE if (dx, dy) == (1, -1) else FaceMove(-dx, dy)
                  for dx, dy in zip(dxs[row].tolist(), dys[row].tolist()))
    return LatticeWalk((0, m), moves)


def rejection_sample_many(dist: StepDistribution, m: int, n: int, ell: int,
                          rng: CounterRng, count: int,
                          max_tries: int = 1_000_000) -> list[LatticeWalk]:
    """Accept ``count`` conditioned walks; proposals run in vectorized batches.

    Raises RejectionBudgetError carrying the observed acceptance rate when
    max_tries proposals do not yield enough accepted walks.
    """
    check_boundary(m, n, ell)
    if dist.kind != "uniform":
        ok, reason = congruence(dist.degrees(), m, n, ell)
        if not ok:
            raise NoMapsError(f"no such maps: {reason}")
    steps = ell - 1
    if steps == 0:
        if (0, m) != (n, 0):
            raise NoMapsError("no such maps: a single edge needs m = n = 0")
        return [LatticeWalk((0, m), ()) for _ in range(count)]
    out: list[LatticeWalk] = []
    tried = 0
    batch = 256
    while tried < max_tries and len(out) < count:
        size = min(batch, max_tries - tried)
        tried += size
        batch = min(batch * 4, 65536)
        dxs, dys = _propose_batch(dist, m, steps, size, rng)
        xs = np.cumsum(dxs, axis=1)
        ys = np.cumsum(dys, axis=1) + m
        good = ((xs.min(axis=1) >= 0) & (ys.min(axis=1) >= 0)
                & (xs[:, -1] == n) & (ys[:, -1] == 0))
        for row in np.flatnonzero(good):
            out.append(_row_walk(dxs, dys, int(row), m))
            if len(out) == count:
                break
    if len(out) < count:
        raise RejectionBudgetError(
            f"accepted only {len(out)} of {count} samples in {tried} tries "
            f"(ell={ell}, m={m}, n={n})", tries=tried, accepted=len(out))
    return out


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


WEST_TRIANGLE = FaceMove(1, 0)
EAST_TRIANGLE = FaceMove(0, 1)


def sample_simple_triangulation_walk(m: int, n: int, ell: int,
                                     rng: CounterRng,
                                     max_restarts: int = 1000) -> LatticeWalk:
    """Random walk encoding a simple triangulation, by steered construction.

    Each step picks uniformly among moves that keep the walk closable and
    would not create a parallel edge (a duplicate is always created by the
    move itself, so one ply of lookahead vetoes it).  The law is not the
    uniform one; use this for generating test instances, not statistics.
    Dead ends trigger a restart.
    """
    if ell < 2:
        raise BipolarError("need at least two edges for a simple map")
    steps = ell - 1
    for _ in range(max_restarts):
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
            tail, head, _ = frontier.push(mv)
            edges.add((tail, head))
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
    frontier = Frontier()
    indeg = [0, 1]
    outdeg = [1, 0]
    created = [0, 0]
    for t, (tail, head) in enumerate(frontier.replay(walk), start=1):
        new = frontier.n_vertices - len(indeg)
        if new:
            indeg.extend([0] * new)
            outdeg.extend([0] * new)
            created.extend([t] * new)
        outdeg[tail] += 1
        indeg[head] += 1
    return FrontierTrace(
        indegree=indeg, outdegree=outdeg, created_at=created,
        final_frontier=set(frontier.below) | set(frontier.above) | {frontier.active},
        n_moves=len(walk.moves))


def geometric_pmf(d: int, mean: float = 3.0) -> float:
    """P[D = d] for the geometric law starting at 1 with the given mean."""
    p = 1.0 / mean
    return p * (1.0 - p) ** (d - 1)


def tv_to_geometric(values: list[int], mean: float = 3.0) -> float:
    """Total-variation distance between an empirical degree law and geometric."""
    if not values:
        raise BipolarError("no degree observations")
    n = len(values)
    counts: dict[int, int] = {}
    for d in values:
        counts[d] = counts.get(d, 0) + 1
    p = 1.0 / mean
    tv = 0.0
    covered = 0.0
    for d, c in counts.items():
        pd = geometric_pmf(d, mean)
        tv += abs(c / n - pd)
        covered += pd
    tv += 1.0 - covered  # mass of never-observed degrees
    return 0.5 * tv


# -- covariance reporting ----------------------------------------------------------


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
    chi_square: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "n_steps": self.n_steps,
            "var_diff": self.var_diff,
            "var_sum": self.var_sum,
            "ratio": self.ratio,
            "ratio_ci_95": list(self.ratio_ci),
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
        if self.chi_square:
            out["chi_square"] = self.chi_square
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
            rows.append(("corr(in, out)", f"{self.degree_corr:+.4f}"))
        width = max(len(k) for k, _ in rows)
        return "\n".join(f"{k.ljust(width)}  {v}" for k, v in rows)


def covariance_report(walks: list[LatticeWalk], dist: StepDistribution | None = None,
                      rng: CounterRng | None = None,
                      bootstrap: int = 1000) -> StatReport:
    """Empirical increment covariance with a bootstrap CI on the variance ratio."""
    dxs, dys = [], []
    for w in walks:
        for mv in w.moves:
            dx, dy = mv.delta
            dxs.append(dx)
            dys.append(dy)
    n = len(dxs)
    if n < 2:
        raise BipolarError("degenerate sample: need at least two increments")
    dx = np.asarray(dxs, dtype=float)
    dy = np.asarray(dys, dtype=float)
    diff = dx - dy
    tot = dx + dy
    var_diff = float(diff.var())
    var_sum = float(tot.var())
    if var_sum == 0.0:
        raise BipolarError("degenerate sample: Var[X+Y] is zero")
    exx = float(((dx - dx.mean()) ** 2).mean())
    eyy = float(((dy - dy.mean()) ** 2).mean())
    exy = float(((dx - dx.mean()) * (dy - dy.mean())).mean())

    rng = rng or CounterRng(0)
    # the interval is taken over the resamples where the ratio is defined
    ratios = []
    for _ in range(bootstrap):
        idx = rng.np.integers(0, n, size=n)
        vs = tot[idx].var()
        if vs > 0:
            ratios.append(diff[idx].var() / vs)
    if not ratios:
        raise BipolarError("degenerate sample: Var[X+Y] is zero in every "
                           "bootstrap resample")
    lo, hi = np.quantile(ratios, [0.025, 0.975])
    return StatReport(
        n_steps=n,
        var_diff=var_diff,
        var_sum=var_sum,
        ratio=var_diff / var_sum,
        ratio_ci=(float(lo), float(hi)),
        cov=((exx, exy), (exy, eyy)),
        theory=theory_stats(dist) if dist is not None else None,
    )


def attach_degree_stats(report: StatReport, *traces: FrontierTrace,
                        eps: float = 0.05) -> StatReport:
    """Fill the degree section of a report from the pooled bulk vertices of traces."""
    pairs = [(trace.indegree[v], trace.outdegree[v])
             for trace in traces for v in trace.bulk_interior(eps)]
    if not pairs:
        raise BipolarError("no bulk interior vertices at this size")
    ins = [a for a, _ in pairs]
    outs = [b for _, b in pairs]
    report.degree_in_hist = _hist(ins)
    report.degree_out_hist = _hist(outs)
    report.degree_joint_hist = _hist(f"{a},{b}" for a, b in pairs)
    report.tv_in = tv_to_geometric(ins)
    report.tv_out = tv_to_geometric(outs)
    report.degree_corr = float(np.corrcoef(ins, outs)[0, 1])
    return report


def _hist(values):
    out = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


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
