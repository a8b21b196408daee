"""Face-weight calculus and the induced step distribution.

Weights ``a_k >= 0`` per face degree ``k`` turn into a zero-drift step
distribution: ``lambda`` solves ``sum (k-1)(k-2)/2 * a_k * lambda^k = 1``,
``C = lambda^-2 + sum (k-1) a_k lambda^(k-2)`` normalizes, the edge move
gets probability ``lambda^-2 / C`` and each of the ``k-1`` face moves of a
k-gon gets ``a_k lambda^(k-2) / C``.  Finite supports are kept exact as
Fractions.  The all-ones family is given in closed form: lambda = 1/2,
C = 8, P(E) = 1/2 and P(F(i, j)) = 2^-(i+j+3), so Var[X-Y] = 6 and
Var[X+Y] = 2 (Kenyon-Miller-Sheffield-Wilson).  A direct step
distribution can also be supplied, bypassing weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, isclose

from .errors import BipolarError, NoZeroDriftError
from .walks import EDGE, FaceMove, Move, _as_int, _content_lines, face_move, move_of


@dataclass(frozen=True)
class FaceWeights:
    """Nonnegative weights per face degree; ``uniform`` means all ones."""

    support: dict[int, Fraction] = field(default_factory=dict)
    uniform: bool = False

    def __post_init__(self):
        if self.uniform:
            if self.support:
                raise ValueError("uniform weights take no explicit support")
            return
        clean = {}
        for k, a in self.support.items():
            # int() would read degree 3.5 as 3
            k = _as_int(k, "face degree")
            if k < 2:
                raise ValueError(f"face degree {k} < 2")
            try:
                a = Fraction(a)
            except OverflowError:  # Fraction(nan) raises ValueError itself
                raise ValueError(f"weight {a} for degree {k} is not finite") from None
            if a < 0:
                raise ValueError(f"negative weight for degree {k}")
            if a > 0:
                clean[k] = a
        if not any(k >= 3 for k in clean):
            raise ValueError("need a positive weight on some face degree >= 3")
        object.__setattr__(self, "support", clean)

    def degrees(self) -> list[int]:
        if self.uniform:
            raise BipolarError("uniform weights have unbounded support")
        return sorted(self.support)

    def moves(self, most: int) -> list[tuple[Move, Fraction]]:
        """Every allowed move with its face weight (edge move has weight 1),
        save the face moves F(i, j) with i or j above ``most``.

        A walk of ``most`` steps takes none of those: x never passes the
        number of steps taken, and y must come back down by edge moves.
        The order is fixed: the edge move, then face moves by degree, then
        by i.  Walks are enumerated and drawn in this order, so the pinned
        digests depend on it.
        """
        out: list[tuple[Move, Fraction]] = [(EDGE, Fraction(1))]
        for k in self.degrees():
            a = self.support[k]
            for i in range(max(0, k - 2 - most), min(k - 2, most) + 1):
                out.append((face_move(i, k - 2 - i), a))
        return out


def preset_weights(name: str) -> FaceWeights:
    """Built-in families: tri, quad, uniform, kgon:K."""
    if name == "tri":
        return FaceWeights({3: Fraction(1)})
    if name == "quad":
        return FaceWeights({4: Fraction(1)})
    if name == "uniform":
        return FaceWeights(uniform=True)
    if name.startswith("kgon:"):
        k = int(name.split(":", 1)[1])
        return FaceWeights({k: Fraction(1)})
    raise ValueError(f"unknown weights preset: {name!r}")


def weights_from_text(text: str) -> FaceWeights:
    """Parse a weights config: lines "k a_k", or the single keyword "uniform"."""
    support: dict[int, Fraction] = {}
    uniform = False
    for raw, line in _content_lines(text):
        if line == "uniform":
            uniform = True
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"bad weights line: {raw!r}")
        k = int(parts[0])
        if k in support:
            raise ValueError(f"face degree {k} is given twice: {raw!r}")
        try:
            support[k] = Fraction(parts[1])
        except ZeroDivisionError as exc:
            raise ValueError(f"weight with zero denominator: {raw!r}") from exc
    if uniform:
        if support:
            raise ValueError("'uniform' cannot be combined with explicit weights")
        return FaceWeights(uniform=True)
    return FaceWeights(support)


# -- lambda and the step distribution -----------------------------------------


def _drift_sum(w: FaceWeights, lam: float) -> float:
    """sum over k of (k-1)(k-2)/2 * a_k * lambda^k, for a finite support."""
    return sum(float(a) * (k - 1) * (k - 2) / 2.0 * lam ** k
               for k, a in w.support.items())


def solve_lambda(w: FaceWeights) -> float:
    """Solve the zero-drift equation by bisection on its monotone left side.

    The all-ones family has the root 1/2: its drift sum is
    lambda^3 / (1 - lambda)^3.  Otherwise returns lambda in (0, R] with
    |1 - drift_sum(lambda)| <= 1e-12, or 1e-9 where float bisection cannot
    get closer.  Raises NoZeroDriftError when the equation has no root in
    (0, R], when the drift sum is not a number there, or when the root lies
    between two adjacent floats and neither meets 1e-9.
    """
    if w.uniform:
        return 0.5
    tol = 1e-12
    lo, hi = tol, 1.0
    while _drift_sum(w, hi) < 1.0:
        hi *= 2.0
        if hi > 1e12:
            raise NoZeroDriftError("no zero-drift distribution exists")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if _drift_sum(w, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    lam = hi
    # written so that a NaN drift sum fails it
    if not abs(1.0 - _drift_sum(w, lam)) <= tol:
        lam = 0.5 * (lo + hi)
    drift = _drift_sum(w, lam)
    if drift != drift:
        raise NoZeroDriftError(
            f"no zero-drift distribution: the drift sum is NaN at lambda={lam}")
    if not abs(1.0 - drift) <= 1e-9:
        # lo and hi are adjacent floats, the root between them
        raise NoZeroDriftError(
            f"no zero-drift distribution in floats: the root lies within a "
            f"float step of lambda={hi}, where the drift sum jumps from "
            f"{_drift_sum(w, lo)} to {_drift_sum(w, hi)}")
    return lam


@dataclass(frozen=True)
class StepDistribution:
    """Zero-drift move distribution: an edge move plus face moves per degree."""

    kind: str                    # "finite", "uniform", or "direct"
    lam: float
    norm: float                  # the constant C
    p_edge: float
    face_probs: dict[int, float]           # k -> probability of each single (i,j) move
    direct: dict[tuple[int, int], float]   # only for kind="direct"

    def prob_of_move(self, mv: Move) -> float:
        if isinstance(mv, FaceMove):
            if self.kind == "direct":
                return self.direct.get(mv.delta, 0.0)
            if self.kind == "uniform":
                return self.lam ** (mv.i + mv.j) / self.norm
            return self.face_probs.get(mv.degree, 0.0)
        if self.kind == "direct":
            return self.direct.get((1, -1), 0.0)
        return self.p_edge

    def degrees(self) -> list[int]:
        """Face degrees with positive probability; rejects the uniform family."""
        if self.kind == "finite":
            return sorted(self.face_probs)
        return sorted({mv.degree for mv, _ in self.finite_moves()
                       if isinstance(mv, FaceMove)})

    def move_runs(self) -> list[tuple[int, int, int, float]]:
        """The law's table of moves as runs (dx, dy, n, p): n moves of
        probability p each, the t-th of them stepping by (dx - t, dy - t).

        A finite law lists the edge move, then one run per face degree k,
        its k - 1 moves F(i, k - 2 - i) in order of i; a direct law lists
        its moves by increment, each a run of one.  Rejects the uniform
        family.
        """
        if self.kind == "uniform":
            raise BipolarError("uniform family has infinitely many moves")
        if self.kind == "direct":
            return [(dx, dy, 1, p) for (dx, dy), p in sorted(self.direct.items())]
        return [(1, -1, 1, self.p_edge)] + [(0, k - 2, k - 1, p)
                                             for k, p in sorted(self.face_probs.items())]

    def finite_moves(self) -> list[tuple[Move, float]]:
        """All moves with positive probability, in the order of
        ``move_runs``; rejects the uniform family."""
        return [(move_of(dx - t, dy - t), p)
                for dx, dy, n, p in self.move_runs() for t in range(n)]


def period(w: FaceWeights) -> int:
    """gcd of {k : a_2k > 0} and the odd supported degrees >= 3."""
    return 1 if w.uniform else _period(w.support)


def _period(degrees) -> int:
    if not degrees:
        raise BipolarError("empty face-weight support")
    g = 0
    for k in degrees:
        g = gcd(g, k // 2 if k % 2 == 0 else k)
    return g


def feasible(w: FaceWeights, m: int, n: int, ell: int) -> tuple[bool, str]:
    """Necessary existence conditions for maps with these boundary data.

    Passing is necessary, not sufficient; exact counts settle small sizes.
    """
    check_boundary(m, n, ell)
    ok, reason = walk_length(m, n, ell)
    if not ok:
        return ok, reason
    if w.uniform:
        return True, "necessary conditions pass (period 1)"
    return congruence(w.support, m, n, ell)


def check_boundary(m: int, n: int, ell: int) -> None:
    """Reject boundary data off the quadrant: need m, n >= 0 and ell >= 1."""
    if m < 0 or n < 0 or ell < 1:
        raise ValueError("need m, n >= 0 and ell >= 1")


def walk_length(m: int, n: int, ell: int) -> tuple[bool, str]:
    """Are ell - 1 steps enough to go from (0, m) to (n, 0), whatever the faces?

    Only the edge move (1, -1) raises x or lowers y, each by one, and a
    face move (-i, j) has i, j >= 0; so a walk needs at least max(m, n)
    edge moves, and ``ell - 1 >= max(m, n)``.
    """
    if ell - 1 < max(m, n):
        return False, (f"a walk from (0, {m}) to ({n}, 0) needs at least "
                       f"{max(m, n)} edge moves, more than ell-1 = {ell - 1}")
    return True, "necessary conditions pass"


def congruence(degrees, m: int, n: int, ell: int) -> tuple[bool, str]:
    """The walk-period congruence for maps whose faces have these degrees.

    It is applied in its sharp per-parity form: with period b, a walk needs
    ``ell - 1 = (m + n)/2 mod b`` when m + n is even, and
    ``ell - 1 = (m + n + k)/2 mod b`` for an odd supported degree k
    otherwise.  (For odd b this is equivalent to ``2(ell-1) = m+n mod b``.)
    """
    b = _period(degrees)
    odd_degrees = [k for k in degrees if k % 2 == 1]
    if (m + n) % 2 == 1:
        if not odd_degrees:
            return False, "m+n is odd and all face degrees are even"
        target = (m + n + odd_degrees[0]) // 2
    else:
        target = (m + n) // 2
    if (ell - 1 - target) % b != 0:
        return False, (f"congruence fails: ell-1 = {ell - 1} is not "
                       f"{target % b} mod {b}")
    return True, "necessary conditions pass"


def step_distribution(w: FaceWeights) -> StepDistribution:
    """Build the zero-drift step distribution for the given weights."""
    lam = solve_lambda(w)
    if w.uniform:
        # sum over k >= 2 of (k-1) lambda^(k-2) is 1/(1-lambda)^2: C = 4 + 4
        norm = lam ** -2 + 1.0 / (1.0 - lam) ** 2
        return StepDistribution(
            kind="uniform", lam=lam, norm=norm, p_edge=lam ** -2 / norm,
            face_probs={}, direct={})
    norm = lam ** -2 + sum(float(a) * (k - 1) * lam ** (k - 2)
                           for k, a in w.support.items())
    p_edge = lam ** -2 / norm
    face_probs = {k: float(a) * lam ** (k - 2) / norm
                  for k, a in w.support.items()}
    dist = StepDistribution(
        kind="finite", lam=lam, norm=norm, p_edge=p_edge,
        face_probs=face_probs, direct={})
    _check_distribution(dist)
    return dist


def direct_distribution(probs: dict[tuple[int, int], float]) -> StepDistribution:
    """A step distribution given move by move, bypassing face weights.

    Validates legality of the increments, normalization, zero drift, and
    symmetry under reflection about the antidiagonal (x, y) -> (-y, -x).
    """
    clean = {}
    for (dx, dy), p in probs.items():
        # int(-1.2) would turn a law it should refuse into another one
        dx, dy = _as_int(dx, "step dx"), _as_int(dy, "step dy")
        if p < 0:
            raise ValueError("negative probability")
        if p == 0:
            continue
        if (dx, dy) != (1, -1) and not (dx <= 0 <= dy):
            raise ValueError(f"not a legal increment: ({dx}, {dy})")
        clean[(dx, dy)] = float(p)
    total = sum(clean.values())
    if not isclose(total, 1.0, abs_tol=1e-9):
        raise ValueError(f"probabilities sum to {total}, not 1")
    ex = sum(dx * p for (dx, _), p in clean.items())
    ey = sum(dy * p for (_, dy), p in clean.items())
    if abs(ex) > 1e-9 or abs(ey) > 1e-9:
        raise ValueError(f"drift ({ex}, {ey}) is not zero")
    for (dx, dy), p in clean.items():
        q = clean.get((-dy, -dx), 0.0)
        if not isclose(p, q, abs_tol=1e-9):
            raise ValueError("not symmetric under reflection about y = -x")
    dist = StepDistribution(
        kind="direct", lam=float("nan"), norm=float("nan"),
        p_edge=clean.get((1, -1), 0.0), face_probs={}, direct=clean)
    return dist


def direct_distribution_from_text(text: str) -> StepDistribution:
    """Parse direct-step config: lines "dx dy prob"."""
    probs: dict[tuple[int, int], float] = {}
    for raw, line in _content_lines(text):
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"bad step line: {raw!r}")
        step = (int(parts[0]), int(parts[1]))
        if step in probs:
            raise ValueError(f"step {step} is given twice: {raw!r}")
        probs[step] = float(parts[2])
    return direct_distribution(probs)


def _check_distribution(dist: StepDistribution) -> None:
    """Normalization and zero drift of a finite law, in floats."""
    total = dist.p_edge + sum((k - 1) * p for k, p in dist.face_probs.items())
    if not isclose(total, 1.0, abs_tol=1e-9):
        raise BipolarError(f"step probabilities sum to {total}")
    # sum over the k-1 moves of a k-gon: dx totals -(k-1)(k-2)/2, dy likewise
    ex, ey = dist.p_edge, -dist.p_edge
    for k, pk in dist.face_probs.items():
        ex -= (k - 1) * (k - 2) / 2.0 * pk
        ey += (k - 1) * (k - 2) / 2.0 * pk
    if abs(ex) > 1e-9 or abs(ey) > 1e-9:
        raise BipolarError(f"step distribution has drift {(ex, ey)}")


# -- theory values --------------------------------------------------------------


@dataclass(frozen=True)
class TheoryStats:
    """Second-moment structure of a step distribution plus the face-degree law."""

    var_diff: float            # Var[X - Y]
    var_sum: float             # Var[X + Y]
    ratio: float
    cov: tuple[tuple[float, float], tuple[float, float]]
    face_degree_law: dict[int, float]


def theory_stats(dist: StepDistribution) -> TheoryStats:
    """Variances of X-Y and X+Y, the increment covariance, the degree law.

    For weight-derived distributions the identity Var[X-Y] = 3 Var[X+Y]
    holds, so the covariance matrix is a scalar multiple of
    ((2/3, -1/3), (-1/3, 2/3)): the all-ones family takes its exact values,
    and finite supports are checked to 1e-9.  Direct distributions report
    whatever ratio they produce.
    """
    if dist.kind == "direct":
        var_diff = sum((dx - dy) ** 2 * p for (dx, dy), p in dist.direct.items())
        var_sum = sum((dx + dy) ** 2 * p for (dx, dy), p in dist.direct.items())
        law: dict[int, float] = {}
    elif dist.kind == "uniform":
        # P(E) = 1/2 and the k-1 moves of a k-gon have mass (k-1) 2^-(k+1):
        # E[(dx-dy)^2] = 4/2 + 4 and E[(dx+dy)^2] = 2.  The degree law
        # (k-1)/2^k is listed up to the first k whose step mass is <= 1e-15.
        var_diff, var_sum = 6.0, 2.0
        law = {k: (k - 1) / 2 ** k for k in range(2, 56)}
    else:
        p0 = dist.p_edge
        fourth = sum(k ** 4 * (k - 1) * pk for k, pk in dist.face_probs.items())
        if fourth == float("inf"):
            raise BipolarError("fourth-moment sum diverges")
        var_diff = 4.0 * p0 + sum((k - 2) ** 2 * (k - 1) * pk
                                  for k, pk in dist.face_probs.items())
        var_sum = sum(pk * 2.0 * _binom3(k) for k, pk in dist.face_probs.items())
        law = {k: (k - 1) * pk / (1.0 - p0)
               for k, pk in dist.face_probs.items()}
        if abs(var_diff - 3.0 * var_sum) > 1e-9 * max(1.0, var_diff):
            raise BipolarError(
                f"variance identity broken: {var_diff} != 3 * {var_sum}")
    exx = (var_diff + var_sum) / 4.0
    exy = (var_sum - var_diff) / 4.0
    return TheoryStats(
        var_diff=var_diff,
        var_sum=var_sum,
        ratio=var_diff / var_sum,
        cov=((exx, exy), (exy, exx)),
        face_degree_law=law,
    )


def _binom3(k: int) -> float:
    return k * (k - 1) * (k - 2) / 6.0
