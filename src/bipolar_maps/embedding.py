"""Upward straight-line embedding of simple bipolar triangulations.

The move sequence determines, ahead of time, the three corners of every
triangle: an east triangle (new vertex hung east of its left edge) or a
west triangle (a chord burying the vertex it spans).  Drawing the map so
that every edge rises and every triangle keeps its middle corner on the
correct side of its min-max chord tiles the region between the two
boundary paths exactly once, which forces planarity.  Heights come from
frontier midpoints; each orientation constraint is resolved when its
last-created corner is placed, where it reduces to an exact rational
bound on that corner's horizontal position.  An independent
quadratic-time verifier with exact integer predicates certifies every
returned embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import EmbeddingInternalError, EmbeddingUnsupportedError
from .planar_map import PlanarMap
from .sewing import Frontier, interface_order

Point = tuple[Fraction, Fraction]

EAST = "east"
WEST = "west"


@dataclass(frozen=True)
class Embedding:
    """Exact vertex coordinates with every edge pointing strictly upward."""

    coords: dict[int, Point]

    def max_coord_bits(self) -> int:
        """Largest numerator/denominator bit length; tracks coordinate growth."""
        bits = 0
        for x, y in self.coords.values():
            for f in (x, y):
                bits = max(bits, f.numerator.bit_length(),
                           f.denominator.bit_length())
        return bits


def _check_simple_triangulation(m: PlanarMap) -> None:
    for fd in m.interior_faces():
        if fd.face_type.degree != 3:
            raise EmbeddingUnsupportedError(
                "unsupported for embedding: interior face of degree "
                f"{fd.face_type.degree} (triangulations only)")
    seen = set()
    for t, h in m.edges:
        if t == h:
            raise EmbeddingUnsupportedError("unsupported for embedding: self-loop")
        if (t, h) in seen:
            raise EmbeddingUnsupportedError(
                f"unsupported for embedding: multiple edges between {t} and {h}")
        seen.add((t, h))


def _x_bound(u, w, z, side, free, pos, ys):
    """Bound on x(free) from: middle w strictly ``side`` of upward chord u->z.

    East means clockwise of the chord vector (cross(z-u, w-u) < 0).  The
    cross product is linear in each coordinate, so fixing the other two
    corners leaves a half-line; returns ("lo"/"hi", threshold).
    """
    yu, yw, yz = ys[u], ys[w], ys[z]
    if free == w:
        x0 = pos[u][0] + (pos[z][0] - pos[u][0]) * (yw - yu) / (yz - yu)
        return ("lo", x0) if side == EAST else ("hi", x0)
    if free == z:
        z0 = pos[u][0] + (yz - yu) * (pos[w][0] - pos[u][0]) / (yw - yu)
        return ("hi", z0) if side == EAST else ("lo", z0)
    u0 = ((yz - yu) * pos[w][0] - pos[z][0] * (yw - yu)) / (yz - yw)
    return ("hi", u0) if side == EAST else ("lo", u0)


def _solve_positions(n_creation, events, triangles, boost):
    """One placement pass; returns positions or the conflict that emptied.

    ``boost`` maps creation ids to extra slack exponents for vertices whose
    x is bounded below only; raising them widens every later interval that
    interpolates through them.
    """
    resolve_at: list[list[tuple[int, int, int, str]]] = [[] for _ in range(n_creation)]
    for (u, w, z, side) in triangles:
        resolve_at[max(u, w, z)].append((u, w, z, side))

    # heights first: midpoints between chain neighbors, unit steps at the top
    ys: list[Fraction] = [Fraction(0)] * n_creation
    ys[1] = Fraction(1)
    for v in range(2, n_creation):
        ev = events[v]
        if ev[0] == "top":
            ys[v] = ys[ev[1]] + 1
        else:
            ys[v] = (ys[ev[1]] + ys[ev[2]]) / 2

    pos: dict[int, Point] = {0: (Fraction(0), ys[0]), 1: (Fraction(0), ys[1])}
    free_topped = {0, 1}
    hi_tri_of: dict[int, tuple[int, int, int]] = {}
    conflicts: list[int] = []
    for v in range(2, n_creation):
        ev = events[v]
        lo = pos[ev[1]][0] if ev[0] == "top" else None
        hi = None
        for (u, w, z, side) in resolve_at[v]:
            kind, thr = _x_bound(u, w, z, side, v, pos, ys)
            if kind == "lo":
                lo = thr if lo is None else max(lo, thr)
            elif hi is None or thr < hi:
                hi = thr
                hi_tri_of[v] = (u, w, z)
        if lo is None and hi is None:
            x = Fraction(0)
            free_topped.add(v)
        elif hi is None:
            # exponential slack leaves room for everything hung here later
            x = lo + Fraction(4) ** (v + boost.get(v, 0))
            free_topped.add(v)
        elif lo is None:
            x = hi - 1
        else:
            if lo >= hi:
                conflicts.append(v)
                return None, (conflicts, hi_tri_of, free_topped)
            x = (lo + hi) / 2
        pos[v] = (x, ys[v])
    return (pos, ys), None


def upward_embed(m: PlanarMap) -> Embedding:
    """Straight-line embedding with all edges oriented upward, exactly checked."""
    m.require_valid()
    _check_simple_triangulation(m)
    order, moves = interface_order(m)
    # events[v] says how creation id v came to exist ("top" above the old
    # top, or "insert" between two frontier ids); triangles are (u, w, z,
    # side) with y(u) < y(w) < y(z) and the middle corner w on that side
    frontier = Frontier()
    events: list[tuple] = [("base",), ("base",)]
    replay_edges = [(0, 1)]
    triangles: list[tuple[int, int, int, str]] = []
    for mv in moves:
        tail, head, apex = frontier.push(mv)
        replay_edges.append((tail, head))
        is_new = head == len(events)
        if apex is None:
            if is_new:
                events.append(("top", tail))
        elif is_new:
            events.append(("insert", tail, apex))
            triangles.append((tail, head, apex, EAST))
        else:
            triangles.append((tail, apex, head, WEST))
    n_creation = frontier.n_vertices

    boost: dict[int, int] = {}
    raise_step: dict[int, int] = {}
    solved = None
    for _ in range(400):
        solved, conflict = _solve_positions(n_creation, events, triangles, boost)
        if solved is not None:
            break
        bad, hi_tri_of, free_topped = conflict
        # chase the binding upper triangles until hitting vertices whose x
        # is bounded below only; pushing those east widens the intervals
        raisable: set[int] = set()
        queue = list(bad)
        seen = set(queue)
        while queue:
            c = queue.pop()
            tri = hi_tri_of.get(c)
            if tri is None:
                continue
            for e in (tri[0], tri[2]):
                if e < 2 or e in seen:
                    continue
                seen.add(e)
                if e in free_topped:
                    raisable.add(e)
                else:
                    queue.append(e)
        if not raisable:
            raise EmbeddingInternalError(
                "embedding construction failed: empty placement interval "
                "with no raisable support", trace=[f"vertices {bad[:5]}"])
        for c in raisable:
            step = raise_step.get(c, 4)
            boost[c] = boost.get(c, 0) + step
            raise_step[c] = step * 2
    if solved is None:
        raise EmbeddingInternalError(
            "embedding construction failed: slack search did not converge",
            trace=[f"boost={boost}"])
    pos, _ys = solved

    # identify replay creation ids with the map's own vertex ids
    vmap: dict[int, int] = {}
    for (ct, ch), e in zip(replay_edges, order):
        mt, mh = m.edges[e]
        for c, mm in ((ct, mt), (ch, mh)):
            if vmap.setdefault(c, mm) != mm:
                raise EmbeddingInternalError(
                    "replay does not match the map's interface order",
                    trace=[f"edge {e}: creation ids ({ct},{ch})"])
    emb = Embedding(coords={vmap[c]: pt for c, pt in pos.items()})
    problems = verify_upward_planar(m, emb)
    if problems:
        raise EmbeddingInternalError("embedding post-check failed",
                                     trace=problems)
    return emb


# -- independent geometric verifier ------------------------------------------------


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _on_segment(p, q, r) -> bool:
    """r collinear with pq assumed; is r within the closed bounding box?"""
    return (min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
            and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))


def segments_conflict(p1, q1, p2, q2) -> bool:
    """True iff closed segments intersect anywhere beyond a shared endpoint."""
    shared = [u for u in (p1, q1) if u == p2 or u == q2]
    if len(shared) == 2:
        return True  # identical or reversed segment
    if len(shared) == 1:
        s = shared[0]
        a = q1 if p1 == s else p1
        b = q2 if p2 == s else p2
        if _cross(s, a, b) != 0:
            return False
        # collinear at a shared endpoint: conflict iff both run the same way
        dot = (a[0] - s[0]) * (b[0] - s[0]) + (a[1] - s[1]) * (b[1] - s[1])
        return dot > 0
    o1 = _cross(p1, q1, p2)
    o2 = _cross(p1, q1, q2)
    o3 = _cross(p2, q2, p1)
    o4 = _cross(p2, q2, q1)
    if ((o1 > 0) != (o2 > 0)) and ((o3 > 0) != (o4 > 0)) and o1 and o2 and o3 and o4:
        return True
    if o1 == 0 and _on_segment(p1, q1, p2):
        return True
    if o2 == 0 and _on_segment(p1, q1, q2):
        return True
    if o3 == 0 and _on_segment(p2, q2, p1):
        return True
    if o4 == 0 and _on_segment(p2, q2, q1):
        return True
    return False


def verify_upward_planar(m: PlanarMap, emb: Embedding) -> list[str]:
    """Exact check of upwardness and planarity; independent of the embedder.

    Returns a list of violations (empty when the embedding is good):
    duplicate vertex positions, non-increasing edges, or any pair of closed
    edge segments meeting outside a shared endpoint.  Coordinates are
    rescaled by the common denominator so all predicates run on integers.
    """
    problems = []
    scale = 1
    for x, y in emb.coords.values():
        scale = lcm(scale, x.denominator, y.denominator)
    ipos = {v: (int(x * scale), int(y * scale))
            for v, (x, y) in emb.coords.items()}
    seen_pts: dict[tuple[int, int], int] = {}
    for v, pt in ipos.items():
        if pt in seen_pts:
            problems.append(f"vertices {seen_pts[pt]} and {v} coincide")
        seen_pts[pt] = v
    segs = []
    for e, (t, h) in enumerate(m.edges):
        pt, ph = ipos[t], ipos[h]
        if not pt[1] < ph[1]:
            problems.append(f"edge {e} does not point strictly upward")
        segs.append((pt, ph))
    for i in range(len(segs)):
        p1, q1 = segs[i]
        for j in range(i + 1, len(segs)):
            p2, q2 = segs[j]
            # cheap bounding-box rejection
            if (max(p1[0], q1[0]) < min(p2[0], q2[0])
                    or max(p2[0], q2[0]) < min(p1[0], q1[0])
                    or q1[1] < p2[1] or q2[1] < p1[1]):
                continue
            if segments_conflict(p1, q1, p2, q2):
                problems.append(f"edges {i} and {j} cross")
    return problems
