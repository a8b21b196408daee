"""Upward straight-line embedding of simple bipolar triangulations.

Every interior face is a triangle with a lowest, a middle and a highest
corner, and ``_triangle`` reads them off the map: an east triangle (middle
corner on its east side) or a west triangle.  Drawing the map so that
every edge rises and every triangle keeps its middle corner on the
correct side of its min-max chord tiles the region between the two
boundary paths exactly once, which forces planarity.  Vertices are placed
in creation order, the order in which the interface path first reaches
them.  The k-th west-boundary vertex sits at height k; every other vertex
is created as the middle corner of the east triangle the path crosses
just before it, at the midpoint of that triangle's lowest and highest
corners.  Each orientation constraint is resolved when its last-created
corner is placed, where it reduces to an exact rational bound on that
corner's horizontal position.  Placement runs on plain integers: the
dyadic heights are scaled once by the lcm of their denominators (a power
of two), every x and every bound is an integer pair (num, den), and the
``Fraction`` coordinates are built once, at the end.  When an interval
empties, the slack search raises the vertices that support it and
resumes placement at the lowest of them.  A linear-time certificate of
two local rules with exact integer predicates (rising edges, positively
oriented triangles), reading the same ``_triangle``, checks every
returned embedding; the independent quadratic-time pairwise verifier
stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .errors import EmbeddingInternalError, EmbeddingUnsupportedError
from .planar_map import FaceData, PlanarMap
from .sewing import interface_order
from .walks import FaceMove

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


def _triangle(m: PlanarMap, fd: FaceData) -> tuple[int, int, int, str] | None:
    """(lowest, middle, highest, side) corners of face ``fd``; None unless
    it is a triangle.  ``side`` is the side of the face the middle corner is on.
    """
    west, east = fd.west_edges_down, fd.east_edges_up
    if len(west) == 2 and len(east) == 1:
        return fd.min_vertex, m.edges[west[0]][0], fd.max_vertex, WEST
    if len(west) == 1 and len(east) == 2:
        return fd.min_vertex, m.edges[east[0]][1], fd.max_vertex, EAST
    return None


def _check_simple_triangulation(m: PlanarMap) -> None:
    for fd in m.interior_faces():
        if _triangle(m, fd) is None:
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
    corners leaves a half-line whose threshold is the x of the line through
    them at the free corner's height.  Heights are integers and every x is
    an integer pair (num, den) with den > 0; returns ("lo"/"hi", threshold)
    with the threshold as such a pair, not reduced.
    """
    p, q = (u, z) if free == w else (u, w) if free == z else (w, z)
    (xp, dp), (xq, dq) = pos[p], pos[q]
    yp, yq, y = ys[p], ys[q], ys[free]
    thr = (xp * dq * (yq - y) + xq * dp * (y - yp), dp * dq * (yq - yp))
    return ("lo" if (free == w) == (side == EAST) else "hi"), thr


def _creation_order(m: PlanarMap):
    """Vertices in creation order, with their heights and triangles.

    Returns (verts, ys, below, triangles): ``verts[r]`` is the vertex of
    creation rank r, the order in which the interface path first reaches
    it as a head; ``ys[r]`` is its height; ``below[r]`` is the rank of its
    west-chain predecessor, or None off the west boundary; the triangles,
    in the order the path crosses them, are (lowest, middle, highest,
    side) with corners given as ranks.
    """
    order, moves = interface_order(m)
    faces, face_of = m.interior_faces(), m.face_of_dart()
    rank = [-1] * m.n_vertices
    rank[m.south] = 0
    verts, ys, below = [m.south], [Fraction(0)], [None]
    crossed = []
    tri = None  # the triangle the path crossed just before edge e
    for t, e in enumerate(order):
        tail, head = m.edges[e]
        if rank[head] < 0:
            rank[head] = len(verts)
            verts.append(head)
            if tri is None:  # a west-boundary vertex, a unit step up
                ys.append(ys[rank[tail]] + 1)
                below.append(rank[tail])
            else:  # the middle corner of an east triangle
                ys.append((ys[rank[tri[0]]] + ys[rank[tri[2]]]) / 2)
                below.append(None)
        tri = None
        if t < len(moves) and isinstance(moves[t], FaceMove):
            tri = _triangle(m, faces[face_of[2 * e + 1]])
            crossed.append(tri)
    triangles = [(rank[u], rank[w], rank[z], side) for u, w, z, side in crossed]
    return verts, ys, below, triangles


def _place(start, below, resolve_at, ys, boost, pos, hi_tri_of, free_topped):
    """Place creation ranks ``start``, ``start + 1``, ... in order.

    Returns the first rank whose interval empties, or None once every rank
    is placed.  ``ys`` are integer heights and ``pos[v]`` is the x of rank v
    as a reduced integer pair (num, den) with den > 0; bounds compare by
    cross-multiplying, and each placed rank costs one ``gcd``.  The x of v
    depends only on the positions below v and on ``boost[v]``, so a pass
    may resume at the lowest rank whose boost changed and keep what lies
    below it, ``hi_tri_of`` (the triangle that binds each rank from above)
    and ``free_topped`` (ranks bounded below only) included.  A
    west-boundary vertex is bounded below by its west-chain predecessor.
    Boosts are extra slack exponents for free-topped ranks; raising them
    widens every later interval that interpolates through them.
    """
    for v in range(start, len(ys)):
        lo = None if below[v] is None else pos[below[v]]
        hi = hi_tri = None
        for (u, w, z, side) in resolve_at[v]:
            kind, thr = _x_bound(u, w, z, side, v, pos, ys)
            if kind == "lo":
                if lo is None or thr[0] * lo[1] > lo[0] * thr[1]:
                    lo = thr
            elif hi is None or thr[0] * hi[1] < hi[0] * thr[1]:
                hi, hi_tri = thr, (u, w, z)
        hi_tri_of[v] = hi_tri
        free_topped[v] = hi is None
        if hi is None:
            # exponential slack leaves room for everything hung here later
            if lo is None:
                num, den = 0, 1
            else:
                num, den = lo[0] + (lo[1] << 2 * (v + boost.get(v, 0))), lo[1]
        elif lo is None:
            num, den = hi[0] - hi[1], hi[1]
        elif lo[0] * hi[1] >= hi[0] * lo[1]:
            return v
        else:
            num, den = lo[0] * hi[1] + hi[0] * lo[1], 2 * lo[1] * hi[1]
        g = gcd(num, den)
        pos[v] = (num // g, den // g)
    return None


def _raisable(bad, hi_tri_of, free_topped) -> set[int]:
    """Free-topped ranks reached by chasing binding upper triangles from ``bad``.

    Pushing those east widens the emptied interval.
    """
    raisable: set[int] = set()
    queue = [bad]
    seen = {bad}
    while queue:
        tri = hi_tri_of[queue.pop()]
        if tri is None:
            continue
        for e in (tri[0], tri[2]):
            if e < 2 or e in seen:
                continue
            seen.add(e)
            if free_topped[e]:
                raisable.add(e)
            else:
                queue.append(e)
    return raisable


def upward_embed(m: PlanarMap) -> Embedding:
    """Straight-line embedding with all edges oriented upward, exactly certified."""
    m.require_valid()
    _check_simple_triangulation(m)
    verts, ys, below, triangles = _creation_order(m)
    n_creation = len(verts)

    # each orientation constraint is resolved when its last corner is placed
    resolve_at: list[list[tuple[int, int, int, str]]] = [[] for _ in range(n_creation)]
    for tri in triangles:
        resolve_at[max(tri[:3])].append(tri)
    # dyadic heights over their common denominator, a power of two
    scale = lcm(*(y.denominator for y in ys))
    iys = [y.numerator * (scale // y.denominator) for y in ys]
    pos: list = [(0, 1), (0, 1)] + [None] * (n_creation - 2)
    hi_tri_of: list = [None] * n_creation
    free_topped = [True] * n_creation
    boost: dict[int, int] = {}
    raise_step: dict[int, int] = {}
    start = 2
    for _ in range(400):
        bad = _place(start, below, resolve_at, iys, boost, pos, hi_tri_of, free_topped)
        if bad is None:
            break
        raisable = _raisable(bad, hi_tri_of, free_topped)
        if not raisable:
            raise EmbeddingInternalError(
                "embedding construction failed: empty placement interval "
                "with no raisable support", trace=[f"vertex {bad}"])
        for c in raisable:
            step = raise_step.get(c, 4)
            boost[c] = boost.get(c, 0) + step
            raise_step[c] = step * 2
        start = min(raisable)
    else:
        raise EmbeddingInternalError(
            "embedding construction failed: slack search did not converge",
            trace=[f"boost={boost}"])

    emb = Embedding(coords={v: (Fraction(*x), y) for v, x, y in zip(verts, pos, ys)})
    problems = certify_upward_planar(m, emb)
    if problems:
        raise EmbeddingInternalError("embedding post-check failed",
                                     trace=problems)
    return emb


# -- linear-time certificate -------------------------------------------------------


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """(X, Y, D) with D = lcm of the denominators > 0 and (x, y) = (X/D, Y/D)."""
    x, y = p
    d = lcm(x.denominator, y.denominator)
    return (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator), d)


def _orientation(o, a, b) -> int:
    """det[[o], [a], [b]] of homogeneous points; with every D positive it has
    the sign of ``_cross`` on the points they stand for."""
    (xo, yo, do), (xa, ya, da), (xb, yb, db) = o, a, b
    return (xo * (ya * db - da * yb) - yo * (xa * db - da * xb)
            + do * (xa * yb - ya * xb))


def certify_upward_planar(m: PlanarMap, emb: Embedding) -> list[str]:
    """Linear-time certificate that ``emb`` draws the triangulated disk ``m``
    upward and planar; returns the violations (empty when it holds).

    Two local rules, each an exact integer predicate on per-vertex
    homogeneous coordinates:

    * every edge rises strictly;
    * every interior triangle is positively oriented in the map's rotation
      order: its middle corner lies strictly on its own side (west or
      east) of the chord from its lowest to its highest corner.

    Together they order the two boundary chains.  Take a height h strictly
    between two consecutive vertices shared by both chains (the poles and
    the cut vertices) that no bridge joins, and at no vertex.  Read west
    to east, the edges that cross h run from an edge of the west chain to
    an edge of the east chain, and each consecutive pair bounds one
    triangle that crosses h.  A positively oriented triangle puts its west
    side strictly west of its east side inside it, so the chains are
    strictly ordered at h.  At the height of a vertex, strictness comes
    from the face just inside the west chain there: the face beside an
    unshared west vertex, where that vertex is the middle corner, or else
    the face east of the chain's edge.  Its west side lies strictly west
    of its east side at that height, and its east side lies weakly west of
    the east chain, by the cuts just above and just below.

    So the shared vertices split the map into blocks and bridges stacked
    in disjoint height slabs, each block with a simple boundary.
    Positively oriented triangles inside a simple boundary cover each point
    as often as the boundary winds around it, once inside and never
    outside, so no two triangles overlap (Gortler-Gotsman-Thurston 2006).
    A drawing that is planar but mirrors the rotation order fails the
    second rule.
    """
    if len(emb.coords) != m.n_vertices:
        return [f"{len(emb.coords)} coordinates for {m.n_vertices} vertices"]
    pos = {v: _homogeneous(p) for v, p in emb.coords.items()}
    problems = [f"edge {e} does not point strictly upward"
                for e, (t, h) in enumerate(m.edges)
                if not pos[t][1] * pos[h][2] < pos[h][1] * pos[t][2]]
    if problems:
        return problems  # orientation means something only once corners rise

    for fd in m.interior_faces():
        tri = _triangle(m, fd)
        if tri is None:
            problems.append(f"face {fd.index} is not a triangle")
            continue
        u, w, z, side = tri
        sign = _orientation(pos[u], pos[z], pos[w])
        if (sign if side == WEST else -sign) <= 0:
            problems.append(f"face {fd.index} is not positively oriented")
    return problems


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
