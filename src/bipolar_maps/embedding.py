"""Upward drawings of bipolar maps: a polyline drawing of every map on an
integer grid, read straight off its two sweep orders, and a straight-line
embedding of simple triangulations.

``visibility_drawing`` takes any valid map (Rosenstiehl-Tarjan 1986,
Tamassia-Tollis 1986).  The scan orders the vertices south to north and
the interface path crosses the faces west to east; a vertex's height is
twice its rank in the first order, an edge runs up the column of the face
west of it, and a vertex sits in the column of its west-most outgoing
edge.  No search is made, and ``svg.render_svg`` draws every map this way.

``upward_embed`` takes only simple triangulations.  Every interior face is
a triangle with a lowest, a middle and a highest corner, and
``_triangles`` reads them once from the scan's flat face lists: an east
triangle (middle corner on its east side) or a west triangle.  Drawing the
map so that every edge rises and every triangle keeps its middle corner on
the correct side of its min-max chord tiles the region between the two
boundary paths exactly once, which forces planarity.  Vertices are placed
in creation order, the order in which the interface path first reaches
them.  The k-th west-boundary vertex sits at height k; every other vertex
is created as the middle corner of the east triangle the path crosses just
before it, at the midpoint of that triangle's lowest and highest corners.
Each orientation constraint is resolved when its last-created corner is
placed, where it reduces to an exact rational bound on that corner's
horizontal position.  Placement runs on plain integers: the dyadic heights
are integers over one power of two (the lcm of their denominators), every
x and every bound is an integer pair (num, den), each constraint is a
record of its two fixed corners and their height gaps, and the
``Fraction`` coordinates are built once, at the end.  The sewing rule
gives two facts (``_constraints`` proves them): every vertex but the two
of the first edge has a lower bound, its west-chain predecessor or the
east triangle it is created in, and at most one upper bound, from the
one west triangle whose middle corner it can be.  So each interval runs
from the greatest lower bound to that one upper bound, or is free-topped.
When an interval empties, the slack search raises the free-topped
vertices that support it, found by chasing the upper bounds down, and
resumes placement at the lowest of them.

Both functions return only drawings that pass one linear-time certificate
of two local rules with exact integer predicates: every segment rises, and
in every face the west side lies strictly west of the east side, a chain
rule that for a triangle says its middle corner is on its own side.  The
independent quadratic-time pairwise verifier stays as its oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import EmbeddingInternalError, EmbeddingUnsupportedError
from .planar_map import PlanarMap
from .sewing import interface_order
from .walks import FaceMove

Point = tuple[Fraction | int, Fraction | int]

EAST = "east"
WEST = "west"


@dataclass(frozen=True)
class Embedding:
    """Exact vertex coordinates with every edge pointing strictly upward.

    ``bends`` holds, for each edge drawn as a polyline, its interior points
    from tail to head; every other edge is a straight segment.
    """

    coords: dict[int, Point]
    bends: dict[int, tuple[Point, ...]] = field(default_factory=dict)

    def max_coord_bits(self) -> int:
        """Largest numerator/denominator bit length; tracks coordinate growth."""
        return max(n.bit_length() for p in self.coords.values() for c in p
                   for n in (c.numerator, c.denominator))


def _triangles(m: PlanarMap) -> list[tuple[int, int, int, str] | None]:
    """(lowest, middle, highest, side) corners of every interior face, in
    face order, or None for a face that is not a triangle.  ``side`` is the
    side of the face the middle corner is on.

    Face f is ``face_darts[a:c]``: its east side going up, then from ``b``
    its west side coming down, so a triangle has one dart on one side and
    two on the other.
    """
    s = m._face_scan()
    fd, tail, head = s.face_darts, m.dart_tails, m.dart_heads
    tris: list[tuple[int, int, int, str] | None] = []
    for a, b, c in zip(s.face_start, s.face_split, s.face_start[1:]):
        if c - a != 3:
            tris.append(None)
        elif b - a == 1:  # the west side's top dart comes down to the middle
            tris.append((tail[fd[a]], head[fd[b]], head[fd[a]], WEST))
        else:
            tris.append((tail[fd[a]], head[fd[a]], head[fd[b - 1]], EAST))
    return tris


def _check_simple_triangulation(m: PlanarMap, tris) -> None:
    """Refuse the first interior face that is not a triangle, then the first
    edge that doubles an earlier one (a valid map has no self-loops)."""
    start = m.scan().face_start
    for f, tri in enumerate(tris):
        if tri is None:
            raise EmbeddingUnsupportedError(
                "unsupported for embedding: interior face of degree "
                f"{start[f + 1] - start[f]} (triangulations only)")
    seen = set()
    for t, h in m.edges:
        if (t, h) in seen:
            raise EmbeddingUnsupportedError(
                f"unsupported for embedding: multiple edges between {t} and {h}")
        seen.add((t, h))


def _creation_order(m: PlanarMap, tris):
    """Vertices in creation order, with their heights and triangles.

    Returns (verts, ys, scale, below, triangles): ``verts[r]`` is the
    vertex of creation rank r, the order in which the interface path first
    reaches it as a head; ``ys[r] / scale`` is its height, with ``scale``
    the least power of two that makes every height an integer; ``below[r]``
    is the rank of its west-chain predecessor, or None off the west
    boundary; the triangles, in the order the path crosses them, are
    (lowest, middle, highest, side) with corners given as ranks.

    Each new height is at most one halving finer than the heights it comes
    from, so with V vertices every height is a multiple of 2^-V: the
    heights are built as integers over 2^V, then divided by the largest
    power of two they all share (at most 2^V).
    """
    order, moves = interface_order(m)
    face_of, tail, head = m.scan().face_of, m.dart_tails, m.dart_heads
    rank = [-1] * m.n_vertices
    rank[m.south] = 0
    unit = 1 << m.n_vertices
    verts, ys, below = [m.south], [0], [None]
    crossed = []
    tri = None  # the triangle the path crossed just before edge e
    for e, move in zip(order, moves + (None,)):
        h = head[2 * e]
        if rank[h] < 0:
            rank[h] = len(verts)
            verts.append(h)
            if tri is None:  # a west-boundary vertex, a unit step up
                r = rank[tail[2 * e]]
                ys.append(ys[r] + unit)
                below.append(r)
            else:  # the middle corner of an east triangle
                ys.append((ys[rank[tri[0]]] + ys[rank[tri[2]]]) >> 1)
                below.append(None)
        tri = None
        if isinstance(move, FaceMove):
            tri = tris[face_of[2 * e + 1]]
            crossed.append(tri)
    shared = 0
    for y in ys:
        shared |= y
    shift = min(m.n_vertices, (shared & -shared).bit_length() - 1)
    ys = [y >> shift for y in ys]
    triangles = [(rank[u], rank[w], rank[z], side) for u, w, z, side in crossed]
    return verts, ys, 1 << (m.n_vertices - shift), below, triangles


def _constraints(triangles, ys, below):
    """Per creation rank, its lower bound records and its one upper bound
    record or None.

    Each triangle binds its last-created corner v, which must keep the
    middle corner strictly on the triangle's side of the upward chord from
    the lowest to the highest corner (east means clockwise of the chord).
    The cross product is linear in each coordinate, so fixing the other two
    corners p, q leaves a half-line whose threshold is the x of the line
    through them at v's height:
    (x_p (y_q - y) + x_q (y - y_p)) / (y_q - y_p).  A record holds p, q and
    the three height gaps.  A west-boundary vertex is bounded below by its
    west-chain predecessor b, the leading lower record (b, b, 0, 1, 1),
    whose threshold is x_b.

    The sewing rule (``sewing.Frontier.push_all``) gives two facts:

    1. every rank >= 2 has a lower record: a west-boundary rank has its
       leading record, and every other rank is created as the middle
       corner of an east triangle F(0, 1), where it is the newest corner,
       so that triangle bounds it from below;
    2. a rank has at most one upper record: an east triangle bounds only
       its new middle corner, from below, and a west triangle F(1, 0)
       bounds its middle from above only when that corner is its newest.
       F(1, 0) takes its middle off the frontier for good, so no vertex is
       the middle of two west triangles.  That record's p, q are the
       triangle's lowest and highest corners.
    """
    los: list[list] = [[] if b is None else [(b, b, 0, 1, 1)] for b in below]
    his: list = [None] * len(ys)
    for u, w, z, side in triangles:
        v = max(u, w, z)
        p, q = (u, z) if v == w else (u, w) if v == z else (w, z)
        gaps = (p, q, ys[q] - ys[v], ys[v] - ys[p], ys[q] - ys[p])
        if (v == w) == (side == EAST):
            los[v].append(gaps)
        else:
            his[v] = gaps
    return los, his


def _place(start, los, his, boost, pos):
    """Place creation ranks ``start``, ``start + 1``, ... in order.

    Returns the first rank whose interval empties, or None once every rank
    is placed.  ``pos[v]`` is the x of rank v as a reduced integer pair
    (num, den) with den > 0; each bound of ``_constraints`` is such a pair,
    not reduced, bounds compare by cross-multiplying, and each placed rank
    costs one ``gcd``.  Every rank placed here has a lower record and at
    most one upper record (the two facts of ``_constraints``), so its
    interval is the greatest lower bound up to that one upper bound.  The
    x of v depends only on the positions below v and on ``boost[v]``, so a
    pass may resume at the lowest rank whose boost changed and keep what
    lies below it.  A rank with no upper record is free-topped; boosts are
    extra slack exponents for those ranks, and raising them widens every
    later interval that interpolates through them.
    """
    for v in range(start, len(pos)):
        # (-1, 0) stands for minus infinity: the first record's num * 0 > -den
        lo_n, lo_d = -1, 0
        for p, q, a, b, c in los[v]:
            (xp, dp), (xq, dq) = pos[p], pos[q]
            num, den = xp * dq * a + xq * dp * b, dp * dq * c
            if num * lo_d > lo_n * den:
                lo_n, lo_d = num, den
        if his[v] is None:
            # exponential slack leaves room for everything hung here later
            num, den = lo_n + (lo_d << 2 * (v + boost.get(v, 0))), lo_d
        else:
            p, q, a, b, c = his[v]
            (xp, dp), (xq, dq) = pos[p], pos[q]
            hi_n, hi_d = xp * dq * a + xq * dp * b, dp * dq * c
            if lo_n * hi_d >= hi_n * lo_d:
                return v
            num, den = lo_n * hi_d + hi_n * lo_d, 2 * lo_d * hi_d
        g = gcd(num, den)
        pos[v] = (num // g, den // g)
    return None


def _raisable(bad, his) -> set[int]:
    """Free-topped ranks (those with no upper record) reached from ``bad``
    by chasing the lowest and highest corners ``his[e][:2]`` of each upper
    record met.

    Only ranks with an upper record are chased: ``bad`` has one, since only
    an upper bound can empty an interval, and so does every rank queued.
    Pushing the free-topped ones east widens the emptied interval.
    """
    raisable: set[int] = set()
    queue = [bad]
    seen = {bad}
    while queue:
        for e in his[queue.pop()][:2]:
            if e < 2 or e in seen:
                continue
            seen.add(e)
            if his[e] is None:
                raisable.add(e)
            else:
                queue.append(e)
    return raisable


def upward_embed(m: PlanarMap) -> Embedding:
    """Straight-line embedding with all edges oriented upward, exactly certified."""
    m.require_valid()
    tris = _triangles(m)
    _check_simple_triangulation(m, tris)
    verts, ys, scale, below, triangles = _creation_order(m, tris)

    los, his = _constraints(triangles, ys, below)
    pos: list = [(0, 1), (0, 1)] + [None] * (len(verts) - 2)
    boost: dict[int, int] = {}
    start = 2
    for _ in range(400):
        bad = _place(start, los, his, boost, pos)
        if bad is None:
            break
        raisable = _raisable(bad, his)
        if not raisable:
            raise EmbeddingInternalError(
                "embedding construction failed: empty placement interval "
                "with no raisable support", trace=[f"vertex {bad}"])
        for c in raisable:
            # the k-th raise adds 4 * 2^(k-1), so boost[c] = 4 (2^k - 1)
            boost[c] = 2 * boost.get(c, 0) + 4
        start = min(raisable)
    else:
        raise EmbeddingInternalError(
            "embedding construction failed: slack search did not converge",
            trace=[f"boost={boost}"])

    return _certified(m, Embedding(coords={v: (Fraction(*x), Fraction(y, scale))
                                           for v, x, y in zip(verts, pos, ys)}))


def visibility_drawing(m: PlanarMap) -> Embedding:
    """Upward polyline drawing of any valid map, certified, with integer x
    in [0, F] and y in [0, 2V - 2] for F interior faces and V vertices.

    Column 0 is the west outer face's, and interior faces take columns 1,
    2, ... in the order the interface path crosses them, an order of the
    dual from west to east.  Vertex v sits at height 2 * (its rank in the
    scan's ``topo``), in the column of the face west of its west-most
    outgoing edge (the north pole: of its west-most incoming edge).  Edge
    e = (t, h) runs from t to (c, y(t) + 1), up to (c, y(h) - 1) and on to
    h, where c is the column of the face west of it; repeated and
    collinear points are dropped, and what remains between t and h are
    its bends.
    """
    order, moves = interface_order(m)  # raises on an invalid map
    s = m.scan()
    face_of, tail = s.face_of, m.dart_tails
    crossed = [face_of[2 * e + 1] for e, move in zip(order, moves)
               if isinstance(move, FaceMove)]
    col = [0] * (len(crossed) + 1)  # col[WEST_OUTER], the last, stays 0
    for k, f in enumerate(crossed, 1):
        col[f] = k
    psi = [col[f] for f in face_of[0::2]]
    x = [psi[d >> 1] for d in s.west_out]
    x[m.north] = psi[s.cut[m.north] >> 1]
    y = [0] * m.n_vertices
    for r, v in enumerate(s.topo):
        y[v] = 2 * r
    bends = {}
    for e, c in enumerate(psi):
        t, h = tail[2 * e], tail[2 * e + 1]
        p, q = (c, y[t] + 1), (c, y[h] - 1)
        kept = [(x[t], y[t])]
        for a, b in ((p, q), (q, (x[h], y[h]))):
            if a != b and _cross(kept[-1], a, b):
                kept.append(a)
        if len(kept) > 1:
            bends[e] = tuple(kept[1:])
    return _certified(m, Embedding(coords=dict(enumerate(zip(x, y))), bends=bends))


def _certified(m: PlanarMap, emb: Embedding) -> Embedding:
    problems = certify_upward_planar(m, emb)
    if problems:
        raise EmbeddingInternalError("embedding post-check failed", trace=problems)
    return emb


# -- linear-time certificate -------------------------------------------------------


def _homogeneous(p: Point) -> tuple[int, int, int]:
    """(X, Y, D) with D = lcm of the denominators > 0 and (x, y) = (X/D, Y/D)."""
    (xn, xd), (yn, yd) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
    g = gcd(xd, yd)
    return (xn * (yd // g), yn * (xd // g), xd * (yd // g))


def _orientation(o, a, b) -> int:
    """det[[o], [a], [b]] of homogeneous points; with every D positive it has
    the sign of ``_cross`` on the points they stand for."""
    (xo, yo, do), (xa, ya, da), (xb, yb, db) = o, a, b
    return (xo * (ya * db - da * yb) - yo * (xa * db - da * xb)
            + do * (xa * yb - ya * xb))


def _sides_ordered(west, east) -> bool:
    """Do two rising chains of homogeneous points from one bottom to one
    top bound a face: is every breakpoint strictly inside strictly on its
    own side of the other chain's segment at its height?

    The breakpoints are merged bottom to top, one ``_orientation`` test
    each.  Two chains with no breakpoint between them coincide.
    """
    p, q = len(west) - 1, len(east) - 1
    i = j = 1
    while i < p or j < q:
        w, e = west[i], east[j]
        if i < p and w[1] * e[2] <= e[1] * w[2]:
            if _orientation(east[j - 1], e, w) <= 0:
                return False
            i += 1
        else:
            if _orientation(west[i - 1], w, e) >= 0:
                return False
            j += 1
    return p + q > 2


def certify_upward_planar(m: PlanarMap, emb: Embedding) -> list[str]:
    """Linear-time certificate that ``emb`` draws the map ``m`` upward and
    planar; returns the violations (empty when it holds).

    Each edge is the chain of segments from its tail through its bends to
    its head.  Two local rules, each an exact integer predicate on
    homogeneous coordinates:

    * every segment rises strictly;
    * every interior face is positively oriented in the map's rotation
      order: its two sides, the scan's ``face_darts`` split at
      ``face_split``, are chains from its bottom to its top, and each
      breakpoint strictly between lies strictly on its own side (west or
      east) of the other side (``_sides_ordered``).  For a triangle this
      says that its middle corner lies strictly on its own side of the
      chord from its lowest to its highest corner.

    Together they order the two boundary chains.  Take a height h strictly
    between two consecutive vertices shared by both chains (the poles and
    the cut vertices) that no bridge joins, and at no breakpoint.  Read
    west to east, the edges that cross h run from an edge of the west
    chain to an edge of the east chain, and each consecutive pair bounds
    one face that crosses h.  A positively oriented face puts its west
    side strictly west of its east side inside it, so the chains are
    strictly ordered at h.  At the height of a breakpoint, strictness
    comes from the face just inside the west chain there: the face beside
    an unshared west vertex, where that vertex is a breakpoint of its west
    side, or else the face east of the chain's edge.  Its west side lies
    strictly west of its east side at that height, and its east side lies
    weakly west of the east chain, by the cuts just above and just below.

    So the shared vertices split the map into blocks and bridges stacked
    in disjoint height slabs, each block with a simple boundary.
    Positively oriented faces inside a simple boundary cover each point as
    often as the boundary winds around it, once inside and never outside,
    so no two faces overlap (Gortler-Gotsman-Thurston 2006).  A drawing
    that is planar but mirrors the rotation order fails the second rule.
    """
    if len(emb.coords) != m.n_vertices:
        return [f"{len(emb.coords)} coordinates for {m.n_vertices} vertices"]
    pos = {v: _homogeneous(p) for v, p in emb.coords.items()}
    tail = m.dart_tails
    up = [[pos[h]] for h in tail[1::2]]  # per edge, its points above its tail
    for e, pts in emb.bends.items():
        up[e] = [*map(_homogeneous, pts), *up[e]]
    problems = []
    for e, t in enumerate(tail[0::2]):
        lo = pos[t]
        for p in up[e]:
            if not lo[1] * p[2] < p[1] * lo[2]:
                problems.append(f"edge {e} does not point strictly upward")
                break
            lo = p
    if problems:
        return problems  # orientation means something only once segments rise

    s = m._face_scan()
    fd = s.face_darts
    along = [up[d >> 1] for d in fd]  # per face dart, what ``up`` holds for its edge
    for f, (a, b, c) in enumerate(zip(s.face_start, s.face_split, s.face_start[1:])):
        east = sum(along[a:b], [pos[tail[fd[a]]]])
        west = sum(reversed(along[b:c]), east[:1])
        if not _sides_ordered(west, east):
            problems.append(f"face {f} is not positively oriented")
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

    Returns a list of violations (empty when the embedding is good): two
    points (vertices or bends) at one position, a segment that does not
    rise, or any pair of closed segments of two edges meeting outside a
    shared endpoint.  With every point distinct, segments of two edges can
    share an endpoint only at a map vertex that both edges end at.
    Coordinates are rescaled by the common denominator so all predicates
    run on integers.
    """
    problems = []
    points = [(f"vertex {v}", p) for v, p in emb.coords.items()]
    points += [(f"a bend of edge {e}", p) for e, ps in emb.bends.items() for p in ps]
    scale = lcm(*(c.denominator for _, p in points for c in p))

    def ipos(p):
        return (int(p[0] * scale), int(p[1] * scale))

    seen_pts: dict[tuple[int, int], str] = {}
    for name, p in points:
        pt = ipos(p)
        if pt in seen_pts:
            problems.append(f"{seen_pts[pt]} and {name} coincide")
        seen_pts[pt] = name
    segs = []
    for e, (t, h) in enumerate(m.edges):
        chain = [ipos(emb.coords[t]), *map(ipos, emb.bends.get(e, ())), ipos(emb.coords[h])]
        if any(not p[1] < q[1] for p, q in zip(chain, chain[1:])):
            problems.append(f"edge {e} does not point strictly upward")
        segs += [(e, p, q) for p, q in zip(chain, chain[1:])]
    crossing = set()
    for i in range(len(segs)):
        e1, p1, q1 = segs[i]
        for j in range(i + 1, len(segs)):
            e2, p2, q2 = segs[j]
            # cheap bounding-box rejection
            if (max(p1[0], q1[0]) < min(p2[0], q2[0])
                    or max(p2[0], q2[0]) < min(p1[0], q1[0])
                    or q1[1] < p2[1] or q2[1] < p1[1] or e1 == e2):
                continue
            if segments_conflict(p1, q1, p2, q2) and (e1, e2) not in crossing:
                crossing.add((e1, e2))
                problems.append(f"edges {e1} and {e2} cross")
    return problems
