"""Planar maps with a bipolar orientation.

A map is stored as flat per-dart lists: every edge contributes two darts
(dart ``2*e`` points north, ``2*e + 1`` points south), each dart has a
tail, a head and its counterclockwise predecessor at its tail (``dart_prev``),
and each vertex's counterclockwise rotation is a slice of one flat dart
list.  The construction checks run once, on flat lists
(``PlanarMap.from_darts``: the dart tails, one rotation list and its cut
offsets, the poles and the anchor); ``PlanarMap(...)`` adapts edge pairs
and per-vertex dart lists, the shape ``rotations`` returns, to it, and
``edges`` is a view built on first use.  Signed 1-based edge refs are the
JSON wire format only.

The outer face of the sphere map is split by the two poles into a west side
and an east side.  Which side is west is a convention the data must carry,
so every map records the bottom-most west-boundary edge (``west_anchor``).
Maps are immutable after construction and safe to share between threads.

One rule carries the orientation's local structure: a cycle of darts is
one run of north darts followed by one run of south darts.  Around a
vertex the outgoing darts form one run and the incoming darts the other;
around a face, the outer one included, one directed path goes up one side
and another comes down the other side.  A cycle obeys the rule when a
north dart follows a south dart exactly once.  Validation is one pass,
``PlanarMap.scan()``: it peels the vertices in Kahn's order, checks the
rule at every vertex and records where each rotation is cut, and walks
every face orbit once, labelling its darts and recording its two sides as
slices of one flat face-dart list.  The west-to-east edge orders at a
vertex, the trees, the dual and the walk read those lists (``MapScan``);
``FaceData`` records are built only when ``interior_faces()`` asks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index

from .errors import InvalidMapError, MapStructureError
from .walks import FaceMove, face_move

WEST_OUTER = -1
EAST_OUTER = -2


def _ids(values, what: str) -> list[int]:
    """``values`` as ints, numpy ints included; int() would read 0.9 as 0."""
    try:
        return [index(v) for v in values]
    except TypeError:
        bad = next(v for v in values if not hasattr(type(v), "__index__"))
        raise MapStructureError(f"{what} must be integers, got {bad!r}") from None


@dataclass(frozen=True)
class FaceData:
    """One interior face: boundary edges split at the unique max/min vertex."""

    index: int
    west_edges_down: tuple[int, ...]  # edges with this face on their east, top to bottom
    east_edges_up: tuple[int, ...]    # edges with this face on their west, bottom to top
    min_vertex: int
    max_vertex: int

    @property
    def face_type(self) -> FaceMove:
        """The face move (i, j) that sews this face: i + 1 west, j + 1 east edges."""
        return face_move(len(self.west_edges_down) - 1, len(self.east_edges_up) - 1)


@dataclass(frozen=True)
class Violation:
    kind: str
    message: str

    def __str__(self):
        return self.message


class PlanarMap:
    """A bipolar-oriented planar map record.

    Parameters
    ----------
    n_vertices : int
    edges : sequence of (tail, head)
        Every edge is listed with its north-going direction.
    rotations : sequence of per-vertex CCW dart lists
        Dart ``2*e`` is the north dart of edge ``e`` (based at its tail),
        ``2*e + 1`` its south dart (based at its head); ``m.rotations`` has
        this shape, so ``PlanarMap(m.n_vertices, m.edges, m.rotations,
        m.south, m.north, m.west_anchor)`` rebuilds ``m``.
    south, north : int
        Pole vertex ids.
    west_anchor : int
        Edge id of the bottom-most west-boundary edge; its tail must be south.
    """

    def __init__(self, n_vertices, edges, rotations, south, north, west_anchor):
        n_vertices, south, north, west_anchor = _ids(
            (n_vertices, south, north, west_anchor),
            "the vertex count, poles and west_anchor")
        # dart 2e is based at t, 2e + 1 at h
        tail = _ids([x for t, h in edges for x in (t, h)], "edge ends")
        rot: list[int] = []
        first = [0]
        for darts in rotations:
            rot.extend(darts)
            first.append(len(rot))
        self._build(n_vertices, tail, _ids(rot, "rotation darts"), first,
                    south, north, west_anchor)

    @classmethod
    def from_darts(cls, n_vertices, dart_tails, rotation, first, south, north,
                   west_anchor) -> PlanarMap:
        """Build a map from flat lists, checked as ``PlanarMap(...)`` checks them.

        ``dart_tails[d]`` is the vertex dart d is based at, and vertex v's
        counterclockwise rotation is ``rotation[first[v]:first[v + 1]]``.
        The lists become the map's own, so the caller must not change them.
        """
        m = cls.__new__(cls)
        m._build(n_vertices, dart_tails, rotation, first, south, north, west_anchor)
        return m

    def _build(self, n_vertices, tail, rot, first, south, north, west_anchor):
        """The construction checks, on flat lists, and the derived dart lists."""
        n_darts = len(tail)
        if not n_darts:
            raise MapStructureError("zero-edge maps are rejected")
        if n_vertices <= 0:
            raise MapStructureError("need at least one vertex")
        if min(tail) < 0 or max(tail) >= n_vertices:
            d = next(d for d, v in enumerate(tail) if not 0 <= v < n_vertices)
            raise MapStructureError(f"edge {d >> 1} endpoint out of range")
        if not (0 <= south < n_vertices and 0 <= north < n_vertices):
            raise MapStructureError("pole id out of range")
        if not (0 <= west_anchor < n_darts >> 1):
            raise MapStructureError("west_anchor out of range")
        if tail[2 * west_anchor] != south:
            raise MapStructureError("west_anchor edge must leave the south pole")

        # one pass over the darts: each is checked, in range before it
        # indexes anything, and linked to its counterclockwise predecessor
        # (-1 marks a dart not yet listed)
        prv = [-1] * n_darts
        last = 0
        for v in range(len(first) - 1):
            a, b = first[v], first[v + 1]
            for d in rot[a:b]:
                if not 0 <= d < n_darts:
                    raise MapStructureError(f"rotation at vertex {v}: bad dart {d}")
                if tail[d] != v:
                    raise MapStructureError(
                        f"rotation at vertex {v}: dart of edge {d // 2} is based at {tail[d]}")
                if prv[d] >= 0:
                    raise MapStructureError(f"dart of edge {d // 2} listed twice")
                prv[d] = last
                last = d
            if b > a:
                prv[rot[a]] = last
        if len(first) - 1 != n_vertices:
            raise MapStructureError("rotations must list every vertex")
        if len(rot) != n_darts:
            raise MapStructureError("some darts are missing from the rotation system")

        self.n_vertices = n_vertices
        self.south = south
        self.north = north
        self.west_anchor = west_anchor
        head = tail[:]
        head[0::2] = tail[1::2]
        head[1::2] = tail[0::2]
        # per dart: its tail, its head and its CCW predecessor at its tail
        self.dart_tails = tail
        self.dart_heads = head
        self.dart_prev = prv
        self._rot = rot      # vertex v's CCW rotation is rot[first[v]:first[v + 1]]
        self._first = first
        self._cache: dict[str, object] = {}

    # -- raw accessors ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.dart_tails) >> 1

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (tail, head), its north-going direction."""
        if "edges" not in self._cache:
            tail = self.dart_tails
            self._cache["edges"] = tuple(zip(tail[0::2], tail[1::2]))
        return self._cache["edges"]  # type: ignore[return-value]

    @property
    def rotations(self) -> tuple[tuple[int, ...], ...]:
        """Per-vertex CCW dart tuples."""
        if "rotations" not in self._cache:
            rot, first = self._rot, self._first
            self._cache["rotations"] = tuple(
                tuple(rot[a:b]) for a, b in zip(first, first[1:]))
        return self._cache["rotations"]  # type: ignore[return-value]

    # -- the validation pass and what it derives ---------------------------

    def scan(self) -> MapScan:
        """The validation pass over the dart lists, computed once per map."""
        if "scan" not in self._cache:
            self._cache["scan"] = _scan(self)
        return self._cache["scan"]  # type: ignore[return-value]

    def _face_scan(self) -> MapScan:
        """The scan, once its faces are sound: raises InvalidMapError on the
        outer face first, then on the first interior face that is not one
        run up its east side and one down its west side."""
        s = self.scan()
        if s.face_problem is not None:
            raise InvalidMapError([s.face_problem])
        return s

    @property
    def west_edges(self) -> tuple[int, ...]:
        """West boundary edge ids from south to north."""
        return self._face_scan().west

    @property
    def east_edges(self) -> tuple[int, ...]:
        """East boundary edge ids from south to north."""
        return self._face_scan().east

    def interior_faces(self) -> list[FaceData]:
        """Interior faces with their west/east boundary split; requires a valid map."""
        if "faces" not in self._cache:
            s = self._face_scan()
            fd, tail, head = s.face_darts, self.dart_tails, self.dart_heads
            self._cache["faces"] = [
                FaceData(index=f,
                         west_edges_down=tuple(d >> 1 for d in fd[b:c]),
                         east_edges_up=tuple(d >> 1 for d in fd[a:b]),
                         min_vertex=tail[fd[a]],
                         max_vertex=head[fd[b - 1]])
                for f, (a, b, c) in enumerate(zip(s.face_start, s.face_split,
                                                  s.face_start[1:]))]
        return self._cache["faces"]  # type: ignore[return-value]

    def face_of_dart(self) -> list[int]:
        """Face index for every dart; WEST_OUTER/EAST_OUTER for the outer sides."""
        return self._face_scan().face_of

    # -- oriented-edge orderings at a vertex ------------------------------

    def out_edges_we(self, v: int) -> list[int]:
        """North-going edges leaving v, ordered west to east; requires a valid map.

        Counterclockwise the outgoing darts run east to west, so from the
        west-most one each clockwise step (``dart_prev``) goes one edge east.
        """
        self.require_valid()
        s, prv = self.scan(), self.dart_prev
        d = s.west_out[v]
        out = []
        for _ in range(s.outdeg[v]):
            out.append(d >> 1)
            d = prv[d]
        return out

    def in_edges_we(self, v: int) -> list[int]:
        """North-going edges entering v, ordered west to east; requires a valid map.

        The incoming run ends counterclockwise just before the cut, so
        clockwise steps from the cut meet it east to west.
        """
        self.require_valid()
        s, prv = self.scan(), self.dart_prev
        d = s.cut[v]
        inn = []
        for _ in range(s.indeg[v]):
            d = prv[d]
            inn.append(d >> 1)
        inn.reverse()
        return inn

    def require_valid(self) -> None:
        report = self.scan().report
        if report:
            raise InvalidMapError(list(report))

    def __eq__(self, other):
        return isinstance(other, PlanarMap) and canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return (f"PlanarMap(V={self.n_vertices}, E={self.n_edges}, "
                f"S={self.south}, N={self.north})")


@dataclass(frozen=True, slots=True)
class MapScan:
    """What one validation pass derives from a map's dart lists.

    ``report`` is the validation report; the other fields describe the map
    only when it is empty.  ``face_problem`` is the violation that makes
    the face fields unusable (outer face first), or None.

    Per vertex: ``indeg``/``outdeg``; ``cut``, the dart that begins its
    counterclockwise north run (its east-most outgoing dart; at the north
    pole, its west-most incoming dart); ``west_out``, its west-most
    outgoing dart (-1 at the north pole).  ``topo`` lists the vertices in
    Kahn's order: the south pole first, the north pole last.

    Per dart: ``face_of``, an interior face index or WEST_OUTER/EAST_OUTER.
    Interior face f owns ``face_darts[face_start[f]:face_start[f + 1]]``,
    its east side going up (north darts) and then, from ``face_split[f]``,
    its west side coming down (south darts).  ``west`` and ``east`` are the
    boundary edges from south to north.
    """

    report: tuple[Violation, ...]
    indeg: list[int]
    outdeg: list[int]
    cut: list[int]
    west_out: list[int]
    topo: list[int]
    face_of: list[int]
    face_darts: list[int]
    face_start: list[int]
    face_split: list[int]
    west: tuple[int, ...]
    east: tuple[int, ...]
    face_problem: Violation | None


def _scan(m: PlanarMap) -> MapScan:
    n_vertices, n_darts = m.n_vertices, 2 * m.n_edges
    south, north = m.south, m.north
    tail, head, rot, first, prv = m.dart_tails, m.dart_heads, m._rot, m._first, m.dart_prev
    report: list[Violation] = []
    indeg = [0] * n_vertices
    outdeg = [0] * n_vertices
    for t, h in zip(tail[0::2], tail[1::2]):
        outdeg[t] += 1
        indeg[h] += 1
        if t == h:
            report.append(Violation("loop", f"self-loop at vertex {t}"))

    for v in range(n_vertices):
        if indeg[v] == 0 and v != south:
            report.append(Violation("source", f"interior source at vertex {v}"))
        if outdeg[v] == 0 and v != north:
            report.append(Violation("sink", f"interior sink at vertex {v}"))
    if indeg[south] > 0:
        report.append(Violation("source", "south pole has an incoming edge"))
    if outdeg[north] > 0:
        report.append(Violation("sink", "north pole has an outgoing edge"))

    # acyclicity via Kahn peeling, in first-in first-out order; the north
    # darts at v lead to its successors
    remaining = indeg[:]
    topo = [v for v in range(n_vertices) if not remaining[v]]
    for v in topo:
        for d in rot[first[v]:first[v + 1]]:
            if not d & 1:
                w = head[d]
                remaining[w] -= 1
                if not remaining[w]:
                    topo.append(w)
    if len(topo) != n_vertices:
        stuck = [v for v in range(n_vertices) if remaining[v] > 0]
        report.append(Violation("cycle", f"oriented cycle through vertices {stuck}"))

    # connectivity (undirected)
    reached = [False] * n_vertices
    reached[south] = True
    reach = [south]
    for v in reach:
        for d in rot[first[v]:first[v + 1]]:
            w = head[d]
            if not reached[w]:
                reached[w] = True
                reach.append(w)
    connected = len(reach) == n_vertices
    if not connected:
        report.append(Violation("connect", "map is not connected"))

    # around a vertex, a north dart after a south dart starts the north run,
    # and a south dart after a north dart ends it at the west-most outgoing
    # dart; a vertex with both runs has one of each
    cut = [-1] * n_vertices
    mixed = set()
    for d in range(0, n_darts, 2):
        if prv[d] & 1:
            v = tail[d]
            if cut[v] >= 0:
                mixed.add(v)
            cut[v] = d
    west_out = [-1] * n_vertices
    for d in range(1, n_darts, 2):
        p = prv[d]
        if not p & 1:
            west_out[tail[d]] = p

    (face_of, face_darts, face_start, face_split, west, east,
     face_problem) = _walk_faces(m)
    # the poles have one run each, cut at a boundary dart: the east-most
    # outgoing dart at the south pole, the west-most incoming at the north
    if face_problem is None and east:
        cut[south] = 2 * east[0]
        west_out[south] = prv[cut[south]]
        cut[north] = 2 * west[-1] + 1
        west_out[north] = -1

    if connected:
        for v in sorted(mixed):
            report.append(Violation(
                "rotation", f"rotation at vertex {v} mixes outgoing/incoming blocks"))
        # genus 0
        chi = n_vertices - m.n_edges + len(face_split) + 1
        if chi != 2:
            report.append(Violation("euler", f"Euler relation fails: V-E+F = {chi}"))
        # a broken outer face is always reported, an interior face only alone
        if face_problem is not None and (face_problem.kind == "boundary" or not report):
            report.append(face_problem)
    return MapScan(tuple(report), indeg, outdeg, cut, west_out, topo, face_of,
                   face_darts, face_start, face_split, west, east, face_problem)


_UNSEEN = -3  # face_of of a dart no face walk has reached yet


def _walk_faces(m: PlanarMap):
    """Label every dart with its face and record each interior face's sides.

    Returns (face_of, face_darts, face_start, face_split, west, east,
    face_problem), as in ``MapScan``.  Every face orbit is walked once.
    """
    # the outer face, cut at the west anchor's north dart: its north run is
    # the west boundary and must end at the north pole, its south run the
    # east boundary
    n_darts, prv, head = 2 * m.n_edges, m.dart_prev, m.dart_heads
    face_of = [_UNSEEN] * n_darts
    d0 = d = 2 * m.west_anchor
    outer = []
    while True:
        outer.append(d)
        d = prv[d ^ 1]
        if d == d0:
            break
    k = next((k for k, d in enumerate(outer) if d & 1), len(outer))
    west_up, east_down = outer[:k], outer[k:]
    face_problem = None
    if any(not d & 1 for d in east_down) or head[west_up[-1]] != m.north:
        face_problem = Violation(
            "boundary", "outer face is not one path from the south pole up "
            "its west side to the north pole and one down its east side")
    for d in west_up:
        face_of[d] = WEST_OUTER
    for d in east_down:
        face_of[d] = EAST_OUTER
    west = tuple(d >> 1 for d in west_up)
    east = tuple(d >> 1 for d in reversed(east_down))

    # interior faces, numbered in the order of their smallest darts; each
    # orbit is walked once and stored from its bottom, where a north dart
    # follows a south dart
    face_darts: list[int] = []
    face_start = [0]
    face_split: list[int] = []
    for d0 in range(n_darts):
        if face_of[d0] != _UNSEEN:
            continue
        f = len(face_split)
        a = len(face_darts)
        rises = 0
        rise = fall = a
        d = d0
        while True:
            face_of[d] = f
            face_darts.append(d)
            nxt = prv[d ^ 1]
            if (d ^ nxt) & 1:
                if d & 1:
                    rises += 1
                    rise = len(face_darts)
                else:
                    fall = len(face_darts)
            if nxt == d0:
                break
            d = nxt
        b = len(face_darts)
        if rises != 1:
            if face_problem is None:
                face_problem = Violation(
                    "face", f"interior face {f} is not one path up its "
                    "east side and one down its west side")
            face_split.append(a)
            face_start.append(b)
            continue
        if rise == b:
            rise = a
        if rise != a:
            face_darts[a:] = face_darts[rise:] + face_darts[a:rise]
        face_split.append(a + (fall - rise) % (b - a))
        face_start.append(b)

    return face_of, face_darts, face_start, face_split, west, east, face_problem


# -- validation ------------------------------------------------------------


def validate_bipolar(m: PlanarMap) -> list[Violation]:
    """Check every defining invariant; empty report iff the map is valid.

    Structural problems (bad twin/rotation tables) raise MapStructureError at
    construction time and never reach here.  The report is computed once per
    map; each call returns a copy.
    """
    return list(m.scan().report)


def face_types(m: PlanarMap) -> dict[int, FaceMove]:
    """Type (i, j) of every interior face, keyed by face index."""
    m.require_valid()
    return {fd.index: fd.face_type for fd in m.interior_faces()}


# -- trees ------------------------------------------------------------------


def nw_tree(m: PlanarMap) -> list[int | None]:
    """Parent edge of each vertex in the tree of west-most outgoing edges
    (None at its root, the north pole)."""
    m.require_valid()
    west_out = m.scan().west_out
    return [None if v == m.north else west_out[v] >> 1 for v in range(m.n_vertices)]


def se_tree(m: PlanarMap) -> list[int | None]:
    """Parent edge of each vertex in the tree of east-most incoming edges
    (None at its root, the south pole)."""
    m.require_valid()
    cut, prv = m.scan().cut, m.dart_prev
    return [None if v == m.south else prv[cut[v]] >> 1 for v in range(m.n_vertices)]


def nw_depths(m: PlanarMap) -> list[int]:
    """Distance from the north pole along the NW tree, per vertex.

    A parent is a successor, so it is met first in reverse Kahn order,
    which starts at the north pole.
    """
    m.require_valid()
    s, head = m.scan(), m.dart_heads
    west_out = s.west_out
    depth = [0] * m.n_vertices
    for v in reversed(s.topo[:-1]):
        depth[v] = depth[head[west_out[v]]] + 1
    return depth


def se_depths(m: PlanarMap) -> list[int]:
    """Distance from the south pole along the SE tree, per vertex.

    A parent is a predecessor, so it is met first in Kahn order, which
    starts at the south pole.
    """
    m.require_valid()
    s, head, prv = m.scan(), m.dart_heads, m.dart_prev
    cut = s.cut
    depth = [0] * m.n_vertices
    for v in s.topo[1:]:
        depth[v] = depth[head[prv[cut[v]]]] + 1
    return depth


# -- canonical form, reversal, dual ------------------------------------------


def canonical_form(m: PlanarMap) -> tuple:
    """Breadth-first relabeling code from the south pole's west-boundary dart.

    Each dart is coded ``2 * e + (d & 1)`` by its edge's new id ``e``.  The
    vertices the search from the south pole does not reach are entered
    afterwards, in id order, at their first listed dart, so the code
    describes the whole map.  Two maps are isomorphic as rooted oriented
    maps iff their codes agree.
    """
    rotations, heads = m.rotations, m.dart_heads
    d0 = 2 * m.west_anchor
    entry = {m.south: d0}
    order = [m.south]
    unreached = iter(range(m.n_vertices))
    e_id: dict[int, int] = {}
    code = []
    for v in order:
        darts = rotations[v]
        k = darts.index(entry[v]) if darts else 0
        enc = []
        for d in darts[k:] + darts[:k]:
            e = e_id.setdefault(d >> 1, len(e_id))
            enc.append(2 * e + (d & 1))
            w = heads[d]
            if w not in entry:
                entry[w] = d ^ 1
                order.append(w)
        code.append(tuple(enc))
        if len(code) == len(order):  # the component is done; enter the next
            w = next((w for w in unreached if w not in entry), None)
            if w is not None:
                entry[w] = rotations[w][0] if rotations[w] else -1
                order.append(w)
    return (m.n_vertices, m.n_edges, order.index(m.north), tuple(code))


def reverse_map(m: PlanarMap) -> PlanarMap:
    """The same map rotated half a turn: orientations reversed, poles swapped."""
    return PlanarMap.from_darts(m.n_vertices, m.dart_heads[:], [d ^ 1 for d in m._rot],
                                m._first[:], south=m.north, north=m.south,
                                west_anchor=m.east_edges[-1])


def dual_map(m: PlanarMap) -> PlanarMap:
    """The dual bipolar map: faces become vertices, arrows rotate to the west.

    The east outer face becomes the dual source and the west outer face the
    dual sink; applying the construction twice returns the original map with
    every orientation reversed.
    """
    m.require_valid()
    s = m.scan()
    n_int = len(s.face_split)
    # dual vertex of each face label: interior faces keep their index, and
    # WEST_OUTER (-1) and EAST_OUTER (-2) index the list from its end
    vertex_of = [*range(n_int), n_int + 1, n_int]
    # dual edge e goes from the face east of primal edge e (left of its
    # south dart) to the face west of it, so dual dart d is based at the
    # face left of primal dart d ^ 1
    face_vertex = list(map(vertex_of.__getitem__, s.face_of))
    tail = face_vertex[:]
    tail[0::2] = face_vertex[1::2]
    tail[1::2] = face_vertex[0::2]
    # the rotation at a dual vertex follows the primal face boundary: the
    # face's east side (it lies west of those edges) gives incoming dual
    # darts, its west side outgoing ones, so each dart flips to its twin;
    # then the west outer face (the dual sink) and the east one (the source)
    rot = [d ^ 1 for d in s.face_darts]
    rot += [2 * e + 1 for e in s.west]
    first = s.face_start + [len(rot)]
    rot += [2 * e for e in reversed(s.east)]
    first.append(len(rot))
    return PlanarMap.from_darts(n_int + 2, tail, rot, first,
                                south=n_int + 1, north=n_int, west_anchor=s.east[0])


# -- JSON wire format ---------------------------------------------------------


def map_to_json(m: PlanarMap) -> str:
    """Serialize to the JSON wire format (deterministic layout).

    The text is exactly ``json.dumps(obj, indent=1) + "\\n"`` for the object
    with keys vertices, south, north, west, edges and rotations.  It is
    written directly, because ``json.dumps`` with an indent runs its pure
    Python encoder: one integer per line, and the rows of both lists joined
    by the text that closes one row and opens the next.  Each dart is
    written as its signed 1-based edge ref: ``+(e+1)`` for dart ``2*e``,
    ``-(e+1)`` for dart ``2*e + 1``.
    """
    row = "\n  ],\n  [\n   "
    tail = m.dart_tails
    edges = row.join(map("%d,\n   %d".__mod__, zip(tail[0::2], tail[1::2])))
    refs = [str(-(d >> 1) - 1 if d & 1 else (d >> 1) + 1) for d in m._rot]
    first = m._first
    rotations = row.join([",\n   ".join(refs[a:b]) for a, b in zip(first, first[1:])])
    text = (f'{{\n "vertices": {m.n_vertices},\n "south": {m.south},\n'
            f' "north": {m.north},\n "west": {m.west_anchor},\n'
            f' "edges": [\n  [\n   {edges}\n  ]\n ],\n'
            f' "rotations": [\n  [\n   {rotations}\n  ]\n ]\n}}\n')
    # the rotation of an isolated vertex is empty, and json.dumps writes []
    return text.replace("[\n   \n  ]", "[]")


def map_from_json(text: str) -> PlanarMap:
    """Parse the JSON wire format; a malformed document is a MapStructureError.

    Each signed edge ref of the rotations becomes its dart: ``2*r - 2`` for
    ``r > 0``, ``-2*r - 1`` for ``r < 0``.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MapStructureError(f"map JSON is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise MapStructureError("map JSON nests too deeply") from exc
    if not isinstance(obj, dict):
        raise MapStructureError("map JSON must be an object")
    try:
        n_vertices, south, north, west = (
            obj[k] for k in ("vertices", "south", "north", "west"))
        edges, rotations = obj["edges"], obj["rotations"]
    except KeyError as exc:
        raise MapStructureError(f"map JSON missing key: {exc}") from exc
    if not (all(type(v) is int for v in (n_vertices, south, north, west))
            and _int_rows(edges) and _int_rows(rotations)
            and all(len(e) == 2 for e in edges)):
        raise MapStructureError(
            "map JSON: vertices, south, north and west must be integers, "
            "edges and rotations lists of integer lists")
    n_edges = len(edges)
    for v, refs in enumerate(rotations):
        for r in refs:
            if r == 0 or abs(r) > n_edges:
                raise MapStructureError(f"rotation at vertex {v}: bad edge ref {r}")
    darts = [[2 * r - 2 if r > 0 else -2 * r - 1 for r in refs] for refs in rotations]
    return PlanarMap(n_vertices=n_vertices, edges=edges, rotations=darts,
                     south=south, north=north, west_anchor=west)


def _int_rows(rows) -> bool:
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rows)
