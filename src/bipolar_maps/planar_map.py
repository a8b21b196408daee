"""Planar maps with a bipolar orientation.

A map is stored as a rotation system: every edge contributes two darts
(dart ``2*e`` points north, ``2*e + 1`` points south), and each vertex owns
the counterclockwise cyclic order of the darts based there.  Faces are
derived on demand as orbits of ``face_next``, which traces the face lying
to the left of each dart.

The outer face of the sphere map is split by the two poles into a west side
and an east side.  Which side is west is a convention the data must carry,
so every map records the bottom-most west-boundary edge (``west_anchor``).
Maps are immutable after construction and safe to share between threads.

One rule carries the orientation's local structure: a cycle of darts is
one run of north darts followed by one run of south darts.  Around a
vertex the outgoing darts form one run and the incoming darts the other;
around a face, the outer one included, one directed path goes up one side
and another comes down the other side.  ``_two_runs`` makes that split;
validation checks it at every vertex and every face, and the same split
gives the west-to-east edge orders at a vertex and the two sides of a face.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import InvalidMapError, MapStructureError
from .walks import FaceMove

WEST_OUTER = -1
EAST_OUTER = -2


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
        return FaceMove(len(self.west_edges_down) - 1, len(self.east_edges_up) - 1)


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
        Signed 1-based edge refs: ``+(e+1)`` is the north dart of edge ``e``
        (based at its tail), ``-(e+1)`` the south dart (based at its head).
    south, north : int
        Pole vertex ids.
    west_anchor : int
        Edge id of the bottom-most west-boundary edge; its tail must be south.
    """

    def __init__(self, n_vertices, edges, rotations, south, north, west_anchor):
        edges = tuple((int(t), int(h)) for t, h in edges)
        if not edges:
            raise MapStructureError("zero-edge maps are rejected")
        if n_vertices <= 0:
            raise MapStructureError("need at least one vertex")
        for e, (t, h) in enumerate(edges):
            if not (0 <= t < n_vertices and 0 <= h < n_vertices):
                raise MapStructureError(f"edge {e} endpoint out of range")
        if not (0 <= south < n_vertices and 0 <= north < n_vertices):
            raise MapStructureError("pole id out of range")
        if not (0 <= west_anchor < len(edges)):
            raise MapStructureError("west_anchor out of range")
        if edges[west_anchor][0] != south:
            raise MapStructureError("west_anchor edge must leave the south pole")

        self.n_vertices = n_vertices
        self.edges = edges
        self.south = south
        self.north = north
        self.west_anchor = west_anchor

        n_darts = 2 * len(edges)
        rot: list[tuple[int, ...]] = []
        seen = [False] * n_darts
        for v, refs in enumerate(rotations):
            darts = []
            for r in refs:
                if r == 0 or abs(r) > len(edges):
                    raise MapStructureError(f"rotation at vertex {v}: bad edge ref {r}")
                e = abs(r) - 1
                d = 2 * e if r > 0 else 2 * e + 1
                t = edges[e][0] if r > 0 else edges[e][1]
                if t != v:
                    raise MapStructureError(
                        f"rotation at vertex {v}: dart of edge {e} is based at {t}")
                if seen[d]:
                    raise MapStructureError(f"dart of edge {e} listed twice")
                seen[d] = True
                darts.append(d)
            rot.append(tuple(darts))
        if len(rot) != n_vertices:
            raise MapStructureError("rotations must list every vertex")
        if not all(seen):
            raise MapStructureError("some darts are missing from the rotation system")

        self.rotations = tuple(rot)
        prv = [0] * n_darts
        for darts in rot:
            for k, d in enumerate(darts):
                prv[d] = darts[k - 1]
        self._prev = prv
        self._cache: dict[str, object] = {}

    # -- raw accessors ---------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def dart_tail(self, d: int) -> int:
        t, h = self.edges[d // 2]
        return t if d % 2 == 0 else h

    def dart_head(self, d: int) -> int:
        t, h = self.edges[d // 2]
        return h if d % 2 == 0 else t

    def rotation_refs(self) -> list[list[int]]:
        """Per-vertex CCW rotations as signed 1-based edge refs."""
        return [[(d // 2 + 1) if d % 2 == 0 else -(d // 2 + 1) for d in darts]
                for darts in self.rotations]

    def face_next(self, d: int) -> int:
        """Next dart along the face to the left of ``d``.

        The face on the left of ``d`` hugs the clockwise side of the twin
        dart, so the boundary continues along the twin's CCW predecessor.
        """
        return self._prev[d ^ 1]

    # -- faces -----------------------------------------------------------

    def face_orbits(self) -> list[tuple[int, ...]]:
        """All face orbits of the sphere map (outer face included once)."""
        if "orbits" not in self._cache:
            n_darts = 2 * len(self.edges)
            seen = [False] * n_darts
            orbits = []
            for d0 in range(n_darts):
                if seen[d0]:
                    continue
                orbit = []
                d = d0
                while not seen[d]:
                    seen[d] = True
                    orbit.append(d)
                    d = self.face_next(d)
                orbits.append(tuple(orbit))
            self._cache["orbits"] = orbits
        return self._cache["orbits"]  # type: ignore[return-value]

    def _faces(self) -> tuple[tuple[int, ...], tuple[int, ...], list[FaceData], list[int]]:
        """(west, east, interior faces, face of every dart), in one pass.

        Every face is split by ``_two_runs``.  The outer face is the orbit
        through the west anchor's north dart: cut there, its north run is
        the west boundary and must end at the north pole, and its south run
        is the east boundary (both returned as edge ids from south to north).
        Raises InvalidMapError on the outer face first, then on the first
        interior face that is not one run up its east side and one down its
        west side.
        """
        if "faces" in self._cache:
            return self._cache["faces"]  # type: ignore[return-value]
        orbits = self.face_orbits()
        d0 = 2 * self.west_anchor
        outer = next(orbit for orbit in orbits if d0 in orbit)
        runs = _two_runs(outer, outer.index(d0))
        if runs is None or self.dart_head(runs[0][-1]) != self.north:
            raise InvalidMapError([Violation(
                "boundary", "outer face is not one path from the south pole up "
                "its west side to the north pole and one down its east side")])
        west_up, east_down = runs
        face_of = [0] * (2 * len(self.edges))
        for d in west_up:
            face_of[d] = WEST_OUTER
        for d in east_down:
            face_of[d] = EAST_OUTER
        faces: list[FaceData] = []
        for orbit in orbits:
            if orbit is outer:
                continue
            index = len(faces)
            runs = _two_runs(orbit)
            if runs is None:
                raise InvalidMapError([Violation(
                    "face", f"interior face {index} is not one path up its "
                    "east side and one down its west side")])
            east_up, west_down = runs
            for d in orbit:
                face_of[d] = index
            faces.append(FaceData(
                index=index,
                west_edges_down=tuple(d // 2 for d in west_down),
                east_edges_up=tuple(d // 2 for d in east_up),
                min_vertex=self.dart_tail(east_up[0]),
                max_vertex=self.dart_head(east_up[-1]),
            ))
        result = (tuple(d // 2 for d in west_up),
                  tuple(d // 2 for d in reversed(east_down)), faces, face_of)
        self._cache["faces"] = result
        return result

    @property
    def west_edges(self) -> tuple[int, ...]:
        """West boundary edge ids from south to north."""
        return self._faces()[0]

    @property
    def east_edges(self) -> tuple[int, ...]:
        """East boundary edge ids from south to north."""
        return self._faces()[1]

    def interior_faces(self) -> list[FaceData]:
        """Interior faces with their west/east boundary split; requires a valid map."""
        return self._faces()[2]

    def face_of_dart(self) -> list[int]:
        """Face index for every dart; WEST_OUTER/EAST_OUTER for the outer sides."""
        return self._faces()[3]

    # -- oriented-edge orderings at a vertex ------------------------------

    def _we_orders(self) -> tuple[list[list[int]], list[list[int]]]:
        """(out_we, in_we): per-vertex edge ids, west to east; requires validity.

        Counterclockwise, a rotation's north run goes east to west and its
        south run west to east.  The poles have a single run, so theirs is
        cut at a boundary dart: the east-most at the south pole, the
        west-most at the north pole.
        """
        if "we" in self._cache:
            return self._cache["we"]  # type: ignore[return-value]
        west, east = self.west_edges, self.east_edges
        pole_cut = {self.south: 2 * east[0], self.north: 2 * west[-1] + 1}
        out_we: list[list[int]] = []
        in_we: list[list[int]] = []
        for v, darts in enumerate(self.rotations):
            cut = pole_cut.get(v)
            north, south = _two_runs(darts, None if cut is None else darts.index(cut))
            out_we.append([d // 2 for d in reversed(north)])
            in_we.append([d // 2 for d in south])
        self._cache["we"] = (out_we, in_we)
        return out_we, in_we

    def out_edges_we(self, v: int) -> list[int]:
        """North-going edges leaving v, ordered west to east."""
        return self._we_orders()[0][v]

    def in_edges_we(self, v: int) -> list[int]:
        """North-going edges entering v, ordered west to east."""
        return self._we_orders()[1][v]

    def require_valid(self) -> None:
        report = validate_bipolar(self)
        if report:
            raise InvalidMapError(report)

    def __eq__(self, other):
        return isinstance(other, PlanarMap) and canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return (f"PlanarMap(V={self.n_vertices}, E={self.n_edges}, "
                f"S={self.south}, N={self.north})")


def _two_runs(darts: tuple[int, ...], start: int | None = None
              ) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """Cut a cycle of darts into its north run and the south run after it.

    The cut is at index ``start`` if given, else where a north dart follows
    a south dart.  Returns None unless the darts are exactly those two runs.
    """
    if start is None:
        for start, d in enumerate(darts):
            if d % 2 == 0 and darts[start - 1] % 2 == 1:
                break
        else:
            return None
    cyc = darts[start:] + darts[:start]
    for split, d in enumerate(cyc):
        if d % 2 == 1:
            break
    else:
        return cyc, ()
    for d in cyc[split:]:
        if d % 2 == 0:
            return None
    return cyc[:split], cyc[split:]


# -- validation ------------------------------------------------------------


def validate_bipolar(m: PlanarMap) -> list[Violation]:
    """Check every defining invariant; empty report iff the map is valid.

    Structural problems (bad twin/rotation tables) raise MapStructureError at
    construction time and never reach here.  The report is computed once per
    map; each call returns a copy.
    """
    if "report" not in m._cache:
        m._cache["report"] = _validate(m)
    return list(m._cache["report"])  # type: ignore[call-overload]


def _validate(m: PlanarMap) -> list[Violation]:
    report: list[Violation] = []
    indeg = [0] * m.n_vertices
    outdeg = [0] * m.n_vertices
    for t, h in m.edges:
        outdeg[t] += 1
        indeg[h] += 1
        if t == h:
            report.append(Violation("loop", f"self-loop at vertex {t}"))

    for v in range(m.n_vertices):
        if indeg[v] == 0 and v != m.south:
            report.append(Violation("source", f"interior source at vertex {v}"))
        if outdeg[v] == 0 and v != m.north:
            report.append(Violation("sink", f"interior sink at vertex {v}"))
    if indeg[m.south] > 0:
        report.append(Violation("source", "south pole has an incoming edge"))
    if outdeg[m.north] > 0:
        report.append(Violation("sink", "north pole has an outgoing edge"))

    # acyclicity via Kahn peeling; the north darts at v lead to its successors
    remaining = indeg[:]
    queue = deque(v for v in range(m.n_vertices) if remaining[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for d in m.rotations[v]:
            if d % 2:
                continue
            w = m.dart_head(d)
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    if seen != m.n_vertices:
        stuck = [v for v in range(m.n_vertices) if remaining[v] > 0]
        report.append(Violation("cycle", f"oriented cycle through vertices {stuck}"))

    # connectivity (undirected)
    reach = {m.south}
    stack = [m.south]
    while stack:
        v = stack.pop()
        for d in m.rotations[v]:
            w = m.dart_head(d)
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != m.n_vertices:
        report.append(Violation("connect", "map is not connected"))
        return report  # everything face-based below would be meaningless

    # one run of outgoing darts and one of incoming darts at every vertex
    for v, darts in enumerate(m.rotations):
        if indeg[v] and outdeg[v] and _two_runs(darts) is None:
            report.append(Violation(
                "rotation", f"rotation at vertex {v} mixes outgoing/incoming blocks"))

    # genus 0
    f = len(m.face_orbits())
    if m.n_vertices - m.n_edges + f != 2:
        report.append(Violation(
            "euler", f"Euler relation fails: V-E+F = {m.n_vertices - m.n_edges + f}"))

    # one run up and one run down around every face, the outer one included;
    # a broken outer face is always reported, an interior face only alone
    try:
        m._faces()
    except InvalidMapError as exc:
        if exc.report[0].kind == "boundary" or not report:
            report.extend(exc.report)
    return report


def face_types(m: PlanarMap) -> dict[int, FaceMove]:
    """Type (i, j) of every interior face, keyed by face index."""
    m.require_valid()
    return {fd.index: fd.face_type for fd in m.interior_faces()}


# -- trees ------------------------------------------------------------------


def nw_tree(m: PlanarMap) -> list[int | None]:
    """Parent edge of each vertex in the tree of west-most outgoing edges
    (None at its root, the north pole)."""
    m.require_valid()
    return [None if v == m.north else m.out_edges_we(v)[0]
            for v in range(m.n_vertices)]


def se_tree(m: PlanarMap) -> list[int | None]:
    """Parent edge of each vertex in the tree of east-most incoming edges
    (None at its root, the south pole)."""
    m.require_valid()
    return [None if v == m.south else m.in_edges_we(v)[-1]
            for v in range(m.n_vertices)]


def _depths(m: PlanarMap, parent: list[int | None], end: int) -> list[int]:
    """Depth of every vertex in a parent-edge tree; endpoint ``end`` (0 the
    tail, 1 the head) of a vertex's parent edge is its parent vertex."""
    depth = [-1] * m.n_vertices
    depth[parent.index(None)] = 0
    edges = m.edges
    for v in range(m.n_vertices):
        path = []
        u = v
        while depth[u] < 0:
            path.append(u)
            u = edges[parent[u]][end]
        d = depth[u]
        for w in reversed(path):
            d += 1
            depth[w] = d
    return depth


def nw_depths(m: PlanarMap) -> list[int]:
    """Distance from the north pole along the NW tree, per vertex."""
    return _depths(m, nw_tree(m), 1)


def se_depths(m: PlanarMap) -> list[int]:
    """Distance from the south pole along the SE tree, per vertex."""
    return _depths(m, se_tree(m), 0)


# -- canonical form, reversal, dual ------------------------------------------


def canonical_form(m: PlanarMap) -> tuple:
    """Breadth-first relabeling code from the south pole's west-boundary dart.

    Two maps are isomorphic as rooted oriented maps iff their codes agree.
    """
    d0 = 2 * m.west_anchor
    v_id = {m.dart_tail(d0): 0}
    e_id: dict[int, int] = {}
    entry = {m.dart_tail(d0): d0}
    order = [m.dart_tail(d0)]
    queue = deque([m.dart_tail(d0)])
    while queue:
        v = queue.popleft()
        darts = m.rotations[v]
        k = darts.index(entry[v])
        for d in darts[k:] + darts[:k]:
            e = d // 2
            if e not in e_id:
                e_id[e] = len(e_id)
            w = m.dart_head(d)
            if w not in v_id:
                v_id[w] = len(v_id)
                entry[w] = d ^ 1
                order.append(w)
                queue.append(w)
    code = []
    for v in order:
        darts = m.rotations[v]
        k = darts.index(entry[v])
        enc = tuple((e_id[d // 2], 1 if d % 2 == 0 else -1)
                    for d in darts[k:] + darts[:k])
        code.append(enc)
    return (m.n_vertices, m.n_edges, v_id[m.north], tuple(code))


def reverse_map(m: PlanarMap) -> PlanarMap:
    """The same map rotated half a turn: orientations reversed, poles swapped."""
    edges = tuple((h, t) for t, h in m.edges)
    rotations = []
    for darts in m.rotations:
        rotations.append(tuple((d // 2 + 1) if d % 2 == 1 else -(d // 2 + 1)
                               for d in darts))
    return PlanarMap(
        n_vertices=m.n_vertices,
        edges=edges,
        rotations=rotations,
        south=m.north,
        north=m.south,
        west_anchor=m.east_edges[-1],
    )


def dual_map(m: PlanarMap) -> PlanarMap:
    """The dual bipolar map: faces become vertices, arrows rotate to the west.

    The east outer face becomes the dual source and the west outer face the
    dual sink; applying the construction twice returns the original map with
    every orientation reversed.
    """
    m.require_valid()
    faces = m.interior_faces()
    n_int = len(faces)
    v_of = {WEST_OUTER: n_int, EAST_OUTER: n_int + 1}
    for fd in faces:
        v_of[fd.index] = fd.index
    face_of = m.face_of_dart()

    # dual edge per primal edge, oriented from the east face to the west face
    dual_edges = []
    for e in range(m.n_edges):
        west_face = face_of[2 * e]
        east_face = face_of[2 * e + 1]
        dual_edges.append((v_of[east_face], v_of[west_face]))

    # rotation at a dual vertex follows the primal face boundary
    rotations: list[list[int]] = [[] for _ in range(n_int + 2)]
    for fd in faces:
        refs = []
        for e in fd.east_edges_up:      # this face is west of e: incoming dual dart
            refs.append(-(e + 1))
        for e in fd.west_edges_down:    # this face is east of e: outgoing dual dart
            refs.append(e + 1)
        rotations[fd.index] = refs
    west, east = m.west_edges, m.east_edges
    rotations[v_of[WEST_OUTER]] = [-(e + 1) for e in west]
    rotations[v_of[EAST_OUTER]] = [(e + 1) for e in reversed(east)]

    return PlanarMap(
        n_vertices=n_int + 2,
        edges=dual_edges,
        rotations=rotations,
        south=v_of[EAST_OUTER],
        north=v_of[WEST_OUTER],
        west_anchor=east[0],
    )


# -- JSON wire format ---------------------------------------------------------


def map_to_json(m: PlanarMap) -> str:
    """Serialize to the JSON wire format (deterministic layout)."""
    obj = {
        "vertices": m.n_vertices,
        "south": m.south,
        "north": m.north,
        "west": m.west_anchor,
        "edges": [[t, h] for t, h in m.edges],
        "rotations": m.rotation_refs(),
    }
    return json.dumps(obj, indent=1) + "\n"


def map_from_json(text: str) -> PlanarMap:
    """Parse the JSON wire format; a malformed document is a MapStructureError."""
    obj = json.loads(text)
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
    return PlanarMap(n_vertices=n_vertices, edges=edges, rotations=rotations,
                     south=south, north=north, west_anchor=west)


def _int_rows(rows) -> bool:
    return isinstance(rows, list) and all(
        isinstance(r, list) and all(type(x) is int for x in r) for r in rows)
