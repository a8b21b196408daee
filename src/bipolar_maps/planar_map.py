"""Planar maps with a bipolar orientation.

A map is stored as a rotation system: every edge contributes two darts
(dart ``2*e`` points north, ``2*e + 1`` points south), and each vertex owns
the counterclockwise cyclic order of the darts based there.  Faces are
derived on demand as orbits of ``next_at_tail(twin(d))``, which traces the
face lying to the left of each dart.

The outer face of the sphere map is split by the two poles into a west side
and an east side.  Which side is west is a convention the data must carry,
so every map records the bottom-most west-boundary edge (``west_anchor``).
Maps are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass

from .errors import InvalidMapError, MapStructureError

WEST_OUTER = -1
EAST_OUTER = -2


@dataclass(frozen=True)
class FaceType:
    """Face shape (i, j): i + 1 west edges, j + 1 east edges, degree i + j + 2."""

    i: int
    j: int

    @property
    def degree(self) -> int:
        return self.i + self.j + 2


@dataclass(frozen=True)
class FaceData:
    """One interior face: boundary edges split at the unique max/min vertex."""

    index: int
    west_edges_down: tuple[int, ...]  # edges with this face on their east, top to bottom
    east_edges_up: tuple[int, ...]    # edges with this face on their west, bottom to top
    min_vertex: int
    max_vertex: int

    @property
    def face_type(self) -> FaceType:
        return FaceType(len(self.west_edges_down) - 1, len(self.east_edges_up) - 1)


@dataclass(frozen=True)
class OrientedTree:
    """Parent mapping from each non-root vertex to an incident edge id."""

    root: int
    parent_edge: dict[int, int]

    def depths(self, parent_vertex: dict[int, int]) -> dict[int, int]:
        depth = {self.root: 0}
        for v in self.parent_edge:
            path = []
            u = v
            while u not in depth:
                path.append(u)
                u = parent_vertex[u]
            d = depth[u]
            for w in reversed(path):
                d += 1
                depth[w] = d
        return depth


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
        nxt = [0] * n_darts
        prv = [0] * n_darts
        for darts in rot:
            for k, d in enumerate(darts):
                nxt[d] = darts[(k + 1) % len(darts)]
                prv[d] = darts[k - 1]
        self._next = nxt
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

    def next_at_tail(self, d: int) -> int:
        return self._next[d]

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

    def _outer_orbit_index(self) -> int:
        d0 = 2 * self.west_anchor
        for k, orbit in enumerate(self.face_orbits()):
            if d0 in orbit:
                return k
        raise AssertionError("unreachable")

    def _boundary(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(west edge ids S->N, east edge ids S->N); raises on a broken boundary."""
        if "boundary" in self._cache:
            return self._cache["boundary"]  # type: ignore[return-value]
        orbit = self.face_orbits()[self._outer_orbit_index()]
        d0 = 2 * self.west_anchor
        k0 = orbit.index(d0)
        cyc = orbit[k0:] + orbit[:k0]
        west: list[int] = []
        east_down: list[int] = []
        i = 0
        while i < len(cyc) and cyc[i] % 2 == 0:
            west.append(cyc[i] // 2)
            if self.dart_head(cyc[i]) == self.north:
                i += 1
                break
            i += 1
        rest = cyc[i:]
        if not west or self.dart_head(2 * west[-1]) != self.north:
            raise InvalidMapError([Violation(
                "boundary", "outer face west side does not run from south to north")])
        prev = self.south
        for e in west:
            if self.edges[e][0] != prev:
                raise InvalidMapError([Violation(
                    "boundary", "west boundary is not a directed path from the south pole")])
            prev = self.edges[e][1]
        cur = self.north
        for d in rest:
            if d % 2 == 0 or self.dart_tail(d) != cur:
                raise InvalidMapError([Violation(
                    "boundary", "outer face east side does not run from north to south")])
            east_down.append(d // 2)
            cur = self.dart_head(d)
        if cur != self.south:
            raise InvalidMapError([Violation(
                "boundary", "outer face east side does not end at the south pole")])
        result = (tuple(west), tuple(reversed(east_down)))
        self._cache["boundary"] = result
        return result

    @property
    def west_edges(self) -> tuple[int, ...]:
        """West boundary edge ids from south to north."""
        return self._boundary()[0]

    @property
    def east_edges(self) -> tuple[int, ...]:
        """East boundary edge ids from south to north."""
        return self._boundary()[1]

    def interior_faces(self) -> list[FaceData]:
        """Interior faces with their west/east boundary split; requires a valid map."""
        if "ifaces" in self._cache:
            return self._cache["ifaces"]  # type: ignore[return-value]
        outer = self._outer_orbit_index()
        faces = []
        for k, orbit in enumerate(self.face_orbits()):
            if k == outer:
                continue
            faces.append(_split_face(self, len(faces), orbit))
        self._cache["ifaces"] = faces
        return faces

    def face_of_dart(self) -> list[int]:
        """Face index for every dart; WEST_OUTER/EAST_OUTER for the outer sides."""
        if "face_of" in self._cache:
            return self._cache["face_of"]  # type: ignore[return-value]
        west, east = self._boundary()
        outer = self._outer_orbit_index()
        face_of = [0] * (2 * len(self.edges))
        idx = 0
        for k, orbit in enumerate(self.face_orbits()):
            if k == outer:
                continue
            for d in orbit:
                face_of[d] = idx
            idx += 1
        for e in west:
            face_of[2 * e] = WEST_OUTER
        for e in east:
            face_of[2 * e + 1] = EAST_OUTER
        self._cache["face_of"] = face_of
        return face_of

    # -- oriented-edge orderings at a vertex ------------------------------

    def _we_orders(self) -> tuple[list[list[int]], list[list[int]]]:
        """(out_we, in_we): per-vertex edge ids, west to east; requires validity."""
        if "we" in self._cache:
            return self._cache["we"]  # type: ignore[return-value]
        west, east = self._boundary()
        out_we: list[list[int]] = [[] for _ in range(self.n_vertices)]
        in_we: list[list[int]] = [[] for _ in range(self.n_vertices)]
        for v, darts in enumerate(self.rotations):
            outs = [d % 2 == 0 for d in darts]
            if all(outs):
                anchor = 2 * west[0]
                k = darts.index(anchor)
                cyc = darts[k + 1:] + darts[:k + 1]  # ends at the west-most dart
                out_we[v] = [d // 2 for d in reversed(cyc)]
            elif not any(outs):
                anchor = 2 * west[-1] + 1  # south dart of the top west edge
                k = darts.index(anchor)
                cyc = darts[k:] + darts[:k]
                in_we[v] = [d // 2 for d in cyc]
            else:
                n = len(darts)
                start = next(k for k in range(n)
                             if outs[k] and not outs[(k - 1) % n])
                cyc = darts[start:] + darts[:start]
                split = sum(1 for d in cyc if d % 2 == 0)
                out_we[v] = [d // 2 for d in reversed(cyc[:split])]
                in_we[v] = [d // 2 for d in cyc[split:]]
        self._cache["we"] = (out_we, in_we)
        return out_we, in_we

    def out_edges_we(self, v: int) -> list[int]:
        """North-going edges leaving v, ordered west to east."""
        return self._we_orders()[0][v]

    def in_edges_we(self, v: int) -> list[int]:
        """North-going edges entering v, ordered west to east."""
        return self._we_orders()[1][v]

    def require_valid(self) -> None:
        if "report" not in self._cache:
            self._cache["report"] = validate_bipolar(self)
        report = self._cache["report"]
        if report:
            raise InvalidMapError(report)

    def __eq__(self, other):
        return isinstance(other, PlanarMap) and canonical_form(self) == canonical_form(other)

    def __hash__(self):
        return hash(canonical_form(self))

    def __repr__(self):
        return (f"PlanarMap(V={self.n_vertices}, E={self.n_edges}, "
                f"S={self.south}, N={self.north})")


def _split_face(m: PlanarMap, index: int, orbit: tuple[int, ...]) -> FaceData:
    n = len(orbit)
    norths = [k for k in range(n) if orbit[k] % 2 == 0]
    souths = [k for k in range(n) if orbit[k] % 2 == 1]
    if not norths or not souths:
        raise InvalidMapError([Violation(
            "face", f"interior face {index} has a one-sided boundary")])
    start = next((k for k in range(n)
                  if orbit[k] % 2 == 0 and orbit[(k - 1) % n] % 2 == 1), None)
    cyc = orbit[start:] + orbit[:start]
    split = sum(1 for d in cyc if d % 2 == 0)
    if any(d % 2 == 1 for d in cyc[:split]) or any(d % 2 == 0 for d in cyc[split:]):
        raise InvalidMapError([Violation(
            "face", f"interior face {index} has no unique max/min split")])
    east_up = [d // 2 for d in cyc[:split]]
    west_down = [d // 2 for d in cyc[split:]]
    return FaceData(
        index=index,
        west_edges_down=tuple(west_down),
        east_edges_up=tuple(east_up),
        min_vertex=m.dart_tail(cyc[0]),
        max_vertex=m.dart_head(cyc[split - 1]),
    )


# -- validation ------------------------------------------------------------


def validate_bipolar(m: PlanarMap) -> list[Violation]:
    """Check every defining invariant; empty report iff the map is valid.

    Structural problems (bad twin/rotation tables) raise MapStructureError at
    construction time and never reach here.
    """
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

    # acyclicity via Kahn peeling
    remaining = indeg[:]
    adj: list[list[int]] = [[] for _ in range(m.n_vertices)]
    for t, h in m.edges:
        adj[t].append(h)
    queue = deque(v for v in range(m.n_vertices) if remaining[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for w in adj[v]:
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    if seen != m.n_vertices:
        stuck = [v for v in range(m.n_vertices) if remaining[v] > 0]
        report.append(Violation("cycle", f"oriented cycle through vertices {stuck}"))

    # connectivity (undirected)
    reach = {m.south}
    stack = [m.south]
    und: list[list[int]] = [[] for _ in range(m.n_vertices)]
    for t, h in m.edges:
        und[t].append(h)
        und[h].append(t)
    while stack:
        v = stack.pop()
        for w in und[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != m.n_vertices:
        report.append(Violation("connect", "map is not connected"))
        return report  # everything face-based below would be meaningless

    # one outgoing block + one incoming block at every vertex
    for v, darts in enumerate(m.rotations):
        n = len(darts)
        flips = sum(1 for k in range(n)
                    if (darts[k] % 2 == 0) != (darts[(k + 1) % n] % 2 == 0))
        if flips > 2:
            report.append(Violation(
                "rotation", f"rotation at vertex {v} mixes outgoing/incoming blocks"))

    # genus 0
    f = len(m.face_orbits())
    if m.n_vertices - m.n_edges + f != 2:
        report.append(Violation(
            "euler", f"Euler relation fails: V-E+F = {m.n_vertices - m.n_edges + f}"))

    # outer boundary well-formed, poles on it
    try:
        west, east = m._boundary()
    except InvalidMapError as exc:
        report.extend(exc.report)
        return report

    if report:
        return report

    # interior faces split at a unique max/min; degree bookkeeping
    try:
        faces = m.interior_faces()
    except InvalidMapError as exc:
        report.extend(exc.report)
        return report
    total = sum(fd.face_type.degree for fd in faces)
    if total + len(west) + len(east) != 2 * m.n_edges:
        report.append(Violation(
            "degree", "face degrees and boundary length do not add up to 2E"))
    return report


def face_types(m: PlanarMap) -> dict[int, FaceType]:
    """Type (i, j) of every interior face, keyed by face index."""
    m.require_valid()
    return {fd.index: fd.face_type for fd in m.interior_faces()}


# -- trees ------------------------------------------------------------------


def nw_tree(m: PlanarMap) -> OrientedTree:
    """Spanning tree of west-most outgoing edges, rooted at the north pole."""
    m.require_valid()
    parent = {v: m.out_edges_we(v)[0] for v in range(m.n_vertices) if v != m.north}
    return OrientedTree(root=m.north, parent_edge=parent)


def se_tree(m: PlanarMap) -> OrientedTree:
    """Spanning tree of east-most incoming edges, rooted at the south pole."""
    m.require_valid()
    parent = {v: m.in_edges_we(v)[-1] for v in range(m.n_vertices) if v != m.south}
    return OrientedTree(root=m.south, parent_edge=parent)


def nw_depths(m: PlanarMap) -> dict[int, int]:
    """Distance from the north pole along the NW tree, per vertex."""
    tree = nw_tree(m)
    parent_vertex = {v: m.edges[e][1] for v, e in tree.parent_edge.items()}
    return tree.depths(parent_vertex)


def se_depths(m: PlanarMap) -> dict[int, int]:
    """Distance from the south pole along the SE tree, per vertex."""
    tree = se_tree(m)
    parent_vertex = {v: m.edges[e][0] for v, e in tree.parent_edge.items()}
    return tree.depths(parent_vertex)


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
