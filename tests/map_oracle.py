"""Reference implementation of the map layer's derived data, for the tests.

These are the orbit-and-tuple versions of what ``planar_map`` derives in
its single validation pass: face orbits as tuples, each cut by
``two_runs``, the validation report, the west-to-east edge orders at each
vertex, and tree depths by walking parent chains.  They read only the
map's public accessors (``edges``, ``rotations``) and share
no code with the flat passes they check.
"""

from collections import deque

from bipolar_maps.errors import InvalidMapError
from bipolar_maps.planar_map import EAST_OUTER, WEST_OUTER, FaceData, Violation


def two_runs(darts, start=None):
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


def dart_head(m, d):
    t, h = m.edges[d // 2]
    return h if d % 2 == 0 else t


def dart_tail(m, d):
    return dart_head(m, d ^ 1)


def face_orbits(m):
    """All face orbits of the sphere map (outer face included once).

    The face on the left of a dart hugs the clockwise side of its twin, so
    the boundary goes on along the twin's counterclockwise predecessor.
    """
    n_darts = 2 * len(m.edges)
    face_next = [0] * n_darts
    for rot in m.rotations:
        for before, d in zip(rot[-1:] + rot[:-1], rot):
            face_next[d ^ 1] = before
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
            d = face_next[d]
        orbits.append(tuple(orbit))
    return orbits


def faces(m):
    """(west, east, interior faces, face of every dart); raises
    InvalidMapError on the outer face first, then on the first bad
    interior face."""
    orbits = face_orbits(m)
    d0 = 2 * m.west_anchor
    outer = next(orbit for orbit in orbits if d0 in orbit)
    runs = two_runs(outer, outer.index(d0))
    if runs is None or dart_head(m, runs[0][-1]) != m.north:
        raise InvalidMapError([Violation(
            "boundary", "outer face is not one path from the south pole up "
            "its west side to the north pole and one down its east side")])
    west_up, east_down = runs
    face_of = [0] * (2 * len(m.edges))
    for d in west_up:
        face_of[d] = WEST_OUTER
    for d in east_down:
        face_of[d] = EAST_OUTER
    found = []
    for orbit in orbits:
        if orbit is outer:
            continue
        index = len(found)
        runs = two_runs(orbit)
        if runs is None:
            raise InvalidMapError([Violation(
                "face", f"interior face {index} is not one path up its "
                "east side and one down its west side")])
        east_up, west_down = runs
        for d in orbit:
            face_of[d] = index
        found.append(FaceData(
            index=index,
            west_edges_down=tuple(d // 2 for d in west_down),
            east_edges_up=tuple(d // 2 for d in east_up),
            min_vertex=dart_tail(m, east_up[0]),
            max_vertex=dart_head(m, east_up[-1]),
        ))
    return (tuple(d // 2 for d in west_up),
            tuple(d // 2 for d in reversed(east_down)), found, face_of)


def validate(m):
    """The full validation report, check by check."""
    report = []
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

    remaining = indeg[:]
    queue = deque(v for v in range(m.n_vertices) if remaining[v] == 0)
    seen = 0
    while queue:
        v = queue.popleft()
        seen += 1
        for d in m.rotations[v]:
            if d % 2:
                continue
            w = dart_head(m, d)
            remaining[w] -= 1
            if remaining[w] == 0:
                queue.append(w)
    if seen != m.n_vertices:
        stuck = [v for v in range(m.n_vertices) if remaining[v] > 0]
        report.append(Violation("cycle", f"oriented cycle through vertices {stuck}"))

    reach = {m.south}
    stack = [m.south]
    while stack:
        v = stack.pop()
        for d in m.rotations[v]:
            w = dart_head(m, d)
            if w not in reach:
                reach.add(w)
                stack.append(w)
    if len(reach) != m.n_vertices:
        report.append(Violation("connect", "map is not connected"))
        return report

    for v, darts in enumerate(m.rotations):
        if indeg[v] and outdeg[v] and two_runs(darts) is None:
            report.append(Violation(
                "rotation", f"rotation at vertex {v} mixes outgoing/incoming blocks"))

    f = len(face_orbits(m))
    if m.n_vertices - m.n_edges + f != 2:
        report.append(Violation(
            "euler", f"Euler relation fails: V-E+F = {m.n_vertices - m.n_edges + f}"))

    try:
        faces(m)
    except InvalidMapError as exc:
        if exc.report[0].kind == "boundary" or not report:
            report.extend(exc.report)
    return report


def we_orders(m):
    """(out_we, in_we): per-vertex edge ids, west to east; requires validity."""
    west, east, _, _ = faces(m)
    pole_cut = {m.south: 2 * east[0], m.north: 2 * west[-1] + 1}
    out_we, in_we = [], []
    for v, darts in enumerate(m.rotations):
        cut = pole_cut.get(v)
        north, south = two_runs(darts, None if cut is None else darts.index(cut))
        out_we.append([d // 2 for d in reversed(north)])
        in_we.append([d // 2 for d in south])
    return out_we, in_we


def trees(m):
    """(nw parent edge, se parent edge) per vertex, None at each root."""
    out_we, in_we = we_orders(m)
    nw = [None if v == m.north else out_we[v][0] for v in range(m.n_vertices)]
    se = [None if v == m.south else in_we[v][-1] for v in range(m.n_vertices)]
    return nw, se


def depths(m, parent, end):
    """Depth of every vertex in a parent-edge tree; endpoint ``end`` (0 the
    tail, 1 the head) of a vertex's parent edge is its parent vertex."""
    depth = [-1] * m.n_vertices
    depth[parent.index(None)] = 0
    for v in range(m.n_vertices):
        path = []
        u = v
        while depth[u] < 0:
            path.append(u)
            u = m.edges[parent[u]][end]
        d = depth[u]
        for w in reversed(path):
            d += 1
            depth[w] = d
    return depth
