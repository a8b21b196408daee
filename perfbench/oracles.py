"""Independent checks on the program's outputs.

Nothing here calls the code it checks: walk counts come from a forward
recurrence written out below, walks are checked by re-adding their
increments, and drawings by a linear-time certificate with exact integer
predicates instead of the library's own pairwise verifier.
"""

from __future__ import annotations

from math import lcm


def quadrant_walk_count(k: int, m: int, n: int, steps: int) -> int:
    """Walks of ``steps`` steps from (0, m) to (n, 0) in the quadrant.

    Steps are the edge move (1, -1) and the face moves (-i, k - 2 - i) of a
    k-gon.  Forward recurrence over positions; a position is kept only if
    the end is still reachable (y falls and x rises by at most one a step).
    """
    deltas = [(1, -1)] + [(-i, k - 2 - i) for i in range(k - 1)]
    layer = {(0, m): 1}
    for t in range(steps):
        left = steps - t - 1
        nxt: dict[tuple[int, int], int] = {}
        for (x, y), c in layer.items():
            for dx, dy in deltas:
                p = (x + dx, y + dy)
                if p[0] < 0 or p[1] < 0 or p[1] > left or n - p[0] > left:
                    continue
                nxt[p] = nxt.get(p, 0) + c
        layer = nxt
    return layer.get((n, 0), 0)


def walk_problem(walk, start, end, steps, face_degrees=None) -> str | None:
    """Why ``walk`` is not a quadrant walk with the given shape, or None.

    ``face_degrees``, when given, is the set of allowed face degrees.
    """
    if tuple(walk.start) != start:
        return f"starts at {walk.start}, not {start}"
    if len(walk.moves) != steps:
        return f"has {len(walk.moves)} steps, not {steps}"
    x, y = start
    for mv in walk.moves:
        dx, dy = mv.delta
        if (dx, dy) != (1, -1):
            if dx > 0 or dy < 0:
                return f"illegal step {(dx, dy)}"
            if face_degrees is not None and dy - dx + 2 not in face_degrees:
                return f"face of degree {dy - dx + 2} not allowed"
        x += dx
        y += dy
        if x < 0 or y < 0:
            return f"leaves the quadrant at {(x, y)}"
    if (x, y) != end:
        return f"ends at {(x, y)}, not {end}"
    return None


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def drawing_problems(m, coords) -> list[str]:
    """Certificate that ``coords`` draw the triangulated disk ``m`` upward and planar.

    Three parts, each linear in the map size:

    * every edge rises strictly;
    * every interior face is a triangle whose middle corner lies strictly
      on its own side (west or east) of the chord from its lowest to its
      highest corner, i.e. it is positively oriented in the map's rotation
      order;
    * at every height strictly between the poles the west boundary chain
      lies strictly west of the east boundary chain (one merge sweep).

    With all triangles positively oriented and a simple boundary, the
    winding number of the boundary counts how many triangles cover each
    point, so no two triangles overlap and the drawing is an embedding.
    ``coords`` maps vertex ids to exact (x, y) Fractions.
    """
    scale = 1
    for x, y in coords.values():
        scale = lcm(scale, x.denominator, y.denominator)
    pos = {v: (int(x * scale), int(y * scale)) for v, (x, y) in coords.items()}
    if len(pos) != m.n_vertices:
        return [f"{len(pos)} coordinates for {m.n_vertices} vertices"]

    problems = [f"edge {e} does not rise" for e, (t, h) in enumerate(m.edges)
                if not pos[t][1] < pos[h][1]]
    if problems:
        return problems

    for fd in m.interior_faces():
        lo, hi = pos[fd.min_vertex], pos[fd.max_vertex]
        if len(fd.west_edges_down) == 2 and len(fd.east_edges_up) == 1:
            mid = m.edges[fd.west_edges_down[0]][0]
            ok = _cross(lo, hi, pos[mid]) > 0
        elif len(fd.west_edges_down) == 1 and len(fd.east_edges_up) == 2:
            mid = m.edges[fd.east_edges_up[0]][1]
            ok = _cross(lo, hi, pos[mid]) < 0
        else:
            problems.append(f"face {fd.index} is not a triangle")
            continue
        if not ok:
            problems.append(f"face {fd.index} is not positively oriented")

    west = [m.south] + [m.edges[e][1] for e in m.west_edges]
    east = [m.south] + [m.edges[e][1] for e in m.east_edges]
    problems += _chain_side_problems(west, east, pos, +1, "west")
    problems += _chain_side_problems(east, west, pos, -1, "east")
    return problems


def _chain_side_problems(chain, other, pos, sign, label) -> list[str]:
    """Each inner vertex of ``chain`` strictly on side ``sign`` of ``other``."""
    out = []
    j = 0
    for v in chain[1:-1]:
        y = pos[v][1]
        while pos[other[j + 1]][1] < y:
            j += 1
        a, b = pos[other[j]], pos[other[j + 1]]
        if _cross(a, b, pos[v]) * sign <= 0:
            out.append(f"{label} boundary vertex {v} is not strictly {label} "
                       "of the other boundary")
    return out
