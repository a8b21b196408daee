"""SVG rendering of bipolar maps with their trees and interface path.

Every valid map gets one certified upward drawing on an integer grid,
``embedding.visibility_drawing``, unless the caller passes a drawing (say,
``upward_embed``'s).  An edge with bends is one ``<polyline>`` through
them and every other edge a straight ``<line>``.  Edges carry CSS
classes: west-most-outgoing tree edges are ``nw-tree`` (red),
east-most-incoming tree edges ``se-tree`` (blue), everything else plain
``edge``; the ``interface`` polyline (green) walks the midpoints of the
edges' first segments in interface order, dipping through each face it
crosses, whose corners it reads from the scan's flat face lists.  Output
is byte deterministic for fixed inputs: stable element order and 6
significant digits after an affine fit of every vertex and bend to a fixed
viewbox, computed once per point before any element is written; each
point's coordinates are formatted once, and its edge ends and ``<circle>``
reuse the strings.
"""

from __future__ import annotations

from .embedding import Embedding, visibility_drawing
from .planar_map import PlanarMap, nw_tree, se_tree
from .sewing import interface_order
from .walks import FaceMove

VIEW_W = 800.0
VIEW_H = 800.0
MARGIN = 40.0

_STYLE = (
    ".edge{stroke:#999;stroke-width:1.5;fill:none}"
    ".nw-tree{stroke:#cc2222;stroke-width:2.5}"
    ".se-tree{stroke:#2244cc;stroke-width:2.5}"
    ".nw-tree.se-tree{stroke:#882288}"
    ".interface{stroke:#22aa44;stroke-width:1.2;fill:none;stroke-dasharray:4 3}"
    ".vertex{fill:#222}.pole{fill:#000}"
)


def _fit_floats(points: dict) -> dict:
    """Float coordinates of exact points (keyed by vertex, or a bend by
    (edge, index)), each axis scaled by 2^-k so that none overflows.

    k = 0 unless the axis has coordinates of more than 1 000 integer bits.
    Scaling by a power of two is exact in binary floating point, and the
    affine fit to the viewbox cancels it.
    """
    ratios = {k: (x.as_integer_ratio(), y.as_integer_ratio())
              for k, (x, y) in points.items()}
    shifts = []
    for axis in (0, 1):
        top = max(abs(p[axis][0]) // p[axis][1] for p in ratios.values())
        shifts.append(max(0, top.bit_length() - 1000))
    kx, ky = shifts
    return {k: (xn / (xd << kx), yn / (yd << ky))
            for k, ((xn, xd), (yn, yd)) in ratios.items()}


def render_svg(m: PlanarMap, embedding: Embedding | None = None) -> str:
    """Draw the map: ``embedding``, or else ``visibility_drawing(m)``, which
    is certified.  An edge with bends is one ``<polyline>`` through them,
    and every other edge a ``<line>``."""
    if embedding is None:
        embedding = visibility_drawing(m)
    # the i-th bend of edge e is the point (e, i), beside the vertices
    bends = embedding.bends
    coords = _fit_floats({**embedding.coords, **{(e, i): p for e, ps in bends.items()
                                                 for i, p in enumerate(ps)}})

    xs = [p[0] for p in coords.values()]
    ys = [p[1] for p in coords.values()]
    x0, y0 = min(xs), min(ys)
    sx = (VIEW_W - 2 * MARGIN) / (max(xs) - x0 or 1.0)
    sy = (VIEW_H - 2 * MARGIN) / (max(ys) - y0 or 1.0)
    fx = {v: MARGIN + (x - x0) * sx for v, (x, _) in coords.items()}
    fy = {v: VIEW_H - MARGIN - (y - y0) * sy for v, (_, y) in coords.items()}
    # each point formatted once, for its ends of <line> and its <circle>
    tx = {v: "%.6g" % x for v, x in fx.items()}
    ty = {v: "%.6g" % y for v, y in fy.items()}
    tree = [0] * m.n_edges  # bit 1: in the NW tree, bit 2: in the SE tree
    for bit, parents in ((1, nw_tree(m)), (2, se_tree(m))):
        for e in parents:
            if e is not None:
                tree[e] |= bit
    classes = ("edge", "edge nw-tree", "edge se-tree", "edge nw-tree se-tree")

    lines = ['<?xml version="1.0" encoding="UTF-8"?>',
             f'<svg xmlns="http://www.w3.org/2000/svg" '
             f'viewBox="0 0 {VIEW_W:.6g} {VIEW_H:.6g}">',
             f"<style>{_STYLE}</style>"]
    for e, (t, h) in enumerate(m.edges):
        if e in bends:
            ends = (t, *((e, i) for i in range(len(bends[e]))), h)
            pts = " ".join(f"{tx[k]},{ty[k]}" for k in ends)
            lines.append(f'<polyline id="e{e}" class="{classes[tree[e]]}" points="{pts}"/>')
        else:
            lines.append(f'<line id="e{e}" class="{classes[tree[e]]}" x1="{tx[t]}" '
                         f'y1="{ty[t]}" x2="{tx[h]}" y2="{ty[h]}"/>')

    # the interface path: the midpoint of each edge's first segment, then
    # the mean of the corners (summed in vertex order) of the face it
    # crosses after it
    s = m.scan()
    face_of, fd, start = s.face_of, s.face_darts, s.face_start
    order, moves = interface_order(m)
    tail = m.dart_tails
    x_of, y_of = fx.__getitem__, fy.__getitem__
    pts = [f"{tx[m.south]},{ty[m.south]}"]
    for e, move in zip(order, moves + (None,)):
        t, h = tail[2 * e], (e, 0) if e in bends else tail[2 * e + 1]
        pts.append("%.6g,%.6g" % ((fx[t] + fx[h]) / 2, (fy[t] + fy[h]) / 2))
        if isinstance(move, FaceMove):
            f = face_of[2 * e + 1]
            corners = sorted(map(tail.__getitem__, fd[start[f]:start[f + 1]]))
            k = len(corners)
            pts.append("%.6g,%.6g" % (sum(map(x_of, corners)) / k,
                                       sum(map(y_of, corners)) / k))
    pts.append(f"{tx[m.north]},{ty[m.north]}")
    lines.append(f'<polyline class="interface" points="{" ".join(pts)}"/>')

    for v in range(m.n_vertices):
        cls = "vertex pole" if v in (m.south, m.north) else "vertex"
        lines.append(f'<circle id="v{v}" class="{cls}" cx="{tx[v]}" cy="{ty[v]}" r="3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
