"""SVG rendering of bipolar maps with their trees and interface path.

Every valid map gets one certified upward drawing: a simple triangulation
draws as it is, and any other map through the triangulation that
``embedding.triangulated`` builds around it, where each split parallel
edge is a ``<polyline>`` bent at its bend vertex and every other edge a
straight ``<line>``.  Edges carry CSS classes: west-most-outgoing tree
edges are ``nw-tree`` (red), east-most-incoming tree edges ``se-tree``
(blue), everything else plain ``edge``; the ``interface`` polyline (green)
walks the edge midpoints in interface order, dipping through each face it
crosses, whose corners it reads from the scan's flat face lists.  Output
is byte deterministic for fixed inputs: stable element order and 6
significant digits after an affine fit to a fixed viewbox, computed once
per vertex before any element is written; each vertex's coordinates are
formatted once, and its edge ends and ``<circle>`` reuse the strings.
"""

from __future__ import annotations

from .embedding import Embedding, triangulated, upward_embed
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


def _fit_floats(emb: Embedding) -> dict[int, tuple[float, float]]:
    """Float coordinates, each axis scaled by 2^-k so that none overflows.

    k = 0 unless the axis has coordinates of more than 1 000 integer bits.
    Scaling by a power of two is exact in binary floating point, and the
    affine fit to the viewbox cancels it.
    """
    ratios = {v: (x.as_integer_ratio(), y.as_integer_ratio())
              for v, (x, y) in emb.coords.items()}
    shifts = []
    for axis in (0, 1):
        top = max(abs(p[axis][0]) // p[axis][1] for p in ratios.values())
        shifts.append(max(0, top.bit_length() - 1000))
    kx, ky = shifts
    return {v: (xn / (xd << kx), yn / (yd << ky))
            for v, ((xn, xd), (yn, yd)) in ratios.items()}


def render_svg(m: PlanarMap, embedding: Embedding | None = None) -> str:
    """Draw the map; computes a certified upward embedding unless one is supplied.

    Without one, any valid map is drawn through ``triangulated(m)``: the
    upward embedding of that triangulation, certified, places ``m``'s
    vertices and the bend of each split edge, which is drawn as one bent
    ``<polyline>``.  The apexes are not drawn; each lies inside a face, so
    the fit to the viewbox is the same without them.
    """
    drawn, bends = m, {}
    if embedding is None:
        drawn, bends = triangulated(m)
        embedding = upward_embed(drawn)
    coords = _fit_floats(embedding)

    xs = [p[0] for p in coords.values()]
    ys = [p[1] for p in coords.values()]
    x0, y0 = min(xs), min(ys)
    sx = (VIEW_W - 2 * MARGIN) / (max(xs) - x0 or 1.0)
    sy = (VIEW_H - 2 * MARGIN) / (max(ys) - y0 or 1.0)
    fx = {v: MARGIN + (x - x0) * sx for v, (x, _) in coords.items()}
    fy = {v: VIEW_H - MARGIN - (y - y0) * sy for v, (_, y) in coords.items()}
    # each vertex formatted once, for its ends of <line> and its <circle>
    tx = {v: "%.6g" % x for v, x in fx.items()}
    ty = {v: "%.6g" % y for v, y in fy.items()}
    tree = [0] * m.n_edges  # bit 1: in the NW tree, bit 2: in the SE tree
    for bit, parents in ((1, nw_tree(m)), (2, se_tree(m))):
        for e in parents:
            if e is not None:
                tree[e] |= bit
    classes = ("edge", "edge nw-tree", "edge se-tree", "edge nw-tree se-tree")

    lines = []
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {VIEW_W:.6g} {VIEW_H:.6g}">')
    lines.append(f"<style>{_STYLE}</style>")
    e0 = len(lines)
    for e, (t, h) in enumerate(m.edges):
        lines.append(f'<line id="e{e}" class="{classes[tree[e]]}" x1="{tx[t]}" '
                     f'y1="{ty[t]}" x2="{tx[h]}" y2="{ty[h]}"/>')
    for e, x in bends.items():
        t, h = m.edges[e]
        lines[e0 + e] = (f'<polyline id="e{e}" class="{classes[tree[e]]}" points="'
                         f'{tx[t]},{ty[t]} {tx[x]},{ty[x]} {tx[h]},{ty[h]}"/>')

    # the interface path: each edge's midpoint in ``drawn`` (on a bent
    # edge, its lower segment's), then the mean of the corners (summed in
    # vertex order) of the face it crosses after it
    s = m.scan()
    face_of, fd, start = s.face_of, s.face_darts, s.face_start
    order, moves = interface_order(m)
    tail, ends = m.dart_tails, drawn.dart_tails
    x_of, y_of = fx.__getitem__, fy.__getitem__
    pts = [f"{tx[m.south]},{ty[m.south]}"]
    for e, move in zip(order, moves + (None,)):
        t, h = ends[2 * e], ends[2 * e + 1]
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
