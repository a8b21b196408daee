"""SVG rendering of bipolar maps with their trees and interface path.

Edges carry CSS classes: west-most-outgoing tree edges are ``nw-tree``
(red), east-most-incoming tree edges ``se-tree`` (blue), everything else
plain ``edge``; the ``interface`` polyline (green) walks the edge midpoints
in interface order, dipping through each face it crosses, whose corners it
reads from the scan's flat face lists.  Output is byte deterministic for
fixed inputs: stable element order and 6 significant digits after an
affine fit to a fixed viewbox, computed once per vertex before any element
is written; each vertex's coordinates are formatted once, and its
``<line>`` ends and ``<circle>`` reuse the strings.
"""

from __future__ import annotations

from .embedding import Embedding, upward_embed
from .errors import EmbeddingUnsupportedError
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


def layered_layout(m: PlanarMap) -> dict[int, tuple[float, float]]:
    """Fallback layout: longest-path heights, averaged x; not planarity-safe."""
    m.require_valid()
    depth = [0] * m.n_vertices
    order = _topological(m)
    for v in order:
        for e in m.out_edges_we(v):
            h = m.edges[e][1]
            depth[h] = max(depth[h], depth[v] + 1)
    levels: dict[int, list[int]] = {}
    for v in order:
        levels.setdefault(depth[v], []).append(v)
    x = [0.0] * m.n_vertices
    for lev in sorted(levels):
        for k, v in enumerate(levels[lev]):
            x[v] = float(k)
    for _ in range(40):
        for v in order:
            nbrs = [m.edges[e][1] for e in m.out_edges_we(v)]
            nbrs += [m.edges[e][0] for e in m.in_edges_we(v)]
            if nbrs and v not in (m.south, m.north):
                x[v] = (x[v] + sum(x[u] for u in nbrs) / len(nbrs)) / 2.0
        # keep level-mates separated, in a stable order
        for lev in sorted(levels):
            row = sorted(levels[lev], key=lambda u: (x[u], u))
            for k, v in enumerate(row):
                x[v] = (x[v] + float(k)) / 2.0
    return {v: (x[v], float(depth[v])) for v in range(m.n_vertices)}


def _topological(m: PlanarMap) -> list[int]:
    indeg = m.scan().indeg[:]
    stack = [m.south]
    out = []
    while stack:
        v = stack.pop()
        out.append(v)
        for e in m.out_edges_we(v):
            h = m.edges[e][1]
            indeg[h] -= 1
            if indeg[h] == 0:
                stack.append(h)
    return out


def render_svg(m: PlanarMap, embedding: Embedding | None = None,
               layers_fallback: bool = False) -> str:
    """Draw the map; computes an upward embedding unless one is supplied.

    Maps outside the embedder's domain raise unless ``layers_fallback`` is
    set, in which case a layered layout is used and the root element gets
    ``data-planarity="unverified"``.
    """
    warning = False
    if embedding is not None:
        coords = _fit_floats(embedding)
    else:
        try:
            coords = _fit_floats(upward_embed(m))
        except EmbeddingUnsupportedError:
            if not layers_fallback:
                raise
            coords = layered_layout(m)
            warning = True

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
    attrs = f' data-planarity="unverified"' if warning else ""
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {VIEW_W:.6g} {VIEW_H:.6g}"{attrs}>')
    lines.append(f"<style>{_STYLE}</style>")
    for e, (t, h) in enumerate(m.edges):
        lines.append(f'<line id="e{e}" class="{classes[tree[e]]}" x1="{tx[t]}" '
                     f'y1="{ty[t]}" x2="{tx[h]}" y2="{ty[h]}"/>')

    # the interface path: each edge's midpoint, then the mean of the
    # corners (summed in vertex order) of the face it crosses after it
    s = m.scan()
    face_of, fd, start = s.face_of, s.face_darts, s.face_start
    order, moves = interface_order(m)
    tail = m.dart_tails
    x_of, y_of = fx.__getitem__, fy.__getitem__
    pts = [f"{tx[m.south]},{ty[m.south]}"]
    for e, move in zip(order, moves + (None,)):
        t, h = tail[2 * e], tail[2 * e + 1]
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
