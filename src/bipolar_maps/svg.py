"""SVG rendering of bipolar maps with their trees and interface path.

Edges carry CSS classes: west-most-outgoing tree edges are ``nw-tree``
(red), east-most-incoming tree edges ``se-tree`` (blue), everything else
plain ``edge``; the ``interface`` polyline (green) walks the edge midpoints
in interface order, dipping through each face it crosses.  Output is byte
deterministic for fixed inputs: stable element order and 6 significant
digits after an affine fit to a fixed viewbox.
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


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _fit_floats(emb: Embedding) -> dict[int, tuple[float, float]]:
    """Float coordinates, each axis scaled by 2^-k so that none overflows.

    k = 0 unless the axis has coordinates of more than 1 000 integer bits.
    Scaling by a power of two is exact in binary floating point, and the
    affine fit to the viewbox cancels it.
    """
    shifts = []
    for axis in (0, 1):
        top = max(abs(p[axis]) for p in emb.coords.values())
        shifts.append(max(0, int(top).bit_length() - 1000))
    kx, ky = shifts
    return {v: (x.numerator / (x.denominator << kx),
                y.numerator / (y.denominator << ky))
            for v, (x, y) in emb.coords.items()}


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
    indeg = [0] * m.n_vertices
    for _, h in m.edges:
        indeg[h] += 1
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
    spanx = max(xs) - min(xs) or 1.0
    spany = max(ys) - min(ys) or 1.0
    sx = (VIEW_W - 2 * MARGIN) / spanx
    sy = (VIEW_H - 2 * MARGIN) / spany

    def pt(v):
        x, y = coords[v]
        return (MARGIN + (x - min(xs)) * sx,
                VIEW_H - MARGIN - (y - min(ys)) * sy)

    nw = set(nw_tree(m).parent_edge.values())
    se = set(se_tree(m).parent_edge.values())
    order, moves = interface_order(m)
    faces = m.interior_faces()

    lines = []
    attrs = f' data-planarity="unverified"' if warning else ""
    lines.append('<?xml version="1.0" encoding="UTF-8"?>')
    lines.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="0 0 {_fmt(VIEW_W)} {_fmt(VIEW_H)}"{attrs}>')
    lines.append(f"<style>{_STYLE}</style>")
    for e, (t, h) in enumerate(m.edges):
        cls = "edge"
        if e in nw:
            cls += " nw-tree"
        if e in se:
            cls += " se-tree"
        x1, y1 = pt(t)
        x2, y2 = pt(h)
        lines.append(f'<line id="e{e}" class="{cls}" x1="{_fmt(x1)}" '
                     f'y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"/>')

    path = [pt(m.south)]
    for k, e in enumerate(order):
        t, h = m.edges[e]
        x1, y1 = pt(t)
        x2, y2 = pt(h)
        path.append(((x1 + x2) / 2, (y1 + y2) / 2))
        if k < len(moves) and isinstance(moves[k], FaceMove):
            fd = faces[_face_east_of(m, e)]
            corners = set()
            for e2 in fd.west_edges_down + fd.east_edges_up:
                corners.update(m.edges[e2])
            cx = sum(pt(v)[0] for v in sorted(corners)) / len(corners)
            cy = sum(pt(v)[1] for v in sorted(corners)) / len(corners)
            path.append((cx, cy))
    path.append(pt(m.north))
    pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in path)
    lines.append(f'<polyline class="interface" points="{pts}"/>')

    for v in range(m.n_vertices):
        x, y = pt(v)
        cls = "vertex pole" if v in (m.south, m.north) else "vertex"
        lines.append(f'<circle id="v{v}" class="{cls}" cx="{_fmt(x)}" '
                     f'cy="{_fmt(y)}" r="3"/>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def _face_east_of(m: PlanarMap, e: int) -> int:
    return m.face_of_dart()[2 * e + 1]
