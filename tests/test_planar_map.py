from collections import Counter

import pytest

from bipolar_maps.enumeration import enumerate_walks
from bipolar_maps.errors import InvalidMapError, MapStructureError
from bipolar_maps.planar_map import (PlanarMap, canonical_form, dual_map,
                                     face_types, map_from_json, map_to_json,
                                     nw_tree, reverse_map, se_tree,
                                     validate_bipolar)
from bipolar_maps.sewing import map_to_walk, walk_to_map
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk
from bipolar_maps.weights import preset_weights

from conftest import all_triangulation_walks


def single_edge():
    return walk_to_map(LatticeWalk((0, 0), ()))


def three_triangulation():
    return walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))


def test_single_edge_is_valid():
    m = single_edge()
    assert validate_bipolar(m) == []
    assert m.n_vertices == 2 and m.n_edges == 1


def test_zero_edges_rejected():
    with pytest.raises(MapStructureError):
        PlanarMap(1, [], [[]], south=0, north=0, west_anchor=0)


def test_malformed_rotation_is_structural():
    # dart listed at the wrong vertex
    with pytest.raises(MapStructureError):
        PlanarMap(2, [(0, 1)], [[1, -1], []], south=0, north=1, west_anchor=0)


def test_fig_map_valid(fig_walk):
    m = walk_to_map(fig_walk)
    assert validate_bipolar(m) == []
    assert len(m.west_edges) == 3
    assert len(m.east_edges) == 4


def _flip_edge(m, e):
    edges = list(m.edges)
    t, h = edges[e]
    edges[e] = (h, t)
    rotations = [[(-r if abs(r) == e + 1 else r) for r in rot]
                 for rot in m.rotation_refs()]
    return PlanarMap(m.n_vertices, edges, rotations, m.south, m.north,
                     m.west_anchor)


def test_interior_sink_reported(fig_walk):
    m = walk_to_map(fig_walk)
    # reverse the unique outgoing edge of an interior vertex: it becomes a sink
    outdeg = [0] * m.n_vertices
    for t, _ in m.edges:
        outdeg[t] += 1
    v = next(v for v in range(m.n_vertices)
             if v not in (m.south, m.north) and outdeg[v] == 1)
    e = m.out_edges_we(v)[0]
    report = validate_bipolar(_flip_edge(m, e))
    assert any(f"interior sink at vertex {v}" in str(viol) for viol in report)


def test_trees_on_small_maps():
    m1 = single_edge()
    t = nw_tree(m1)
    assert t.root == m1.north and t.parent_edge == {m1.south: 0}
    m3 = three_triangulation()
    nt, st = nw_tree(m3), se_tree(m3)
    assert set(nt.parent_edge) == set(range(3)) - {m3.north}
    assert set(st.parent_edge) == set(range(3)) - {m3.south}
    # the west boundary edge is the south pole's west-most outgoing edge
    assert nt.parent_edge[m3.south] == m3.west_edges[0]


def test_face_types_small():
    m3 = three_triangulation()
    types = face_types(m3)
    assert len(types) == 1
    (ft,) = types.values()
    assert (ft.i, ft.j) == (0, 1) and ft.degree == 3


def test_dual_single_edge():
    d = dual_map(single_edge())
    assert d.n_vertices == 2 and d.n_edges == 1
    assert validate_bipolar(d) == []


def test_dual_valid_and_involutive_small():
    for walk in all_triangulation_walks(5):
        m = walk_to_map(walk)
        d = dual_map(m)
        assert validate_bipolar(d) == []
        assert canonical_form(dual_map(d)) == canonical_form(reverse_map(m))


def test_degree_bookkeeping(fig_walk):
    m = walk_to_map(fig_walk)
    total = sum(t.degree for t in face_types(m).values())
    assert total + len(m.west_edges) + len(m.east_edges) == 2 * m.n_edges


def test_json_round_trip(fig_walk):
    m = walk_to_map(fig_walk)
    text = map_to_json(m)
    again = map_from_json(text)
    assert canonical_form(again) == canonical_form(m)
    assert map_to_json(again) == text  # byte-stable re-serialization


def test_require_valid_raises_with_report(fig_walk):
    m = walk_to_map(fig_walk)
    outdeg = [0] * m.n_vertices
    for t, _ in m.edges:
        outdeg[t] += 1
    v = next(v for v in range(m.n_vertices)
             if v not in (m.south, m.north) and outdeg[v] == 1)
    bad = _flip_edge(m, m.out_edges_we(v)[0])
    with pytest.raises(InvalidMapError):
        nw_tree(bad)


def test_canonical_form_distinguishes():
    m3 = three_triangulation()
    assert canonical_form(m3) != canonical_form(single_edge())
    assert canonical_form(m3) == canonical_form(walk_to_map(map_to_walk(m3)))


def naive_orientation_check(m):
    """Direct scan: sources/sinks by degree, acyclicity by DFS cycle search."""
    indeg = [0] * m.n_vertices
    outdeg = [0] * m.n_vertices
    adj = [[] for _ in range(m.n_vertices)]
    for t, h in m.edges:
        outdeg[t] += 1
        indeg[h] += 1
        adj[t].append(h)
    sources = [v for v in range(m.n_vertices) if indeg[v] == 0]
    sinks = [v for v in range(m.n_vertices) if outdeg[v] == 0]
    if sources != [m.south] or sinks != [m.north]:
        return False
    color = [0] * m.n_vertices
    def dfs(v):
        color[v] = 1
        for w in adj[v]:
            if color[w] == 1 or (color[w] == 0 and dfs(w)):
                return True
        color[v] = 2
        return False
    return not any(color[v] == 0 and dfs(v) for v in range(m.n_vertices))


def test_validator_agrees_with_naive_checker():
    import sys
    sys.setrecursionlimit(10000)
    for walk in all_triangulation_walks(7):
        m = walk_to_map(walk)
        assert naive_orientation_check(m)
        assert validate_bipolar(m) == []
        # perturb: reverse the out-edge of an out-degree-one interior vertex
        outdeg = [0] * m.n_vertices
        for t, _ in m.edges:
            outdeg[t] += 1
        vs = [v for v in range(m.n_vertices)
              if v not in (m.south, m.north) and outdeg[v] == 1]
        if vs:
            bad = _flip_edge(m, m.out_edges_we(vs[0])[0])
            assert not naive_orientation_check(bad)
            assert validate_bipolar(bad) != []


def test_face_move_degree_five():
    w = LatticeWalk((0, 2), (EDGE, EDGE, FaceMove(2, 1), EDGE))
    m = walk_to_map(w)
    degs = sorted(t.degree for t in face_types(m).values())
    assert (2, 1) in {(t.i, t.j) for t in face_types(m).values()}
    assert 5 in degs


def corruptions(m):
    """Builders of the maps one local change away from m: two adjacent darts
    of a rotation swapped, the west anchor moved, or one edge reversed."""
    refs = m.rotation_refs()
    for v, rot in enumerate(refs):
        if len(rot) < 2:
            continue
        for k in range(len(rot)):
            swapped = [list(r) for r in refs]
            k2 = (k + 1) % len(rot)
            swapped[v][k], swapped[v][k2] = rot[k2], rot[k]
            yield lambda r=swapped: PlanarMap(m.n_vertices, m.edges, r, m.south,
                                              m.north, m.west_anchor)
    for e in range(m.n_edges):
        yield lambda e=e: PlanarMap(m.n_vertices, m.edges, refs, m.south,
                                    m.north, e)
        yield lambda e=e: _flip_edge(m, e)


def test_validator_on_corrupted_maps():
    accepted = 0
    kinds = Counter()
    for name in ("tri", "quad", "kgon:5"):
        w = preset_weights(name)
        for ell in range(1, 9):
            for m in range(3):
                for n in range(3):
                    for walk in enumerate_walks(w, m, n, ell):
                        for build in corruptions(walk_to_map(walk)):
                            try:
                                c = build()
                            except MapStructureError:
                                continue
                            report = validate_bipolar(c)
                            kinds.update(v.kind for v in report)
                            if report:
                                continue
                            accepted += 1
                            assert naive_orientation_check(c)
                            again = walk_to_map(map_to_walk(c))
                            assert canonical_form(again) == canonical_form(c)
    assert accepted == 1826
    assert kinds == {"boundary": 3144, "cycle": 560, "euler": 2528,
                     "rotation": 276, "sink": 1308, "source": 979}
