import json
from collections import Counter
from itertools import combinations

import pytest

import map_oracle
from bipolar_maps.enumeration import enumerate_walks, exact_sampler
from bipolar_maps.errors import InvalidMapError, MapStructureError
from bipolar_maps.planar_map import (PlanarMap, canonical_form, dual_map,
                                     face_types, map_from_json, map_to_json,
                                     nw_depths, nw_tree, reverse_map,
                                     se_depths, se_tree, validate_bipolar)
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import map_to_walk, state_from_map, walk_to_map
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk
from bipolar_maps.weights import FaceWeights, preset_weights

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


@pytest.mark.parametrize("rotations", [
    [[0], [-1]],      # out of range below: it must not index the last dart
    [[0], [2]],       # out of range above: 2E
    [[0, 0], [1]],    # a dart listed twice
    [[0, 1], []],     # a dart at the wrong vertex
], ids=["dart-negative", "dart-2E", "dart-twice", "dart-wrong-vertex"])
def test_malformed_rotation_is_structural(rotations):
    with pytest.raises(MapStructureError):
        PlanarMap(2, [(0, 1)], rotations, south=0, north=1, west_anchor=0)


@pytest.mark.parametrize("args, message", [
    ((1, [], [[]], 0, 0, 0), "zero-edge maps are rejected"),
    ((0, [(0, 1)], [], 0, 0, 0), "need at least one vertex"),
    ((2, [(0, 1), (1, 2)], [[0], [1, 2], [3]], 0, 1, 0), "edge 1 endpoint out of range"),
    ((2, [(0, 1), (-1, 1)], [[0], [1, 2], [3]], 0, 1, 0), "edge 1 endpoint out of range"),
    ((2, [(0, 1)], [[0], [1]], 0, 2, 0), "pole id out of range"),
    ((2, [(0, 1)], [[0], [1]], -1, 1, 0), "pole id out of range"),
    ((2, [(0, 1)], [[0], [1]], 0, 1, 1), "west_anchor out of range"),
    ((2, [(0, 1)], [[0], [1]], 0, 1, -1), "west_anchor out of range"),
    ((2, [(0, 1)], [[0], [1]], 1, 0, 0), "west_anchor edge must leave the south pole"),
    ((2, [(0, 1)], [[0], [-1]], 0, 1, 0), "rotation at vertex 1: bad dart -1"),
    ((2, [(0, 1)], [[0], [2]], 0, 1, 0), "rotation at vertex 1: bad dart 2"),
    ((2, [(0, 1)], [[0, 1], []], 0, 1, 0),
     "rotation at vertex 0: dart of edge 0 is based at 1"),
    ((2, [(0, 1)], [[0, 0], [1]], 0, 1, 0), "dart of edge 0 listed twice"),
    ((2, [(0, 1)], [[0], [1], []], 0, 1, 0), "rotations must list every vertex"),
    ((3, [(0, 1)], [[0], [1]], 0, 1, 0), "rotations must list every vertex"),
    ((2, [(0, 1)], [[0]], 0, 1, 0), "rotations must list every vertex"),
    ((2, [(0, 1)], [[0], []], 0, 1, 0), "some darts are missing from the rotation system"),
    ((2, [(0, 1)], [[], [1]], 0, 1, 0), "some darts are missing from the rotation system"),
], ids=["zero-edges", "no-vertex", "endpoint-above", "endpoint-negative",
        "pole-above", "pole-negative", "anchor-above", "anchor-negative",
        "anchor-not-south", "dart-negative", "dart-2E", "dart-wrong-vertex",
        "dart-twice", "extra-vertex-row", "vertex-row-missing", "short-rotations",
        "north-dart-missing", "south-dart-missing"])
def test_constructor_error_messages(args, message):
    with pytest.raises(MapStructureError) as exc:
        PlanarMap(*args)
    assert str(exc.value) == message


@pytest.mark.parametrize("args, message", [
    ((2, [(0.9, 1)], [[0], [1]], 0, 1, 0), "edge ends must be integers, got 0.9"),
    ((2, [("0", "1")], [[0], [1]], 0, 1, 0), "edge ends must be integers, got '0'"),
    ((2, [(0, 1)], [[0.0], [1]], 0, 1, 0), "rotation darts must be integers, got 0.0"),
    ((2.0, [(0, 1)], [[0], [1]], 0, 1, 0),
     "the vertex count, poles and west_anchor must be integers, got 2.0"),
    ((2, [(0, 1)], [[0], [1]], 0, 1.0, 0),
     "the vertex count, poles and west_anchor must be integers, got 1.0"),
    ((2, [(0, 1)], [[0], [1]], 0, 1, 0.5),
     "the vertex count, poles and west_anchor must be integers, got 0.5"),
], ids=["endpoint-float", "endpoint-str", "dart-float", "vertex-count-float",
        "pole-float", "anchor-float"])
def test_constructor_refuses_non_integer_ids(args, message):
    # int() would read 0.9 as 0 and build the edge (0, 1)
    with pytest.raises(MapStructureError) as exc:
        PlanarMap(*args)
    assert str(exc.value) == message


def test_numpy_int_edges_are_accepted():
    import numpy as np
    m = PlanarMap(2, np.array([[0, 1]]), [[0], [1]], south=0, north=1, west_anchor=0)
    assert m.edges == ((0, 1),) and type(m.edges[0][0]) is int
    assert map_to_json(m) == map_to_json(single_edge())
    assert validate_bipolar(m) == []


def test_disconnected_maps_differing_off_the_south_component_are_unequal():
    # beside the south pole's edge, a path in one map and a star in the other
    a = PlanarMap(5, [(0, 1), (2, 3), (3, 4)], [[0], [1], [2], [3, 4], [5]], 0, 1, 0)
    b = PlanarMap(5, [(0, 1), (2, 3), (2, 4)], [[0], [1], [2, 4], [3], [5]], 0, 1, 0)
    assert a != b
    assert canonical_form(a) != canonical_form(b)


def test_fig_map_valid(fig_walk):
    m = walk_to_map(fig_walk)
    assert validate_bipolar(m) == []
    assert len(m.west_edges) == 3
    assert len(m.east_edges) == 4


def _flip_edges(m, *flipped):
    edges = list(m.edges)
    for e in flipped:
        t, h = edges[e]
        edges[e] = (h, t)
    rotations = [[d ^ 1 if d >> 1 in flipped else d for d in rot] for rot in m.rotations]
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
    report = validate_bipolar(_flip_edges(m, e))
    assert any(f"interior sink at vertex {v}" in str(viol) for viol in report)


@pytest.mark.parametrize("edges, rotations, west_anchor", [
    ([(1, 2), (0, 1), (1, 2), (0, 1)], [[2, 6], [0, 3, 4, 7], [1, 5]], 1),
    ([(0, 1), (1, 2), (0, 1), (1, 2)], [[0, 4], [1, 2, 5, 6], [3, 7]], 0),
], ids=["first-cut-is-dart-0", "dart-0-inside-a-run"])
def test_mixed_rotation_reported_whatever_its_first_cut(edges, rotations, west_anchor):
    # vertex 1 turns out, in, out, in: two cuts where a north dart follows a
    # south dart.  Dart 0 is the first dart the scan reads, so in the first
    # map the cut it records first is dart 0, and a second cut must still
    # count against it.
    m = PlanarMap(3, edges, rotations, south=0, north=2, west_anchor=west_anchor)
    report = validate_bipolar(m)
    assert "rotation at vertex 1 mixes outgoing/incoming blocks" in map(str, report)
    _agrees_with_oracle(m)


def test_trees_on_small_maps():
    # a tree is each vertex's parent edge id, None at the root only
    m1 = single_edge()
    t = nw_tree(m1)
    assert len(t) == 2 and t[m1.north] is None and t[m1.south] == 0
    m3 = three_triangulation()
    nt, st = nw_tree(m3), se_tree(m3)
    assert len(nt) == len(st) == 3
    assert {v for v, e in enumerate(nt) if e is not None} == set(range(3)) - {m3.north}
    assert {v for v, e in enumerate(st) if e is not None} == set(range(3)) - {m3.south}
    # the west boundary edge is the south pole's west-most outgoing edge
    assert nt[m3.south] == m3.west_edges[0]


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


@pytest.mark.parametrize("text", ["{", "", "nul"], ids=["open-brace", "empty", "nul"])
def test_json_that_is_not_json_is_structural(text):
    with pytest.raises(MapStructureError, match="^map JSON is not valid JSON: "):
        map_from_json(text)


@pytest.mark.parametrize("ref", [0, -2])
def test_json_bad_edge_ref_is_named_as_written(ref):
    text = json.dumps({"vertices": 2, "south": 0, "north": 1, "west": 0,
                       "edges": [[0, 1]], "rotations": [[1], [ref]]})
    with pytest.raises(MapStructureError, match=rf"vertex 1: bad edge ref {ref}$"):
        map_from_json(text)


def test_require_valid_raises_with_report(fig_walk):
    m = walk_to_map(fig_walk)
    outdeg = [0] * m.n_vertices
    for t, _ in m.edges:
        outdeg[t] += 1
    v = next(v for v in range(m.n_vertices)
             if v not in (m.south, m.north) and outdeg[v] == 1)
    bad = _flip_edges(m, m.out_edges_we(v)[0])
    with pytest.raises(InvalidMapError):
        nw_tree(bad)


def test_edge_orders_at_a_vertex_require_a_valid_map(fig_walk):
    m = walk_to_map(fig_walk)
    v = next(v for v in range(m.n_vertices)
             if v not in (m.south, m.north) and len(m.out_edges_we(v)) == 1)
    bad = _flip_edges(m, m.out_edges_we(v)[0])  # v becomes an interior sink
    assert validate_bipolar(bad)
    for v in range(bad.n_vertices):
        with pytest.raises(InvalidMapError):
            bad.out_edges_we(v)
        with pytest.raises(InvalidMapError):
            bad.in_edges_we(v)
    with pytest.raises(InvalidMapError):
        state_from_map(bad)
    # the valid map still reads every vertex's edges west to east
    assert m.out_edges_we(m.south)[0] == m.west_anchor
    assert m.in_edges_we(m.north)[0] == m.west_edges[-1]


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
            bad = _flip_edges(m, m.out_edges_we(vs[0])[0])
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
    rotations = m.rotations
    for v, rot in enumerate(rotations):
        if len(rot) < 2:
            continue
        for k in range(len(rot)):
            swapped = [list(r) for r in rotations]
            k2 = (k + 1) % len(rot)
            swapped[v][k], swapped[v][k2] = rot[k2], rot[k]
            yield lambda r=swapped: PlanarMap(m.n_vertices, m.edges, r, m.south,
                                              m.north, m.west_anchor)
    for e in range(m.n_edges):
        yield lambda e=e: PlanarMap(m.n_vertices, m.edges, rotations, m.south,
                                    m.north, e)
        yield lambda e=e: _flip_edges(m, e)


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


def _agrees_with_oracle(m):
    """The one-pass scan against the orbit-and-tuple reference: the report,
    the faces and boundaries (or the same error), and on a valid map the
    edge orders at every vertex, the trees and their depths."""
    report = validate_bipolar(m)
    assert report == map_oracle.validate(m)
    try:
        west, east, faces, face_of = map_oracle.faces(m)
    except InvalidMapError as exc:
        for read in (lambda: m.west_edges, lambda: m.east_edges,
                     m.interior_faces, m.face_of_dart):
            with pytest.raises(InvalidMapError) as got:
                read()
            assert got.value.report == exc.report
    else:
        assert m.west_edges == west and m.east_edges == east
        assert m.interior_faces() == faces
        assert m.face_of_dart() == face_of
    if report:
        return
    vertices = range(m.n_vertices)
    assert ([m.out_edges_we(v) for v in vertices],
            [m.in_edges_we(v) for v in vertices]) == map_oracle.we_orders(m)
    nw, se = map_oracle.trees(m)
    assert nw_tree(m) == nw and se_tree(m) == se
    assert nw_depths(m) == map_oracle.depths(m, nw, 1)
    assert se_depths(m) == map_oracle.depths(m, se, 0)


def test_scan_agrees_with_oracle_on_corrupted_maps():
    checked = 0
    for name in ("tri", "quad", "kgon:5"):
        w = preset_weights(name)
        for ell in range(1, 9):
            for m in range(3):
                for n in range(3):
                    for walk in enumerate_walks(w, m, n, ell):
                        mp = walk_to_map(walk)
                        _agrees_with_oracle(mp)
                        for build in corruptions(mp):
                            try:
                                c = build()
                            except MapStructureError:
                                continue
                            _agrees_with_oracle(c)
                            checked += 1
    assert checked == 6334


def test_scan_agrees_with_oracle_on_multi_edge_reversals():
    """Every pair and every triple of edges reversed in the small maps with
    faces of degree 2 to 7: the scan's report is the oracle's, and a map
    whose one violation is a directed cycle has a face the scan cannot
    split.  A map that passes every other check is bipolar by the local
    rules alone (Tamassia-Tollis), so no such map has a cycle."""
    w = FaceWeights({k: 1 for k in range(2, 8)})
    maps = cycles = lone = 0
    built = Counter()
    for ell in range(1, 8):
        for m in range(3):
            for n in range(3):
                for walk in enumerate_walks(w, m, n, ell):
                    mp = walk_to_map(walk)
                    maps += 1
                    for size in (2, 3):
                        for flipped in combinations(range(mp.n_edges), size):
                            try:
                                c = _flip_edges(mp, *flipped)
                            except MapStructureError:
                                continue
                            built[size] += 1
                            report = validate_bipolar(c)
                            assert report == map_oracle.validate(c)
                            kinds = [v.kind for v in report]
                            if "cycle" in kinds:
                                cycles += 1
                            if kinds == ["cycle"]:
                                lone += 1
                                assert c.scan().face_problem is not None
    assert (maps, built[2], built[3], cycles, lone) == (1699, 22944, 29231, 39535, 73)


def test_scan_agrees_with_oracle_on_small_triangulations():
    for walk in all_triangulation_walks(9):
        _agrees_with_oracle(walk_to_map(walk))


@pytest.mark.parametrize("n_vertices, edges, rotations, north, kinds", [
    (2, [(0, 1), (1, 1)], [[0], [1, 2, 3]], 1, ["loop", "sink", "cycle"]),
    (3, [(0, 1), (1, 2), (1, 1)], [[0], [1, 2, 4, 5], [3]], 2,
     ["loop", "cycle", "boundary"]),
    (3, [(0, 1), (1, 2), (1, 1)], [[0], [1, 4, 5, 2], [3]], 2,
     ["loop", "cycle", "rotation"]),
    (4, [(0, 1), (2, 3)], [[0], [1], [2], [3]], 1, ["source", "sink", "connect"]),
    (4, [(0, 1), (2, 3), (3, 2)], [[0], [1], [2, 5], [3, 4]], 1, ["cycle", "connect"]),
], ids=["loop-at-north", "loop-outside", "loop-inside", "two-pieces", "island-cycle"])
def test_scan_reports_loops_and_pieces_as_the_oracle_does(n_vertices, edges, rotations,
                                                          north, kinds):
    # no walk builds a self-loop or a second piece, so these maps are built
    # by hand; the scan's report, faces and errors are the oracle's
    mp = PlanarMap(n_vertices, edges, rotations, 0, north, 0)
    assert [v.kind for v in validate_bipolar(mp)] == kinds
    _agrees_with_oracle(mp)


def test_map_to_walk_shares_one_move_per_face_type():
    walk = exact_sampler(preset_weights("tri"), 0, 1, 3_000)(CounterRng(5, 0))
    back = map_to_walk(walk_to_map(walk))
    assert back == walk
    assert len({id(mv) for mv in back.moves}) <= 3


def _json_maps():
    for name in ("tri", "quad"):
        for ell in range(1, 9):
            for m in range(3):
                for n in range(3):
                    for walk in enumerate_walks(preset_weights(name), m, n, ell):
                        yield walk_to_map(walk)
    # the map of the README's sample line
    yield walk_to_map(exact_sampler(preset_weights("tri"), 0, 1, 12)(CounterRng(7, 0)))
    # an isolated vertex: its rotation is empty
    yield PlanarMap(3, [(0, 1)], [[0], [1], []], south=0, north=1, west_anchor=0)


def test_json_writer_matches_json_dumps():
    n = 0
    for m in _json_maps():
        obj = {"vertices": m.n_vertices, "south": m.south, "north": m.north,
               "west": m.west_anchor, "edges": [list(e) for e in m.edges],
               "rotations": [[d // 2 + 1 if d % 2 == 0 else -(d // 2 + 1) for d in rot]
                             for rot in m.rotations]}
        assert map_to_json(m) == json.dumps(obj, indent=1) + "\n"
        rebuilt = PlanarMap(m.n_vertices, m.edges, m.rotations, m.south, m.north,
                            m.west_anchor)
        assert map_to_json(rebuilt) == map_to_json(m)
        n += 1
    assert n == 256
