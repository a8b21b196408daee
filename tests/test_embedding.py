import hashlib
import random
import re
from fractions import Fraction

import pytest

from bipolar_maps import embedding, sewing
from bipolar_maps.embedding import (Embedding, certify_upward_planar,
                                    segments_conflict, upward_embed,
                                    verify_upward_planar, visibility_drawing)
from bipolar_maps.enumeration import enumerate_walks, exact_sample
from bipolar_maps.errors import EmbeddingInternalError, EmbeddingUnsupportedError
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import walk_to_map
from bipolar_maps.simulate import rejection_sample_many, sample_simple_triangulation_walk
from bipolar_maps.svg import render_svg
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk
from bipolar_maps.weights import FaceWeights, preset_weights, step_distribution

from conftest import all_triangulation_walks, is_simple, relabel


def F(a, b=1):
    return Fraction(a, b)


def test_single_edge():
    m = walk_to_map(LatticeWalk((0, 0), ()))
    emb = upward_embed(m)
    (x0, y0), (x1, y1) = emb.coords[m.south], emb.coords[m.north]
    assert y0 < y1


def test_smallest_triangulation():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    emb = upward_embed(m)
    ys = sorted(y for _, y in emb.coords.values())
    assert ys[0] < ys[1] < ys[2]
    assert verify_upward_planar(m, emb) == []


def _refusal(m) -> str:
    with pytest.raises(EmbeddingUnsupportedError) as err:
        upward_embed(m)
    return str(err.value)


def test_rejects_multi_edge():
    # the closed 4-edge map has a doubled pole edge
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE, FaceMove(1, 0))))
    assert _refusal(m) == "unsupported for embedding: multiple edges between 0 and 1"


def test_rejects_general_faces():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 2), EDGE, EDGE)))
    assert _refusal(m) == ("unsupported for embedding: interior face of degree 4 "
                           "(triangulations only)")


def test_face_degree_refusal_comes_before_multi_edge():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 2), EDGE, EDGE, FaceMove(2, 0))))
    assert len(set(m.edges)) < m.n_edges
    assert _refusal(m) == ("unsupported for embedding: interior face of degree 4 "
                           "(triangulations only)")


def test_exhaustive_small():
    for walk in all_triangulation_walks(8):
        m = walk_to_map(walk)
        if is_simple(m):
            emb = upward_embed(m)  # raises on any certificate violation
            assert verify_upward_planar(m, emb) == []


@pytest.mark.parametrize("start, moves", [
    ((0, 1), (EDGE,)),
    ((0, 1), (EDGE, FaceMove(0, 1), EDGE)),
    ((0, 2), (EDGE, EDGE)),
], ids=["bridge-pair", "cut-vertex-under-triangle", "bridge-path"])
def test_boundary_chains_sharing_cut_vertices_embed(start, moves):
    # both boundary chains pass through the cut vertices; bridges lie on both
    m = walk_to_map(LatticeWalk(start, moves))
    assert set(m.west_edges) & set(m.east_edges)
    emb = upward_embed(m)
    assert certify_upward_planar(m, emb) == []
    assert verify_upward_planar(m, emb) == []


def _small_maps():
    """Every map of face degrees 2-7 with at most 8 edges and boundaries
    m, n <= 2, relabelled copies of those with at most 7 edges, and
    uniform rejection draws at 9 edges."""
    rng = random.Random(1988)
    mixed = FaceWeights({k: 1 for k in range(2, 8)})
    maps = [walk_to_map(w) for ell in range(1, 9) for m0 in range(3)
            for n0 in range(3) for w in enumerate_walks(mixed, m0, n0, ell)]
    assert len(maps) == 7806
    maps += [relabel(m, rng)[0] for m in maps if m.n_edges <= 7]
    maps += map(walk_to_map, rejection_sample_many(
        step_distribution(preset_weights("uniform")), 0, 1, 9, CounterRng(1, 9), 200))
    assert len(maps) == 7806 + 1699 + 200
    return maps


def test_every_small_map_has_a_certified_visibility_drawing():
    n_bends = 0
    for m in _small_maps():
        emb = visibility_drawing(m)  # raises on any certificate violation
        assert verify_upward_planar(m, emb) == []
        n_face = len(m.scan().face_split)
        for x, y in [*emb.coords.values(), *(p for ps in emb.bends.values() for p in ps)]:
            assert type(x) is type(y) is int
            assert 0 <= x <= n_face and 0 <= y < 2 * m.n_vertices
        assert sorted(y for _, y in emb.coords.values()) == list(range(0, 2 * m.n_vertices, 2))
        n_bends += sum(map(len, emb.bends.values()))
    assert n_bends == 63458


def test_certificate_failure_is_an_internal_error(monkeypatch):
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    monkeypatch.setattr(embedding, "certify_upward_planar",
                        lambda m, emb: ["face 0 is not positively oriented"])
    with pytest.raises(EmbeddingInternalError) as err:
        upward_embed(m)
    assert err.value.trace == ["face 0 is not positively oriented"]
    # the SVG of any map is drawn only once its drawing is certified
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 2), EDGE, EDGE)))
    with pytest.raises(EmbeddingInternalError) as err:
        render_svg(m)
    assert err.value.trace == ["face 0 is not positively oriented"]


def _corrupt(emb, kind, rng):
    """One change to a drawing: swap two vertices, shift one x or y onto or
    between existing values, shift 2-4 vertices that way at once, make two
    vertices coincide, or move one vertex or one bend 1-3 columns (on a
    drawing with no bend, that kind makes two vertices coincide)."""
    out = dict(emb.coords)
    bends = dict(emb.bends)
    u, v = rng.sample(sorted(out), 2)
    xs = sorted({x for x, _ in out.values()})
    ys = sorted({y for _, y in out.values()})
    steps = (-3, -2, -1, 1, 2, 3)

    def shift_x(t):
        a, b = rng.choice(xs), rng.choice(xs)
        out[t] = (rng.choice([a, Fraction(a + b, 2), a - 1, a + 1]), out[t][1])

    def shift_y(t):
        a, b = rng.choice(ys), rng.choice(ys)
        out[t] = (out[t][0], rng.choice([a, Fraction(a + b, 2)]))

    if kind == "swap":
        out[u], out[v] = out[v], out[u]
    elif kind == "x":
        shift_x(u)
    elif kind == "y":
        shift_y(u)
    elif kind == "several":
        for t in rng.sample(sorted(out), rng.randint(2, min(4, len(out)))):
            rng.choice((shift_x, shift_y))(t)
    elif kind == "column":
        out[u] = (out[u][0] + rng.choice(steps), out[u][1])
    elif kind == "bend" and bends:
        e = rng.choice(sorted(bends))
        ps = list(bends[e])
        i = rng.randrange(len(ps))
        ps[i] = (ps[i][0] + rng.choice(steps), ps[i][1])
        bends[e] = tuple(ps)
    else:
        out[u] = out[v]
    return Embedding(coords=out, bends=bends)


def test_certificate_agrees_with_pairwise_verifier():
    rng = random.Random(2006)
    n_maps = n_rejected = 0
    for walk in all_triangulation_walks(9):
        m = walk_to_map(walk)
        if not is_simple(m):
            continue
        n_maps += 1
        emb = upward_embed(m)
        assert certify_upward_planar(m, emb) == []
        assert verify_upward_planar(m, emb) == []
        for kind in ("swap", "x", "y", "several", "coincide"):
            bad = _corrupt(emb, kind, rng)
            if verify_upward_planar(m, bad):
                n_rejected += 1
                assert certify_upward_planar(m, bad), (walk, kind, bad.coords)
    assert n_maps == 2176
    assert n_rejected > n_maps  # the corpus is mostly broken drawings


def test_certificate_agrees_with_pairwise_verifier_on_polylines():
    # the visibility drawings of the small maps with at most 7 edges
    rng = random.Random(1986)
    maps = [m for m in _small_maps()[:7806] if m.n_edges <= 7]
    assert len(maps) == 1699
    n_rejected = 0
    for m in maps:
        emb = visibility_drawing(m)
        for kind in ("swap", "x", "y", "column", "bend", "coincide"):
            bad = _corrupt(emb, kind, rng)
            if verify_upward_planar(m, bad):
                n_rejected += 1
                assert certify_upward_planar(m, bad), (m.edges, kind, bad)
    assert n_rejected > 3 * len(maps)


def test_certificate_rejects_a_mirrored_drawing():
    # planar and upward, but every triangle runs against the rotation order
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    emb = upward_embed(m)
    mirror = Embedding(coords={v: (-x, y) for v, (x, y) in emb.coords.items()})
    assert verify_upward_planar(m, mirror) == []
    assert "face 0 is not positively oriented" in certify_upward_planar(m, mirror)


def test_relabeled_maps_draw_the_same():
    rng = random.Random(1511)
    maps = [walk_to_map(w) for w in all_triangulation_walks(6)]
    maps = [m for m in maps if is_simple(m)]
    maps += [walk_to_map(sample_simple_triangulation_walk(0, 1, ell, CounterRng(5, ell)))
             for ell in (60, 150)]
    for m in maps:
        emb = upward_embed(m)
        shuffled, pv = relabel(m, rng)
        got = upward_embed(shuffled)
        assert list(got.coords.items()) == [(pv[v], p) for v, p in emb.coords.items()]


def test_sampled_medium():
    rng = CounterRng(77)
    for _ in range(10):
        w = sample_simple_triangulation_walk(0, 1, 120, rng)
        emb = upward_embed(walk_to_map(w))
        assert emb.max_coord_bits() > 0


def test_verifier_catches_flat_edge():
    m = walk_to_map(LatticeWalk((0, 0), ()))
    bad = Embedding(coords={m.south: (F(0), F(0)), m.north: (F(1), F(0))})
    assert any("upward" in p for p in verify_upward_planar(m, bad))


def test_verifier_catches_crossing():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    v = next(v for v in range(3) if v not in (m.south, m.north))
    # put the middle vertex on the pole edge: overlapping collinear segments
    bad = Embedding(coords={m.south: (F(0), F(0)), m.north: (F(0), F(2)),
                            v: (F(0), F(1))})
    probs = verify_upward_planar(m, bad)
    assert any("cross" in p for p in probs)


def test_verifier_catches_coincident_vertices():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    v = next(v for v in range(3) if v not in (m.south, m.north))
    bad = Embedding(coords={m.south: (F(0), F(0)), m.north: (F(0), F(2)),
                            v: (F(0), F(2))})
    assert any("coincide" in p for p in verify_upward_planar(m, bad))


def _two_gon():
    # two parallel edges from the south pole 0 to the north pole 1
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 0),)))
    assert m.edges == ((0, 1), (0, 1))
    return m


def test_oracle_passes_a_bent_drawing():
    m = _two_gon()
    good = Embedding(coords={0: (0, 0), 1: (0, 2)}, bends={1: ((1, 1),)})
    assert verify_upward_planar(m, good) == []
    assert certify_upward_planar(m, good) == []
    assert visibility_drawing(m) == good


def test_oracle_reports_coinciding_bends():
    m = _two_gon()
    bad = Embedding(coords={0: (0, 0), 1: (0, 3)},
                    bends={0: ((1, 1),), 1: ((1, 1), (2, 2))})
    assert "a bend of edge 0 and a bend of edge 1 coincide" in verify_upward_planar(m, bad)
    assert certify_upward_planar(m, bad) == ["face 0 is not positively oriented"]
    # two straight parallel edges bound a face with no breakpoint
    straight = Embedding(coords={0: (0, 0), 1: (0, 2)})
    assert verify_upward_planar(m, straight) == ["edges 0 and 1 cross"]
    assert certify_upward_planar(m, straight) == ["face 0 is not positively oriented"]


def test_oracle_reports_a_bend_on_a_vertex():
    # the closed 4-edge map: edge 0 runs straight up the west side past
    # vertex 2, and its bend is moved onto vertex 2
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE, FaceMove(1, 0))))
    emb = visibility_drawing(m)
    assert emb.coords[2] == (1, 2) and 0 not in emb.bends
    bad = Embedding(coords=emb.coords, bends={**emb.bends, 0: ((1, 2),)})
    problems = verify_upward_planar(m, bad)
    assert "vertex 2 and a bend of edge 0 coincide" in problems
    assert certify_upward_planar(m, bad)


def test_segment_predicates():
    a, b = (F(0), F(0)), (F(2), F(2))
    c, d = (F(0), F(2)), (F(2), F(0))
    assert segments_conflict(a, b, c, d)                  # proper crossing
    assert not segments_conflict(a, b, b, (F(3), F(1)))   # shared endpoint only
    assert not segments_conflict(a, b, b, (F(3), F(3)))   # collinear continuation
    assert not segments_conflict(a, b, (F(5), F(5)), (F(3), F(3)))  # disjoint
    assert segments_conflict(a, b, (F(1), F(1)), (F(3), F(3)))      # overlap
    assert segments_conflict(a, b, (F(1), F(1)), (F(1), F(-2)))     # T-touch


def test_coordinates_are_exact():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    emb = upward_embed(m)
    for x, y in emb.coords.values():
        assert isinstance(x, Fraction) and isinstance(y, Fraction)


def test_render_svg_past_float_range():
    m = walk_to_map(sample_simple_triangulation_walk(0, 1, 300, CounterRng(7, 260300)))
    emb = upward_embed(m)
    assert max(abs(x) for x, _ in emb.coords.values()) > 2 ** 1024
    svg = render_svg(m, emb)
    assert svg.count("<line ") == m.n_edges
    assert "nan" not in svg and "inf" not in svg


def test_render_svg_ignores_a_power_of_two():
    # on either axis, and with a sign that mirrors it, a power of two past
    # float range draws the same bytes as the drawing it scales
    m = walk_to_map(sample_simple_triangulation_walk(0, 1, 30, CounterRng(3)))
    emb = upward_embed(m)
    for sx, sy in ((1, 1), (-1, 1), (1, -1), (-1, -1)):
        base = Embedding(coords={v: (sx * x, sy * y) for v, (x, y) in emb.coords.items()})
        for kx, ky in ((1100, 0), (0, 1100), (1100, 1100)):
            huge = Embedding(coords={v: (x * 2 ** kx, y * 2 ** ky)
                                     for v, (x, y) in base.coords.items()})
            assert render_svg(m, huge) == render_svg(m, base), (sx, sy, kx, ky)


# SHA-256 of repr(list(coords.items())), the SVG and the number of placement
# rounds, for steered maps drawn with CounterRng(seed, ell)
DRAWING_SHA256 = {
    (150, 0): "d5cd52399cf6be984a1ca020fbb9b482216943e87a3978587964b8546e2c01a9",
    (150, 1): "7102c90b996cdc30e6e1da130d1ffabcdff054e5555ac41addbdc55dcf56e4a4",
    (150, 2): "c2239e54c2e4f7db91d4eceee9ad49ddf6e24eb2b0a0fde9326bba7215c024d0",
    (300, 0): "8d9273c1c074395ab309e70ec71e88f9ff2a0cc2b29c513af295ce49f4539ccd",
    (300, 1): "10386fe80dad1b5c457c1832e7296b4657a65707fd65dcdf7a7466278f3c8936",
    (300, 2): "82e966cc32c906fcba955972dbe90e002f72d596cc8167af2903d1dc2eb638eb",
    (600, 0): "0ea73a7bd3f00e96722eb315862ee30b1ee7e287471f45201c6215fdd5666a1b",
}


def test_drawings_are_pinned(monkeypatch):
    # fixed maps must keep the same coordinates, SVG and slack-search rounds
    rounds = []
    place = embedding._place

    def counted_place(*args):
        rounds.append(args[0])
        return place(*args)

    monkeypatch.setattr(embedding, "_place", counted_place)
    for (ell, seed), digest in DRAWING_SHA256.items():
        m = walk_to_map(sample_simple_triangulation_walk(0, 1, ell, CounterRng(seed, ell)))
        rounds.clear()
        emb = upward_embed(m)
        h = hashlib.sha256()
        h.update(repr(list(emb.coords.items())).encode())
        h.update(render_svg(m, emb).encode())
        h.update(str(len(rounds)).encode())
        assert h.hexdigest() == digest, (ell, seed)


def _fact_maps():
    """Every simple triangulation of at most 9 moves, over every boundary,
    then the steered maps of 150 to 1 200 edges."""
    for walk in all_triangulation_walks(9):
        m = walk_to_map(walk)
        if is_simple(m):
            yield m
    for ell in (150, 300, 600, 1200):
        yield walk_to_map(sample_simple_triangulation_walk(0, 1, ell, CounterRng(1, ell)))


def test_every_rank_has_a_lower_record_and_at_most_one_upper():
    # the two facts the slack search rests on (embedding._constraints),
    # counted from the triangles themselves: a triangle bounds its newest
    # corner v from below when v is the middle of an east triangle or an
    # end of a west one, and from above otherwise; the records must match
    n_maps = 0
    n_upper = [0, 0]
    for m in _fact_maps():
        n_maps += 1
        verts, ys, _, below, triangles = embedding._creation_order(m, embedding._triangles(m))
        lower = [0 if b is None else 1 for b in below]
        upper = [[] for _ in verts]
        west_middles = [w for _, w, _, side in triangles if side == embedding.WEST]
        assert len(set(west_middles)) == len(west_middles)
        for u, w, z, side in triangles:
            v = max(u, w, z)
            if (v == w) == (side == embedding.EAST):
                lower[v] += 1
            else:
                upper[v].append((u, w, z, side))
        los, his = embedding._constraints(triangles, ys, below)
        assert his[:2] == [None, None]
        for v in range(2, len(verts)):
            assert lower[v] == len(los[v]) >= 1
            assert len(upper[v]) <= 1
            if upper[v]:
                (u, w, z, side), = upper[v]
                assert (side, w) == (embedding.WEST, v)
                assert his[v][:2] == (u, z) and ys[u] < ys[v] < ys[z]
            else:
                assert his[v] is None
            n_upper[len(upper[v])] += 1
    assert n_maps == 2180
    assert n_upper == [11075, 289]


def test_interface_path_is_traced_once_per_map(monkeypatch):
    # the drawing, its SVG and the walk of one map share one interface path
    traces = []
    trace = sewing._interface_order

    def counted(m):
        traces.append(m)
        return trace(m)

    monkeypatch.setattr(sewing, "_interface_order", counted)
    walk = sample_simple_triangulation_walk(0, 1, 60, CounterRng(1, 60))
    m = walk_to_map(walk)
    order, moves = sewing.interface_order(m)
    render_svg(m, upward_embed(m))
    assert sewing.map_to_walk(m) == walk
    assert len(traces) == 1 and sewing.interface_order(m) == (order, moves)
    assert isinstance(order, tuple) and isinstance(moves, tuple)


@pytest.mark.parametrize("ell", [1200, 2400])
def test_large_maps_draw(ell):
    m = walk_to_map(sample_simple_triangulation_walk(0, 1, ell, CounterRng(1, ell)))
    emb = upward_embed(m)
    assert certify_upward_planar(m, emb) == []
    svg = render_svg(m, emb)
    assert svg.count("<line ") == m.n_edges
    assert svg.count("<circle ") == m.n_vertices


# SHA-256 of render_svg(m) for maps outside upward_embed's domain, drawn by
# visibility_drawing(m): the README's sample map (tri (0, 1), 12 edges,
# drawn by CounterRng(7, 0); it has two doubled edges) and a quad map with
# square faces and one doubled edge
FALLBACK_SVG_SHA256 = {
    ("tri", 0, 1, 12, 7): "730c8fc36c69c5d235f3c22176a259e4c3553e7f5144876a95c80a71b59a2328",
    ("quad", 0, 0, 21, 1): "cce9b6a124a0bde74074c470058842adbfc5f86afe2ec909e8c6164a0f727d24",
}


@pytest.mark.parametrize("family, m0, n0, ell, seed", sorted(FALLBACK_SVG_SHA256))
def test_fallback_drawings_are_pinned(family, m0, n0, ell, seed):
    m = walk_to_map(exact_sample(preset_weights(family), m0, n0, ell, CounterRng(seed, 0)))
    with pytest.raises(EmbeddingUnsupportedError):
        upward_embed(m)
    svg = render_svg(m)
    assert "data-planarity" not in svg
    assert svg.count('<polyline id="e') == len(visibility_drawing(m).bends)
    assert svg.count("<line ") + svg.count('<polyline id="e') == m.n_edges
    circles = re.findall(r'<circle id="v\d+" class="[^"]*" cx="([^"]*)" cy="([^"]*)"', svg)
    assert len(set(circles)) == len(circles) == m.n_vertices
    digest = hashlib.sha256(svg.encode()).hexdigest()
    assert digest == FALLBACK_SVG_SHA256[family, m0, n0, ell, seed]
