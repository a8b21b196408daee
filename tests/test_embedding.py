from fractions import Fraction

import pytest

from bipolar_maps.embedding import (Embedding, segments_conflict, upward_embed,
                                    verify_upward_planar)
from bipolar_maps.errors import EmbeddingUnsupportedError
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import walk_to_map
from bipolar_maps.simulate import sample_simple_triangulation_walk
from bipolar_maps.svg import render_svg
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk

from conftest import all_triangulation_walks, is_simple


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


def test_rejects_multi_edge():
    # the closed 4-edge map has a doubled pole edge
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE, FaceMove(1, 0))))
    with pytest.raises(EmbeddingUnsupportedError):
        upward_embed(m)


def test_rejects_general_faces():
    m = walk_to_map(LatticeWalk((0, 0), (FaceMove(0, 2), EDGE, EDGE)))
    with pytest.raises(EmbeddingUnsupportedError):
        upward_embed(m)


def test_exhaustive_small():
    for walk in all_triangulation_walks(8):
        m = walk_to_map(walk)
        if is_simple(m):
            upward_embed(m)  # raises on any violation


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
    m = walk_to_map(sample_simple_triangulation_walk(0, 1, 30, CounterRng(3)))
    emb = upward_embed(m)
    huge = Embedding(coords={v: (x * 2 ** 1100, y)
                             for v, (x, y) in emb.coords.items()})
    assert render_svg(m, huge) == render_svg(m, emb)
