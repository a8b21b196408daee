import numpy as np
import pytest

from bipolar_maps.enumeration import exact_sampler
from bipolar_maps.planar_map import face_types
from bipolar_maps.rng import CounterRng
from bipolar_maps.sewing import map_to_walk, sew, unsew, walk_to_map
from bipolar_maps.simulate import free_walk, rejection_sample
from bipolar_maps.walks import (EDGE, FaceMove, LatticeWalk, face_move, move_of,
                                reverse_moves, walk_from_text, walk_to_text)
from bipolar_maps.weights import preset_weights, step_distribution

from conftest import FIG_MOVES, FIG_WALK

TRI = preset_weights("tri")


@pytest.mark.parametrize("make", [FaceMove, face_move])
@pytest.mark.parametrize("i, j", [(1.0, 0), (0, 1.0), ("1", 0), (None, 0), (0.5, 0)])
def test_face_move_refuses_non_integers(make, i, j):
    face_move(1, 0), face_move(0, 1)  # a float must not hit these cache entries
    with pytest.raises(ValueError, match="must be an integer"):
        make(i, j)


@pytest.mark.parametrize("dx, dy", [(1.0, -1), (-1.0, 0), (0, 1.0)])
def test_move_of_refuses_non_integers(dx, dy):
    move_of(1, -1), move_of(-1, 0), move_of(0, 1)
    with pytest.raises(ValueError, match="must be an integer"):
        move_of(dx, dy)


def test_numpy_ints_become_ints():
    mv = FaceMove(np.int64(1), np.int32(0))
    assert type(mv.i) is int and type(mv.j) is int and mv == FaceMove(1, 0)
    assert face_move(np.int64(1), np.int64(0)) is face_move(1, 0)
    assert move_of(np.int64(-1), np.int64(0)) is face_move(1, 0)
    assert move_of(np.int64(1), np.int64(-1)) is EDGE
    walk = LatticeWalk((0, 1), (EDGE, mv))
    assert walk_to_text(walk) == "0 1\nE\nF 1 0\n"
    assert walk_from_text(walk_to_text(walk)) == walk


@pytest.mark.parametrize("start", [[0, 0], (np.int64(0), np.int64(0)), np.array([0, 0])])
def test_walk_start_becomes_a_tuple_of_ints(start):
    walk = LatticeWalk(start, (FaceMove(0, 1), EDGE))
    assert walk.start == (0, 0) and type(walk.start) is tuple
    assert all(type(c) is int for c in walk.start)
    assert hash(walk) == hash(LatticeWalk((0, 0), (FaceMove(0, 1), EDGE)))
    assert map_to_walk(walk_to_map(walk)) == walk


@pytest.mark.parametrize("start", [(0,), (0, 0, 0), 0, None, (0, 1.0), ("0", 0)])
def test_walk_start_must_be_a_point_of_ints(start):
    with pytest.raises(ValueError):
        LatticeWalk(start, ())


def _walks_from_every_producer():
    text = walk_to_text(FIG_WALK)
    yield walk_from_text(text).moves
    yield reverse_moves(FIG_MOVES)
    for name in ("uniform", "tri"):
        yield free_walk(step_distribution(preset_weights(name)), 2000, CounterRng(1)).moves
    yield rejection_sample(step_distribution(preset_weights("uniform")), 0, 0, 9,
                           CounterRng(2)).moves
    for ell in (30, 300):  # the count table, then the tableau
        yield exact_sampler(TRI, 0, 1, ell)(CounterRng(3)).moves
    yield exact_sampler(preset_weights("quad"), 0, 0, 17)(CounterRng(4)).moves
    m = walk_to_map(FIG_WALK)
    yield map_to_walk(m).moves
    yield unsew(sew(FIG_MOVES))
    yield tuple(face_types(m).values())


def test_one_object_per_face_type():
    seen = 0
    for moves in _walks_from_every_producer():
        for mv in moves:
            if isinstance(mv, FaceMove):
                assert mv is face_move(mv.i, mv.j)
                seen += 1
            else:
                assert mv is EDGE
    assert seen > 1000
