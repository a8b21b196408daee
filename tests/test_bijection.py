import random
from fractions import Fraction

import pytest

from bipolar_maps.enumeration import enumerate_walks
from bipolar_maps.errors import BipolarError, NotBipolarCodeError, UnsewError
from bipolar_maps.planar_map import (canonical_form, map_to_json, reverse_map,
                                     validate_bipolar)
from bipolar_maps.simulate import degrees_from_walk
from bipolar_maps.sewing import (apply_move, initial_state, map_to_walk, sew,
                                 state_from_map, state_rotate180, state_to_map,
                                 unsew, walk_to_map)
from bipolar_maps.walks import (EDGE, FaceMove, LatticeWalk, reverse_moves,
                                walk_from_text, walk_to_text)
from bipolar_maps.weights import FaceWeights, preset_weights

from conftest import FIG_MOVES, all_triangulation_walks, relabel


def random_moves(rng, length, max_ij=4):
    out = []
    for _ in range(length):
        if rng.random() < 0.5:
            out.append(EDGE)
        else:
            out.append(FaceMove(rng.randint(0, max_ij), rng.randint(0, max_ij)))
    return tuple(out)


def test_initial_state():
    st = initial_state()
    assert st.n_edges == 1 and st.n_faces == 0
    assert st.is_unmarked()
    assert unsew(st) == ()


def test_initial_state_numbers_its_edge_0_to_1():
    # the fold numbers vertices as Frontier does, from 0: the first edge
    # runs from the start vertex 0 to the active vertex 1
    st = initial_state()
    assert (st.start, st.bottom, st.active, st.top) == (0, 0, 1, 1)
    assert sorted(st.vertices) == [0, 1] and (st.lo, st.hi) == ([0], [1])


def test_apply_move_is_pure():
    st = initial_state()
    st2 = apply_move(st, EDGE)
    assert st.n_edges == 1 and st2.n_edges == 2
    assert st2.is_unmarked()


def test_every_move_applies_everywhere():
    rng = random.Random(1)
    st = initial_state()
    for k in range(60):
        st = apply_move(st, random_moves(rng, 1)[0])
        st.check_invariants()
        assert st.n_edges == 2 + k


def test_quadrant_exit_bookkeeping():
    st = sew((FaceMove(2, 0),))
    assert st.missing_west == 2
    assert st.dx == -2
    assert not st.is_unmarked()


def test_fig_sequence_counts():
    st = sew(FIG_MOVES)
    assert st.n_edges == 16
    assert st.n_faces == 7
    assert st.is_unmarked()
    assert unsew(st) == FIG_MOVES


def test_unsew_round_trip_random():
    rng = random.Random(12345)
    for _ in range(500):
        seq = random_moves(rng, rng.randint(1, 120))
        st = sew(seq)
        assert st.n_edges == 1 + len(seq)
        assert unsew(st) == seq


def test_rotation_symmetry_random():
    rng = random.Random(999)
    for _ in range(300):
        seq = random_moves(rng, rng.randint(1, 80))
        assert unsew(state_rotate180(sew(seq))) == reverse_moves(seq)
        assert reverse_moves(reverse_moves(seq)) == seq


def test_rotation_twice_is_the_identity_and_copies_are_independent():
    # i, j <= 4 sends many sequences out of the quadrant on both sides
    rng = random.Random(2024)
    unmarked = both_exits = 0
    for _ in range(2000):
        seq = random_moves(rng, rng.randint(0, 60))
        st = sew(seq)
        assert unsew(st) == seq  # works on a copy: st keeps every edge id
        rot = state_rotate180(st)
        rot.check_invariants()
        back = state_rotate180(rot)
        assert unsew(back) == seq
        assert (back.missing_east, back.missing_west, back.dx, back.dy) == \
            (st.missing_east, st.missing_west, st.dx, st.dy)
        both_exits += st.missing_east > 0 and st.missing_west > 0
        if st.is_unmarked():
            unmarked += 1
            assert map_to_json(state_to_map(back)) == map_to_json(state_to_map(st))
        apply_move(st, random_moves(rng, 1)[0])
        assert unsew(st) == seq
    assert unmarked > 0 and both_exits > 0


def _undo_and_redo(st):
    """Undo every move of ``st``, then apply them again: each unmarked prefix
    freezes into its own map, and sewn edge ids stay distinct."""
    seq = unsew(st)
    whole = state_to_map(st) if st.is_unmarked() else None
    for k in range(len(seq), 0, -1):
        assert st.undo() == seq[k - 1]
        if st.is_unmarked():
            assert unsew(state_from_map(state_to_map(st))) == seq[:k - 1]
    for mv in seq:
        st.apply(mv)
        ids = [e for out, _ in st.vertices.values() for e in out]
        assert len(set(ids)) == len(ids) == st.n_edges
    assert unsew(st) == seq
    if whole is not None:
        assert state_to_map(st) == whole


def test_undo_and_redo_on_half_turns_and_relabelled_maps():
    # neither a half-turn nor a map read from JSON numbers its edges in
    # sewing order, so the last edge sewn need not have the largest id
    rng = random.Random(1604)
    for _ in range(300):
        _undo_and_redo(state_rotate180(sew(random_moves(rng, rng.randint(1, 40)))))
    for walk in all_triangulation_walks(6):
        _undo_and_redo(state_from_map(relabel(walk_to_map(walk), rng)[0]))
    _undo_and_redo(state_rotate180(sew((EDGE,))))


def test_length2_sequences_pairwise_distinct():
    alphabet = (EDGE, FaceMove(0, 1), FaceMove(1, 0))
    states = [sew((a, b)) for a in alphabet for b in alphabet]
    codes = {unsew(st) for st in states}
    assert len(codes) == 9


def test_walk_to_map_smallest():
    m = walk_to_map(LatticeWalk((0, 0), ()))
    assert m.n_edges == 1
    assert len(m.west_edges) == len(m.east_edges) == 1


def test_walk_to_map_triangulation():
    w = LatticeWalk((0, 0), (FaceMove(0, 1), EDGE))
    m = walk_to_map(w)
    assert m.n_vertices == 3 and m.n_edges == 3
    assert map_to_walk(m) == w


def test_walk_to_map_rejects_bad_codes():
    with pytest.raises(NotBipolarCodeError):
        walk_to_map(LatticeWalk((0, 0), (EDGE,)))  # dips below the axis
    with pytest.raises(NotBipolarCodeError):
        walk_to_map(LatticeWalk((0, 0), (FaceMove(1, 0),)))  # exits in x
    with pytest.raises(NotBipolarCodeError):
        walk_to_map(LatticeWalk((0, 1), ()))  # ends off the x-axis


def fold_to_map(walk):
    """Decode through the marked-state fold, the reference for walk_to_map."""
    if walk.start[0] != 0 or walk.start[1] < 0:
        raise NotBipolarCodeError("walk must start at (0, m)")
    st = sew(walk.moves)
    if walk.end[1] != 0:
        raise NotBipolarCodeError("walk does not end on the x-axis")
    return state_to_map(st)  # raises unless the state is unmarked


def test_walk_to_map_matches_marked_fold():
    # degrees 2, 3, 4 and 6 together have 117k walks up to 10 edges, so the
    # mixed support stops at 7 edges (1 437 walks)
    mixed = FaceWeights({k: Fraction(1) for k in (2, 3, 4, 6)})
    families = [(preset_weights("tri"), 10), (preset_weights("quad"), 10),
                (preset_weights("kgon:5"), 10), (mixed, 7)]
    count = 0
    for w, max_ell in families:
        for m in range(3):
            for n in range(3):
                for ell in range(1, max_ell + 1):
                    for walk in enumerate_walks(w, m, n, ell):
                        assert (map_to_json(walk_to_map(walk))
                                == map_to_json(fold_to_map(walk))), walk
                        count += 1
    assert count == 941 + 439 + 153 + 1437


def test_walk_to_map_quadrant_exits_match_marked_fold():
    rng = random.Random(3)
    exits = {"x": 0, "y": 0}
    for _ in range(2000):
        walk = LatticeWalk((0, rng.randint(0, 2)),
                           random_moves(rng, rng.randint(0, 8), max_ij=2))
        outcomes = []
        for decode in (walk_to_map, fold_to_map):
            try:
                outcomes.append(map_to_json(decode(walk)))
            except BipolarError as exc:
                outcomes.append(type(exc))
        assert outcomes[0] == outcomes[1], walk
        # the degree replay refuses exactly the walks that walk_to_map refuses
        try:
            degrees_from_walk(walk)
            assert isinstance(outcomes[0], str), walk
        except NotBipolarCodeError:
            assert outcomes[0] is NotBipolarCodeError, walk
        pts = walk.points()
        for axis, name in ((0, "x"), (1, "y")):
            if min(p[axis] for p in pts) < 0:
                exits[name] += 1
                assert outcomes[0] is NotBipolarCodeError, walk
    assert exits["x"] > 100 and exits["y"] > 100


def test_fig_walk_round_trip(fig_walk):
    m = walk_to_map(fig_walk)
    assert map_to_walk(m) == fig_walk
    assert len(map_to_walk(m).points()) == 16


def test_exhaustive_round_trip_small():
    count = 0
    canons = set()
    for walk in all_triangulation_walks(8):
        m = walk_to_map(walk)
        count += 1
        assert not validate_bipolar(m)
        assert map_to_walk(m) == walk
        st = state_from_map(m)
        assert unsew(st) == walk.moves
        text = map_to_json(m)
        assert map_to_json(state_to_map(st)) == text
        assert map_to_json(state_to_map(state_rotate180(state_rotate180(st)))) == text
        canons.add(canonical_form(m))
    assert len(canons) == count  # injectivity


def test_reversal_maps_to_rotated_map(fig_walk):
    m = walk_to_map(fig_walk)
    rw = LatticeWalk((0, len(m.east_edges) - 1), reverse_moves(fig_walk.moves))
    assert canonical_form(walk_to_map(rw)) == canonical_form(reverse_map(m))


def test_walk_text_round_trip(fig_walk):
    text = walk_to_text(fig_walk)
    assert walk_from_text(text) == fig_walk
    commented = "# a comment\n\n" + text + "\n# trailing\n"
    assert walk_from_text(commented) == fig_walk


def test_unsew_rejects_corrupted_state():
    st = sew((EDGE, FaceMove(0, 1)))
    st.active = st.bottom  # active may never sit at the bottom
    with pytest.raises(Exception) as exc:
        unsew(st)
    assert "derive" in str(exc.value)


def _corrupt(moves, fault):
    st = sew(moves)
    fault(st)
    return st


# every raise of UnsewError, each reached by corrupting one field of a
# sewn state; the message names the move being derived
@pytest.mark.parametrize("make, message", [
    (initial_state, "cannot derive a move: state is the initial edge"),
    (lambda: _corrupt((EDGE, FaceMove(0, 1)), lambda st: setattr(st, "active", st.bottom)),
     "cannot derive move 2: boundary edge does not reach the active vertex"),
    (lambda: _corrupt((EDGE,), lambda st: st.below.clear()),
     "cannot derive move 1: no east boundary edge below the active vertex"),
    (lambda: _corrupt((EDGE,), lambda st: setattr(st, "top", st.bottom)),
     "cannot derive move 1: west-boundary edge out of place"),
    (lambda: _corrupt((EDGE,), lambda st: st.west_edges.reverse()),
     "cannot derive move 1: top edge is not the last west-boundary edge"),
    (lambda: _corrupt((EDGE,), lambda st: st.vertices[st.top][1].insert(0, 99)),
     "cannot derive move 1: top vertex has extra edges"),
    (lambda: _corrupt((FaceMove(0, 2),), lambda st: st.above.reverse()),
     "cannot derive move 1: east slots of the last face are not the "
     "southernmost missing edges"),
    (lambda: _corrupt((FaceMove(0, 2),),
                      lambda st: st.vertices[max(st.vertices) - 1][0].append(99)),
     "cannot derive move 1: open-face vertex already has edges"),
    (lambda: _corrupt((FaceMove(2, 0),), lambda st: st.west_missing.reverse()),
     "cannot derive move 1: missing west edges of the last face are out of order"),
    (lambda: _corrupt((FaceMove(2, 0),), lambda st: st.vertices[st.bottom][1].append(99)),
     "cannot derive move 1: missing-west vertex already has edges"),
    (lambda: _corrupt((EDGE, FaceMove(0, 1)),
                      lambda st: st.vertices[st.active][1].append(99)),
     "cannot derive move 2: edge 2 is not east-most at both endpoints"),
], ids=["initial-edge", "active-at-bottom", "no-east-boundary", "top-moved",
        "west-ledger-reversed", "top-vertex-extra-edge", "east-slots-reversed",
        "open-face-vertex-edge", "west-missing-reversed", "missing-west-vertex-edge",
        "not-east-most"])
def test_unsew_error_messages(make, message):
    st = make()
    with pytest.raises(UnsewError) as exc:
        unsew(st) if st.moves_applied else st.undo()  # unsew stops at the initial edge
    assert str(exc.value) == message
