"""Sewing moves and the two-way map/walk correspondence.

Move sequences are folded into *marked* states: a map under construction
with a start vertex low on the west boundary and an active vertex on the
east boundary.  East-boundary edges above the active vertex and
west-boundary edges below the start vertex are "missing": slots that bound
open faces but hold no edge yet.  Every move adds exactly one edge; a face
move also adds one open face.  The fold is reversible (``unsew``), and
restricting to quadrant walks from (0, m) to (n, 0) gives the bijection
with unmarked bipolar maps.

``Frontier`` is the same sewing rule on plain vertex ids: it keeps only the
east frontier, which is all a move needs to know which edge it adds.  It is
the one replay that decodes walks (``walk_to_map``) and feeds degrees, the
upward embedding and the steered sampler; the marked-state fold stays as
the reference and the unsew engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import BipolarError, NotBipolarCodeError, UnsewError
from .planar_map import EAST_OUTER, WEST_OUTER, PlanarMap, nw_depths, se_depths
from .walks import EDGE, EdgeMove, FaceMove, LatticeWalk, Move

_W = WEST_OUTER
_E = EAST_OUTER


class _Slot:
    """A missing (or later filled) east-side edge of one face."""

    __slots__ = ("lo", "hi", "face", "edge")

    def __init__(self, lo, hi, face, edge=None):
        self.lo = lo
        self.hi = hi
        self.face = face
        self.edge = edge  # edge id once filled


class _EdgeRec:
    __slots__ = ("lo", "hi", "west", "east", "slot")

    def __init__(self, lo, hi, west, east, slot=None):
        self.lo = lo
        self.hi = hi
        self.west = west  # face id, or _W
        self.east = east  # face id, or _E
        self.slot = slot  # the slot this edge fills, None on the west boundary


class _FaceRec:
    __slots__ = ("west_real", "west_missing", "east", "top", "bottom")

    def __init__(self, west_real, west_missing, east, top, bottom):
        self.west_real = west_real        # edge ids, top to bottom
        self.west_missing = west_missing  # (lo, hi) vertex pairs, top to bottom
        self.east = east                  # slots, top to bottom
        self.top = top
        self.bottom = bottom

    @property
    def move(self) -> FaceMove:
        i = len(self.west_real) + len(self.west_missing) - 1
        return FaceMove(i, len(self.east) - 1)


@dataclass
class MarkedBipolarState:
    """Marked bipolar map under construction.  Mutated only by this module."""

    vertices: dict[int, tuple[list[int], list[int]]] = field(default_factory=dict)
    edges: dict[int, _EdgeRec] = field(default_factory=dict)
    faces: dict[int, _FaceRec] = field(default_factory=dict)
    below: list[int] = field(default_factory=list)       # east boundary edges, bottom->top
    above: list[_Slot] = field(default_factory=list)     # missing east slots, [-1] southernmost
    west_edges: list[int] = field(default_factory=list)  # real west boundary, bottom->top
    west_missing: list[tuple[int, int, int]] = field(default_factory=list)  # (lo, hi, face), [-1] lowest
    start: int = 0
    active: int = 0
    bottom: int = 0
    top: int = 0
    dx: int = 0
    dy: int = 0
    moves_applied: int = 0
    _next_vertex: int = 0
    _next_edge: int = 0
    _next_face: int = 0

    # -- bookkeeping -------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def missing_east(self) -> int:
        return len(self.above)

    @property
    def missing_west(self) -> int:
        return len(self.west_missing)

    def is_unmarked(self) -> bool:
        """True iff no edges are missing: a plain bipolar map."""
        return not self.above and not self.west_missing

    def check_invariants(self) -> None:
        """Walk-displacement identities tying (dx, dy) to the boundary ledger."""
        if self.dx != -1 + len(self.below) - len(self.west_missing):
            raise AssertionError("east/west ledger disagrees with x displacement")
        if self.dy != 1 + len(self.above) - len(self.west_edges):
            raise AssertionError("east/west ledger disagrees with y displacement")
        if self.above and self.above[-1].lo != self.active:
            raise AssertionError("southernmost missing slot is not at the active vertex")

    def copy(self) -> "MarkedBipolarState":
        new = MarkedBipolarState()
        new.vertices = {v: (list(o), list(i)) for v, (o, i) in self.vertices.items()}
        new.edges = {e: _EdgeRec(r.lo, r.hi, r.west, r.east) for e, r in self.edges.items()}
        slot_map: dict[int, _Slot] = {}
        new.faces = {}
        for fid, f in self.faces.items():
            east = []
            for s in f.east:
                s2 = _Slot(s.lo, s.hi, s.face, s.edge)
                east.append(s2)
                slot_map[id(s)] = s2
                if s.edge is not None:
                    new.edges[s.edge].slot = s2
            new.faces[fid] = _FaceRec(list(f.west_real), list(f.west_missing),
                                      east, f.top, f.bottom)
        new.below = list(self.below)
        new.above = [slot_map[id(s)] for s in self.above]
        new.west_edges = list(self.west_edges)
        new.west_missing = list(self.west_missing)
        for name in ("start", "active", "bottom", "top", "dx", "dy",
                     "moves_applied", "_next_vertex", "_next_edge", "_next_face"):
            setattr(new, name, getattr(self, name))
        return new

    # -- primitive constructors --------------------------------------------

    def _new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self.vertices[v] = ([], [])
        return v

    def _new_edge(self, lo, hi, west, east, slot=None) -> int:
        e = self._next_edge
        self._next_edge += 1
        self.edges[e] = _EdgeRec(lo, hi, west, east, slot)
        self.vertices[lo][0].append(e)
        self.vertices[hi][1].append(e)
        return e

    def _drop_edge(self, e: int) -> _EdgeRec:
        rec = self.edges.pop(e)
        out = self.vertices[rec.lo][0]
        inn = self.vertices[rec.hi][1]
        if not out or out[-1] != e or not inn or inn[-1] != e:
            raise UnsewError(
                f"cannot derive move {self.moves_applied}: edge {e} is not "
                "east-most at both endpoints")
        out.pop()
        inn.pop()
        return rec

    # -- the three kinds of sewing steps ------------------------------------

    def _fill_slot(self) -> int:
        slot = self.above.pop()
        assert slot.lo == self.active
        e = self._new_edge(slot.lo, slot.hi, slot.face, _E, slot)
        slot.edge = e
        self.below.append(e)
        self.active = slot.hi
        return e

    def _extend_top(self) -> int:
        v = self._new_vertex()
        e = self._new_edge(self.active, v, _W, _E)
        self.below.append(e)
        self.west_edges.append(e)
        self.top = v
        self.active = v
        return e

    def _apply_edge_move(self) -> None:
        if self.above:
            self._fill_slot()
        else:
            self._extend_top()
        self.dx += 1
        self.dy -= 1

    def _apply_face_move(self, i: int, j: int) -> None:
        fid = self._next_face
        self._next_face += 1
        c = min(i + 1, len(self.below))
        west_real = []
        for _ in range(c):
            e = self.below.pop()
            self.edges[e].east = fid
            west_real.append(e)
        west_missing: list[tuple[int, int]] = []
        if c < i + 1:
            cur = self.bottom
            for _ in range(i + 1 - c):
                u = self._new_vertex()
                west_missing.append((u, cur))
                self.west_missing.append((u, cur, fid))
                cur = u
            self.bottom = cur
            pbottom = cur
        else:
            pbottom = self.edges[west_real[-1]].lo
        prev = self.active
        east = []
        for _ in range(j):
            v = self._new_vertex()
            east.append(_Slot(v, prev, fid))
            prev = v
        east.append(_Slot(pbottom, prev, fid))
        self.faces[fid] = _FaceRec(west_real, west_missing, east,
                                   top=self.active, bottom=pbottom)
        self.above.extend(east)
        self.active = pbottom
        self._fill_slot()
        self.dx -= i
        self.dy += j

    def apply(self, move: Move) -> None:
        if isinstance(move, EdgeMove):
            self._apply_edge_move()
        else:
            self._apply_face_move(move.i, move.j)
        self.moves_applied += 1
        assert self.dx == -1 + len(self.below) - len(self.west_missing)
        assert self.dy == 1 + len(self.above) - len(self.west_edges)

    # -- inverting the last move ---------------------------------------------

    def undo(self) -> Move:
        """Remove the last-adjoined edge and return the move that created it.

        The last edge is always the east-most downward edge at the active
        vertex; it came from a face move exactly when it is the bottom edge
        of the east side of the face west of it.
        """
        step = self.moves_applied
        if step <= 0:
            raise UnsewError("cannot derive a move: state is the initial edge")
        if not self.below:
            raise UnsewError(f"cannot derive move {step}: no east boundary edge "
                             "below the active vertex")
        e = self.below[-1]
        rec = self.edges[e]
        if rec.hi != self.active:
            raise UnsewError(f"cannot derive move {step}: boundary edge does not "
                             "reach the active vertex")
        if rec.slot is None:
            move = self._undo_extend_top(e, rec)
        elif rec.slot is self.faces[rec.west].east[-1]:
            move = self._undo_face_move(e, rec)
        else:
            move = self._undo_fill(e, rec)
        self.moves_applied -= 1
        ddx, ddy = move.delta
        self.dx -= ddx
        self.dy -= ddy
        return move

    def _undo_extend_top(self, e, rec) -> Move:
        step = self.moves_applied
        if rec.west != _W or rec.hi != self.top:
            raise UnsewError(f"cannot derive move {step}: west-boundary edge out of place")
        if not self.west_edges or self.west_edges[-1] != e or len(self.west_edges) < 2:
            raise UnsewError(f"cannot derive move {step}: top edge is not the last "
                             "west-boundary edge")
        out, inn = self.vertices[rec.hi]
        if out or inn != [e]:
            raise UnsewError(f"cannot derive move {step}: top vertex has extra edges")
        self.below.pop()
        self.west_edges.pop()
        self._drop_edge(e)
        del self.vertices[rec.hi]
        self.top = rec.lo
        self.active = rec.lo
        return EDGE

    def _undo_fill(self, e, rec) -> Move:
        self.below.pop()
        self._drop_edge(e)
        rec.slot.edge = None
        self.above.append(rec.slot)
        self.active = rec.lo
        return EDGE

    def _undo_face_move(self, e, rec) -> Move:
        step = self.moves_applied
        fid = rec.west
        f = self.faces[fid]
        move = f.move
        self.below.pop()
        self._drop_edge(e)
        # the remaining east-side slots of f must be the southernmost missing ones
        for k in range(len(f.east) - 2, -1, -1):
            if not self.above or self.above[-1] is not f.east[k]:
                raise UnsewError(f"cannot derive move {step}: east slots of the "
                                 "last face are not the southernmost missing edges")
            slot = self.above.pop()
            out, inn = self.vertices[slot.lo]
            if out or inn:
                raise UnsewError(f"cannot derive move {step}: open-face vertex "
                                 "already has edges")
            del self.vertices[slot.lo]
        # west side returns to the east boundary
        for we in reversed(f.west_real):
            self.edges[we].east = _E
            self.below.append(we)
        for lo, hi in reversed(f.west_missing):
            if not self.west_missing or self.west_missing[-1][:2] != (lo, hi):
                raise UnsewError(f"cannot derive move {step}: missing west edges "
                                 "of the last face are out of order")
            self.west_missing.pop()
            out, inn = self.vertices[lo]
            if out or inn:
                raise UnsewError(f"cannot derive move {step}: missing-west vertex "
                                 "already has edges")
            del self.vertices[lo]
            self.bottom = hi
        self.active = f.top
        del self.faces[fid]
        return move


def initial_state() -> MarkedBipolarState:
    """A single oriented edge: start vertex below, active vertex above."""
    st = MarkedBipolarState()
    s = st._new_vertex()
    a = st._new_vertex()
    st.start = s
    st.bottom = s
    st.top = a
    st.active = a
    e = st._new_edge(s, a, _W, _E)
    st.below.append(e)
    st.west_edges.append(e)
    return st


def apply_move(state: MarkedBipolarState, move: Move) -> MarkedBipolarState:
    """Pure single-step version of the fold; the input state is not touched."""
    new = state.copy()
    new.apply(move)
    return new


def sew(moves) -> MarkedBipolarState:
    """Fold a move sequence into a marked state (edge count = 1 + #moves)."""
    st = initial_state()
    for mv in moves:
        st.apply(mv)
    return st


def unsew(state: MarkedBipolarState) -> tuple[Move, ...]:
    """Recover the unique move sequence producing ``state``; input unchanged."""
    st = state.copy()
    moves = []
    while st.moves_applied > 0:
        moves.append(st.undo())
    return tuple(reversed(moves))


def state_rotate180(state: MarkedBipolarState) -> MarkedBipolarState:
    """The same structure rotated half a turn: start and active swap roles."""
    new = MarkedBipolarState()
    new.vertices = {v: (list(reversed(i)), list(reversed(o)))
                    for v, (o, i) in state.vertices.items()}

    def flip_face(face):
        return _W if face == _E else _E if face == _W else face

    new.edges = {e: _EdgeRec(r.hi, r.lo, flip_face(r.east), flip_face(r.west))
                 for e, r in state.edges.items()}
    new.faces = {}
    for fid, f in state.faces.items():
        # old west side (top to bottom) becomes the new east side (bottom to top);
        # endpoints swap because every edge now runs the other way
        east: list[_Slot] = []
        for e in f.west_real:
            east.append(_Slot(state.edges[e].hi, state.edges[e].lo, fid, e))
        for lo, hi in f.west_missing:
            east.append(_Slot(hi, lo, fid, None))
        east.reverse()
        for s in east:
            if s.edge is not None:
                new.edges[s.edge].slot = s
        west_real = [s.edge for s in reversed(f.east) if s.edge is not None]
        west_missing = [(s.hi, s.lo) for s in reversed(f.east) if s.edge is None]
        new.faces[fid] = _FaceRec(west_real, west_missing, east,
                                  top=f.bottom, bottom=f.top)
    new.below = [e for e in reversed(state.west_edges)]
    new.west_edges = [e for e in reversed(state.below)]
    new.above = []
    for lo, hi, fid in reversed(state.west_missing):
        # the highest old missing-west edge ends up just above the new active vertex
        f = new.faces[fid]
        for s in f.east:
            if s.edge is None and (s.lo, s.hi) == (hi, lo):
                new.above.append(s)
                break
    new.west_missing = [(s.hi, s.lo, s.face) for s in state.above]
    new.west_missing.reverse()
    new.start = state.active
    new.active = state.start
    new.top = state.bottom
    new.bottom = state.top
    new.dx = -1 + len(new.below) - len(new.west_missing)
    new.dy = 1 + len(new.above) - len(new.west_edges)
    new.moves_applied = state.moves_applied
    new._next_vertex = state._next_vertex
    new._next_edge = state._next_edge
    new._next_face = state._next_face
    return new


# -- state <-> PlanarMap ------------------------------------------------------


def state_to_map(state: MarkedBipolarState) -> PlanarMap:
    """Freeze an unmarked state into a PlanarMap record."""
    if not state.is_unmarked():
        raise NotBipolarCodeError(
            f"state has {state.missing_east} missing east and "
            f"{state.missing_west} missing west edges")
    v_ids = sorted(state.vertices)
    v_new = {v: k for k, v in enumerate(v_ids)}
    e_ids = sorted(state.edges)
    e_new = {e: k for k, e in enumerate(e_ids)}
    edges = [(v_new[state.edges[e].lo], v_new[state.edges[e].hi]) for e in e_ids]
    rotations = []
    for v in v_ids:
        out, inn = state.vertices[v]
        refs = [e_new[e] + 1 for e in reversed(out)]
        refs += [-(e_new[e] + 1) for e in inn]
        rotations.append(refs)
    return PlanarMap(
        n_vertices=len(v_ids),
        edges=edges,
        rotations=rotations,
        south=v_new[state.bottom],
        north=v_new[state.top],
        west_anchor=e_new[state.west_edges[0]],
    )


def state_from_map(m: PlanarMap) -> MarkedBipolarState:
    """Rebuild the sewing bookkeeping of a finished (unmarked) bipolar map."""
    m.require_valid()
    st = MarkedBipolarState()
    st.vertices = {v: (list(m.out_edges_we(v)), list(m.in_edges_we(v)))
                   for v in range(m.n_vertices)}
    face_of = m.face_of_dart()
    st.edges = {e: _EdgeRec(t, h, face_of[2 * e], face_of[2 * e + 1])
                for e, (t, h) in enumerate(m.edges)}
    for fd in m.interior_faces():
        east = []
        for e in reversed(fd.east_edges_up):
            slot = _Slot(m.edges[e][0], m.edges[e][1], fd.index, e)
            st.edges[e].slot = slot
            east.append(slot)
        st.faces[fd.index] = _FaceRec(list(fd.west_edges_down), [], east,
                                      top=fd.max_vertex, bottom=fd.min_vertex)
    st.below = list(m.east_edges)
    st.west_edges = list(m.west_edges)
    st.start = m.south
    st.bottom = m.south
    st.top = m.north
    st.active = m.north
    st.moves_applied = m.n_edges - 1
    st.dx = len(m.east_edges) - 1
    st.dy = 1 - len(m.west_edges)
    st._next_vertex = m.n_vertices
    st._next_edge = m.n_edges
    st._next_face = len(m.interior_faces())
    return st


# -- the flat frontier replay -------------------------------------------------


class Frontier:
    """The east frontier of a map being sewn, one move at a time.

    ``below`` lists the frontier vertices under the active one, bottom to
    top; ``above`` those over it, nearest last.  Each move adds one edge and
    new vertices take the next ids, so vertex and edge ids come in creation
    order, matching the marked-state fold exactly inside the quadrant.
    """

    def __init__(self):
        self.below = [0]
        self.above: list[int] = []
        self.active = 1
        self.n_vertices = 2

    def edge_of(self, move: Move) -> tuple[int, int]:
        """The (tail, head) edge ``move`` would add; new vertices get the next ids.

        A face move F(i, j) joins the frontier vertex i places below the
        top of ``below`` to the last of its j new vertices, or to the active
        vertex when j = 0.
        """
        if isinstance(move, EdgeMove):
            return self.active, self.above[-1] if self.above else self.n_vertices
        if move.i >= len(self.below):
            raise NotBipolarCodeError(
                f"not a closed bipolar code: {move!r} at x = {len(self.below) - 1} "
                "leaves the quadrant")
        return (self.below[-1 - move.i],
                self.n_vertices + move.j - 1 if move.j else self.active)

    def push(self, move: Move) -> tuple[int, int, int | None]:
        """Apply ``move``; returns its edge and the face's apex.

        The apex is the corner just above the face's bottom on its west side
        (None for an edge move): a west triangle's chord buries it, an east
        triangle hangs its new active vertex below it.
        """
        tail, head = self.edge_of(move)
        below = self.below
        if isinstance(move, EdgeMove):
            if head == self.n_vertices:
                self.n_vertices += 1
            else:
                self.above.pop()
            below.append(tail)
            apex = None
        else:
            i = move.i
            apex = below[-i] if i else self.active
            if i:
                del below[-i:]
            if move.j:
                self.above.append(self.active)
                self.above.extend(range(self.n_vertices, head))
                self.n_vertices = head + 1
        self.active = head
        return tail, head, apex

    def replay(self, walk: LatticeWalk):
        """Push every move of ``walk``, yielding each new edge (tail, head).

        Raises NotBipolarCodeError unless the walk is a closed bipolar code:
        it must start at (0, m), stay in the quadrant and end at (n, 0).  The
        end is checked once the last edge has been yielded.
        """
        if walk.start[0] != 0 or walk.start[1] < 0:
            raise NotBipolarCodeError(
                f"not a closed bipolar code: walk must start at (0, m), got {walk.start}")
        push = self.push
        for mv in walk.moves:
            tail, head, _ = push(mv)
            yield tail, head
        if self.above:
            raise NotBipolarCodeError(
                "not a closed bipolar code: walk leaves the quadrant or does not "
                "end on the x-axis")
        end = walk.end
        if end[1] != 0:
            raise NotBipolarCodeError(
                f"not a closed bipolar code: walk ends at {end}, not (n, 0)")


# -- walk <-> map --------------------------------------------------------------


def walk_to_map(walk: LatticeWalk) -> PlanarMap:
    """Decode a quadrant walk from (0, m) to (n, 0) into a bipolar map.

    One frontier replay lists the edges in creation order.  At each vertex
    the counterclockwise rotation is its outgoing edges, newest (east-most)
    first, then its incoming edges, oldest (west-most) first.
    """
    frontier = Frontier()
    edges = [(0, 1)]
    edges.extend(frontier.replay(walk))
    n = frontier.n_vertices
    outs: list[list[int]] = [[] for _ in range(n)]
    ins: list[list[int]] = [[] for _ in range(n)]
    for ref, (tail, head) in enumerate(edges, start=1):
        outs[tail].append(ref)
        ins[head].append(-ref)
    return PlanarMap(
        n_vertices=n,
        edges=edges,
        rotations=[out[::-1] + inn for out, inn in zip(outs, ins)],
        south=0,
        north=frontier.active,
        west_anchor=0,
    )


def interface_order(m: PlanarMap) -> tuple[list[int], tuple[Move, ...]]:
    """Edge order along the interface path, plus the move between neighbors.

    The path starts on the bottom west-boundary edge; after an edge whose
    east face hangs below its head (the face's maximum), it crosses that face
    to the bottom edge of the face's east side; otherwise it continues on the
    west-most untraversed outgoing edge at the head.
    """
    m.require_valid()
    faces = m.interior_faces()
    face_of = m.face_of_dart()
    cursor = [0] * m.n_vertices

    def take(v: int, expected: int | None = None) -> int:
        outs = m.out_edges_we(v)
        if cursor[v] >= len(outs):
            raise BipolarError("interface path stuck: no untraversed outgoing edge")
        e = outs[cursor[v]]
        if expected is not None and e != expected:
            raise BipolarError("interface path disagrees with rotation order")
        cursor[v] += 1
        return e

    order = [take(m.south)]
    moves: list[Move] = []
    while True:
        e = order[-1]
        f = face_of[2 * e + 1]
        if f >= 0 and faces[f].west_edges_down[0] == e:
            fd = faces[f]
            moves.append(FaceMove(len(fd.west_edges_down) - 1,
                                  len(fd.east_edges_up) - 1))
            order.append(take(fd.min_vertex, fd.east_edges_up[0]))
        elif m.edges[e][1] == m.north:
            break
        else:
            moves.append(EDGE)
            order.append(take(m.edges[e][1]))
    if len(order) != m.n_edges:
        raise BipolarError("interface path did not visit every edge")
    return order, tuple(moves)


def map_to_walk(m: PlanarMap) -> LatticeWalk:
    """Encode a valid bipolar map as its interface walk.

    The t-th point is (distance from the south pole to the t-th edge's tail
    in the SE tree, distance from the north pole to its head in the NW tree);
    the increments must agree with the interface path's own edge/face steps.
    """
    order, moves = interface_order(m)
    xd = se_depths(m)
    yd = nw_depths(m)
    pts = [(xd[m.edges[e][0]], yd[m.edges[e][1]]) for e in order]
    for t, mv in enumerate(moves):
        got = (pts[t + 1][0] - pts[t][0], pts[t + 1][1] - pts[t][1])
        if got != mv.delta:
            raise BipolarError(
                f"tree distances disagree with the interface path at step {t}: "
                f"{got} vs {mv.delta}")
    walk = LatticeWalk(pts[0], moves)
    if pts[0] != (0, len(m.west_edges) - 1) or walk.end != (len(m.east_edges) - 1, 0):
        raise BipolarError("interface walk endpoints disagree with boundary lengths")
    return walk
