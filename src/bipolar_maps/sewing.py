"""Sewing moves and the two-way map/walk correspondence.

Move sequences are folded into *marked* states: a map under construction
with a start vertex low on the west boundary and an active vertex on the
east boundary.  Every edge of the fold, present or not, is one record, a
number into five parallel int lists: its ends (``lo``, ``hi``), the faces
west and east of it, and its edge id (``eid``, -1 while it is missing).  A
missing record lies on the east boundary above the active vertex, or on
the west boundary below the start vertex, bounding an open face.  Every
move sews exactly one record; a face move also opens one face and adds its
other sides as missing records.  A face's two sides are lists of record
numbers written once, when the face opens, so copies share them.  The fold
is reversible (``unsew``), the half-turn (``state_rotate180``) keeps every
record number and swaps ends, sides (the outer labels exchanged) and
boundary ledgers, and restricting to quadrant walks from (0, m) to (n, 0)
gives the bijection with unmarked bipolar maps.

``Frontier`` is the same sewing rule on plain vertex ids: it keeps only the
east frontier, which is all a move needs to know which edge it adds.
``Frontier.push_all`` applies the rule to a whole move sequence in one loop
and returns flat lists of edge tails and heads.  ``walk_edges`` checks a
walk through it and counts every vertex's in- and out-degree, and
``walk_to_map`` and the degree tracer decode that; ``walk_to_map``
places every dart in one flat rotation list by a counting pass, so no
layer holds a tuple or list per edge.  The steered sampler pushes one
move at a time.  The marked-state fold stays as the reference
and the unsew engine.  The upward embedding reads the map instead: its
vertex creation order is the order in which ``interface_order`` first
reaches each vertex, the order in which ``Frontier`` numbers them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate
from operator import add

from .errors import BipolarError, NotBipolarCodeError, UnsewError
from .planar_map import EAST_OUTER, WEST_OUTER, PlanarMap, nw_depths, se_depths
from .walks import EDGE, EdgeMove, LatticeWalk, Move, face_move

_W = WEST_OUTER
_E = EAST_OUTER
_OTHER_SIDE = {_W: _E, _E: _W}


@dataclass
class MarkedBipolarState:
    """Marked bipolar map under construction.  Mutated only by this module.

    Record r has ends ``lo[r]`` → ``hi[r]``, faces ``west[r]`` and
    ``east[r]`` (a face id, or _W/_E outside) and edge id ``eid[r]`` (-1
    while missing).  ``faces[f]`` is (west records, east records), each top
    to bottom: the west side is its sewn records, then its missing ones;
    the east side its missing records, then its sewn ones.  Records of
    undone moves stay in the lists, unreferenced and missing.  Edge ids are
    never reused, and a half-turn or ``state_from_map`` need not number
    them in sewing order; ``state_to_map`` renumbers them in id order.
    The first edge and every move sew one record each, so ``n_edges`` is
    read off ``moves_applied``.
    """

    vertices: dict[int, tuple[list[int], list[int]]] = field(default_factory=dict)
    lo: list[int] = field(default_factory=list)
    hi: list[int] = field(default_factory=list)
    west: list[int] = field(default_factory=list)
    east: list[int] = field(default_factory=list)
    eid: list[int] = field(default_factory=list)
    faces: dict[int, tuple[list[int], list[int]]] = field(default_factory=dict)
    below: list[int] = field(default_factory=list)         # east boundary, bottom->top
    above: list[int] = field(default_factory=list)         # missing east, [-1] southernmost
    west_edges: list[int] = field(default_factory=list)    # sewn west boundary, bottom->top
    west_missing: list[int] = field(default_factory=list)  # missing west, [-1] lowest
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
        return self.moves_applied + 1

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
        if self.above and self.lo[self.above[-1]] != self.active:
            raise AssertionError("southernmost missing slot is not at the active vertex")

    def copy(self) -> "MarkedBipolarState":
        """An independent copy; the face sides, never rewritten, are shared."""
        return replace(
            self, vertices={v: (o[:], i[:]) for v, (o, i) in self.vertices.items()},
            lo=self.lo[:], hi=self.hi[:], west=self.west[:], east=self.east[:],
            eid=self.eid[:], faces=dict(self.faces), below=self.below[:],
            above=self.above[:], west_edges=self.west_edges[:],
            west_missing=self.west_missing[:])

    # -- sewing one record ---------------------------------------------------

    def _new_vertex(self) -> int:
        v = self._next_vertex
        self._next_vertex += 1
        self.vertices[v] = ([], [])
        return v

    def _record(self, lo: int, hi: int, west: int, east: int) -> int:
        """Add a missing record; returns its number."""
        self.lo.append(lo)
        self.hi.append(hi)
        self.west.append(west)
        self.east.append(east)
        self.eid.append(-1)
        return len(self.eid) - 1

    def _sew(self, r: int) -> None:
        """Give record ``r`` the next edge id, east-most at both ends, top of ``below``."""
        self.eid[r] = e = self._next_edge
        self._next_edge += 1
        self.vertices[self.lo[r]][0].append(e)
        self.vertices[self.hi[r]][1].append(e)
        self.below.append(r)

    def _unsew(self, r: int) -> None:
        """Undo ``_sew`` of the top record of ``below``."""
        e = self.eid[r]
        out = self.vertices[self.lo[r]][0]
        inn = self.vertices[self.hi[r]][1]
        if not out or out[-1] != e or not inn or inn[-1] != e:
            raise UnsewError(
                f"cannot derive move {self.moves_applied}: edge {e} is not "
                "east-most at both endpoints")
        out.pop()
        inn.pop()
        self.below.pop()
        self.eid[r] = -1

    # -- the three kinds of sewing steps ------------------------------------

    def _fill(self) -> None:
        r = self.above.pop()
        assert self.lo[r] == self.active
        self._sew(r)
        self.active = self.hi[r]

    def _apply_edge_move(self) -> None:
        if self.above:
            self._fill()
        else:
            v = self._new_vertex()
            r = self._record(self.active, v, _W, _E)
            self._sew(r)
            self.west_edges.append(r)
            self.top = v
            self.active = v
        self.dx += 1
        self.dy -= 1

    def _apply_face_move(self, i: int, j: int) -> None:
        fid = self._next_face
        self._next_face += 1
        below = self.below
        k = max(len(below) - i - 1, 0)
        west = below[k:][::-1]
        del below[k:]
        for r in west:
            self.east[r] = fid
        for _ in range(i + 1 - len(west)):
            r = self._record(self._new_vertex(), self.bottom, _W, fid)
            west.append(r)
            self.west_missing.append(r)
            self.bottom = self.lo[r]
        pbottom = self.lo[west[-1]]
        prev = self.active
        east = []
        for _ in range(j):
            v = self._new_vertex()
            east.append(self._record(v, prev, fid, _E))
            prev = v
        east.append(self._record(pbottom, prev, fid, _E))
        self.faces[fid] = (west, east)
        self.above.extend(east)
        self.active = pbottom
        self._fill()
        self.dx -= i
        self.dy += j

    def apply(self, move: Move) -> None:
        if isinstance(move, EdgeMove):
            self._apply_edge_move()
        else:
            self._apply_face_move(move.i, move.j)
        self.moves_applied += 1
        self.check_invariants()

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
        r = self.below[-1]
        if self.hi[r] != self.active:
            raise UnsewError(f"cannot derive move {step}: boundary edge does not "
                             "reach the active vertex")
        f = self.west[r]
        if f == _W:
            move = self._undo_extend_top(r)
        elif r == self.faces[f][1][-1]:
            move = self._undo_face_move(r)
        else:
            self._unsew(r)
            self.above.append(r)
            self.active = self.lo[r]
            move = EDGE
        self.moves_applied -= 1
        ddx, ddy = move.delta
        self.dx -= ddx
        self.dy -= ddy
        return move

    def _undo_extend_top(self, r: int) -> Move:
        step = self.moves_applied
        if self.hi[r] != self.top:
            raise UnsewError(f"cannot derive move {step}: west-boundary edge out of place")
        if not self.west_edges or self.west_edges[-1] != r or len(self.west_edges) < 2:
            raise UnsewError(f"cannot derive move {step}: top edge is not the last "
                             "west-boundary edge")
        out, inn = self.vertices[self.hi[r]]
        if out or inn != [self.eid[r]]:
            raise UnsewError(f"cannot derive move {step}: top vertex has extra edges")
        self._unsew(r)
        self.west_edges.pop()
        del self.vertices[self.hi[r]]
        self.top = self.lo[r]
        self.active = self.lo[r]
        return EDGE

    def _undo_face_move(self, r: int) -> Move:
        step = self.moves_applied
        fid = self.west[r]
        west, east = self.faces[fid]
        self._unsew(r)
        # the rest of the face's east side must be the southernmost missing edges
        for missing in reversed(east[:-1]):
            if not self.above or self.above[-1] != missing:
                raise UnsewError(f"cannot derive move {step}: east slots of the "
                                 "last face are not the southernmost missing edges")
            self.above.pop()
            out, inn = self.vertices[self.lo[missing]]
            if out or inn:
                raise UnsewError(f"cannot derive move {step}: open-face vertex "
                                 "already has edges")
            del self.vertices[self.lo[missing]]
        # sewn west edges return to the east boundary; missing ones vanish
        for w in reversed(west):
            if self.eid[w] >= 0:
                self.east[w] = _E
                self.below.append(w)
                continue
            if not self.west_missing or self.west_missing[-1] != w:
                raise UnsewError(f"cannot derive move {step}: missing west edges "
                                 "of the last face are out of order")
            self.west_missing.pop()
            out, inn = self.vertices[self.lo[w]]
            if out or inn:
                raise UnsewError(f"cannot derive move {step}: missing-west vertex "
                                 "already has edges")
            del self.vertices[self.lo[w]]
            self.bottom = self.hi[w]
        self.active = self.hi[west[0]]
        del self.faces[fid]
        return face_move(len(west) - 1, len(east) - 1)


def initial_state() -> MarkedBipolarState:
    """A single oriented edge: start vertex below, active vertex above."""
    st = MarkedBipolarState()
    s = st._new_vertex()
    a = st._new_vertex()
    st.start = s
    st.bottom = s
    st.top = a
    st.active = a
    r = st._record(s, a, _W, _E)
    st._sew(r)
    st.west_edges.append(r)
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
    """The same structure rotated half a turn: start and active swap roles.

    Every record keeps its number and reverses: its ends swap, and so do
    its sides, the outer faces trading labels.  Each face side and each
    ledger trades places with its mirror, read from the other end.
    """
    return replace(
        state, vertices={v: (i[::-1], o[::-1]) for v, (o, i) in state.vertices.items()},
        lo=state.hi[:], hi=state.lo[:],
        west=list(map(_OTHER_SIDE.get, state.east, state.east)),  # face ids stay
        east=list(map(_OTHER_SIDE.get, state.west, state.west)),
        eid=state.eid[:], faces={f: (e[::-1], w[::-1]) for f, (w, e) in state.faces.items()},
        below=state.west_edges[::-1], above=state.west_missing[::-1],
        west_edges=state.below[::-1], west_missing=state.above[::-1],
        start=state.active, active=state.start, bottom=state.top, top=state.bottom,
        dx=-state.dy, dy=-state.dx)


# -- state <-> PlanarMap ------------------------------------------------------


def state_to_map(state: MarkedBipolarState) -> PlanarMap:
    """Freeze an unmarked state into a PlanarMap record."""
    if not state.is_unmarked():
        raise NotBipolarCodeError(
            f"state has {state.missing_east} missing east and "
            f"{state.missing_west} missing west edges")
    v_ids = sorted(state.vertices)
    v_new = {v: k for k, v in enumerate(v_ids)}
    sewn = sorted((e, r) for r, e in enumerate(state.eid) if e >= 0)
    e_new = {e: k for k, (e, _) in enumerate(sewn)}
    edges = [(v_new[state.lo[r]], v_new[state.hi[r]]) for _, r in sewn]
    rotations = []
    for v in v_ids:
        out, inn = state.vertices[v]
        rotations.append([2 * e_new[e] for e in reversed(out)]
                         + [2 * e_new[e] + 1 for e in inn])
    return PlanarMap(
        n_vertices=len(v_ids),
        edges=edges,
        rotations=rotations,
        south=v_new[state.bottom],
        north=v_new[state.top],
        west_anchor=e_new[state.eid[state.west_edges[0]]],
    )


def state_from_map(m: PlanarMap) -> MarkedBipolarState:
    """Rebuild the sewing bookkeeping of a finished (unmarked) bipolar map.

    Record e is edge e; each face's sides are slices of the scan's face darts.
    """
    m.require_valid()
    s = m.scan()
    face_of, start, split = s.face_of, s.face_start, s.face_split
    edge = [d >> 1 for d in s.face_darts]
    return MarkedBipolarState(
        vertices={v: (m.out_edges_we(v), m.in_edges_we(v)) for v in range(m.n_vertices)},
        lo=m.dart_tails[0::2], hi=m.dart_heads[0::2],
        west=face_of[0::2], east=face_of[1::2], eid=list(range(m.n_edges)),
        faces={f: (edge[b:c], edge[a:b][::-1])
               for f, (a, b, c) in enumerate(zip(start, split, start[1:]))},
        below=list(s.east), west_edges=list(s.west),
        start=m.south, active=m.north, bottom=m.south, top=m.north,
        dx=len(s.east) - 1, dy=1 - len(s.west),
        moves_applied=m.n_edges - 1,
        _next_vertex=m.n_vertices, _next_edge=m.n_edges, _next_face=len(split))


# -- the flat frontier replay -------------------------------------------------


class Frontier:
    """The east frontier of a map being sewn.

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
        """The (tail, head) edge ``push`` would add for ``move``, without adding it."""
        if isinstance(move, EdgeMove):
            return self.active, self.above[-1] if self.above else self.n_vertices
        if move.i >= len(self.below):
            raise _leaves_quadrant(move, self.below)
        return (self.below[-1 - move.i],
                self.n_vertices + move.j - 1 if move.j else self.active)

    def push_all(self, moves) -> tuple[list[int], list[int]]:
        """Apply ``moves`` in order; returns the tails and heads of the edges they add.

        An edge move joins the active vertex to the nearest vertex above it,
        or to a new vertex; a face move F(i, j) joins the frontier vertex i
        places below the top of ``below`` to the last of its j new vertices,
        or to the active vertex when j = 0.  The head becomes active.
        """
        below, above = self.below, self.above
        active, n = self.active, self.n_vertices
        tails: list[int] = []
        heads: list[int] = []
        add_tail, add_head = tails.append, heads.append
        for mv in moves:
            if isinstance(mv, EdgeMove):
                add_tail(active)
                below.append(active)
                if above:
                    active = above.pop()
                else:
                    active = n
                    n += 1
            else:
                i, j = mv.i, mv.j
                if i >= len(below):
                    self.active, self.n_vertices = active, n
                    raise _leaves_quadrant(mv, below)
                add_tail(below[-1 - i])
                if i:
                    del below[-i:]
                if j:
                    above.append(active)
                    above.extend(range(n, n + j - 1))
                    n += j
                    active = n - 1
            add_head(active)
        self.active, self.n_vertices = active, n
        return tails, heads

    def push(self, move: Move) -> tuple[int, int]:
        """Apply ``move``; returns the edge (tail, head) it adds."""
        tails, heads = self.push_all((move,))
        return tails[0], heads[0]


def _leaves_quadrant(move: Move, below: list[int]) -> NotBipolarCodeError:
    return NotBipolarCodeError(
        f"not a closed bipolar code: {move!r} at x = {len(below) - 1} leaves the quadrant")


def walk_edges(walk: LatticeWalk) -> tuple[Frontier, list[int], list[int],
                                            list[int], list[int]]:
    """Replay a closed bipolar code: the final frontier, the tails and heads
    of every edge in creation order, the first edge (0, 1) included, and
    the out- and in-degree of every vertex.

    Raises NotBipolarCodeError unless the walk starts at (0, m), stays in
    the quadrant and ends at (n, 0).
    """
    if walk.start[0] != 0 or walk.start[1] < 0:
        raise NotBipolarCodeError(
            f"not a closed bipolar code: walk must start at (0, m), got {walk.start}")
    # the end comes first: the replay makes j new vertices for each F(i, j),
    # and the j of a walk that ends on the x-axis sum to at most its number
    # of edge moves, so its replay makes at most two vertices per edge move
    end = walk.end
    if end[1] != 0:
        raise NotBipolarCodeError(
            f"not a closed bipolar code: walk ends at {end}, not (n, 0)")
    frontier = Frontier()
    tails, heads = frontier.push_all(walk.moves)
    if frontier.above:
        raise NotBipolarCodeError(
            "not a closed bipolar code: walk leaves the quadrant or does not "
            "end on the x-axis")
    tails.insert(0, 0)
    heads.insert(0, 1)
    outdeg = [0] * frontier.n_vertices
    indeg = [0] * frontier.n_vertices
    for t in tails:
        outdeg[t] += 1
    for h in heads:
        indeg[h] += 1
    return frontier, tails, heads, outdeg, indeg


# -- walk <-> map --------------------------------------------------------------


def walk_to_map(walk: LatticeWalk) -> PlanarMap:
    """Decode a quadrant walk from (0, m) to (n, 0) into a bipolar map.

    One frontier replay lists the edges in creation order.  At each vertex
    the counterclockwise rotation is its outgoing edges, newest (east-most)
    first, then its incoming edges, oldest (west-most) first; a counting
    pass places every dart in the one flat rotation list.
    """
    frontier, tails, heads, outdeg, indeg = walk_edges(walk)
    first = [0, *accumulate(map(add, outdeg, indeg))]
    # vertex v's incoming run starts at mid[v]; its outgoing run fills down to it
    mid = list(map(add, first, outdeg))
    rot = [0] * (2 * len(tails))
    pos = mid[:]
    for e, t in enumerate(tails):
        pos[t] -= 1
        rot[pos[t]] = 2 * e
    pos = mid
    for e, h in enumerate(heads):
        rot[pos[h]] = 2 * e + 1
        pos[h] += 1
    dart_tails = rot[:]
    dart_tails[0::2] = tails
    dart_tails[1::2] = heads
    return PlanarMap.from_darts(frontier.n_vertices, dart_tails, rot, first,
                                south=0, north=frontier.active, west_anchor=0)


def interface_order(m: PlanarMap) -> tuple[tuple[int, ...], tuple[Move, ...]]:
    """Edge order along the interface path, plus the move between neighbors.

    The path starts on the bottom west-boundary edge; after an edge whose
    east face hangs below its head (the face's maximum), it crosses that face
    to the bottom edge of the face's east side; otherwise it continues on the
    west-most untraversed outgoing edge at the head.  It reads the flat
    lists of ``m.scan()``, and each face type (i, j) is one shared move.
    The path is traced once per map and kept, as tuples, in the map's cache
    beside its scan, so ``map_to_walk``, ``upward_embed``,
    ``visibility_drawing`` and ``render_svg`` of one map share it.
    """
    if "interface" not in m._cache:
        m._cache["interface"] = _interface_order(m)
    return m._cache["interface"]  # type: ignore[return-value]


def _interface_order(m: PlanarMap) -> tuple[tuple[int, ...], tuple[Move, ...]]:
    m.require_valid()
    s = m.scan()
    prv, head, tail = m.dart_prev, m.dart_heads, m.dart_tails
    face_of, fd, start, split = s.face_of, s.face_darts, s.face_start, s.face_split
    nxt = s.west_out[:]     # per vertex, its west-most untraversed outgoing dart
    left = s.outdeg[:]      # and how many are left
    order: list[int] = []
    moves: list[Move] = []
    v, expected, north = m.south, -1, m.north
    while True:
        if not left[v]:
            raise BipolarError("interface path stuck: no untraversed outgoing edge")
        d = nxt[v]
        if expected >= 0 and d != expected:
            raise BipolarError("interface path disagrees with rotation order")
        left[v] -= 1
        nxt[v] = prv[d]
        order.append(d >> 1)
        f = face_of[d ^ 1]
        if f >= 0 and fd[split[f]] == d ^ 1:  # the top of its east face's west side
            a, b, c = start[f], split[f], start[f + 1]
            moves.append(face_move(c - b - 1, b - a - 1))
            expected = fd[a]
            v = tail[expected]
        elif head[d] == north:
            break
        else:
            moves.append(EDGE)
            expected = -1
            v = head[d]
    if len(order) != m.n_edges:
        raise BipolarError("interface path did not visit every edge")
    return tuple(order), tuple(moves)


def map_to_walk(m: PlanarMap) -> LatticeWalk:
    """Encode a valid bipolar map as its interface walk.

    The t-th point is (distance from the south pole to the t-th edge's tail
    in the SE tree, distance from the north pole to its head in the NW tree);
    each increment must agree with the interface path's own edge/face step.
    """
    order, moves = interface_order(m)
    xd = se_depths(m)
    yd = nw_depths(m)
    tail, head = m.dart_tails, m.dart_heads
    d = 2 * order[0]
    x, y = start = (xd[tail[d]], yd[head[d]])
    for t, e in enumerate(order[1:]):
        dx, dy = moves[t].delta
        d = 2 * e
        px, py = x, y
        x, y = xd[tail[d]], yd[head[d]]
        if x - px != dx or y - py != dy:
            raise BipolarError(
                f"tree distances disagree with the interface path at step {t}: "
                f"{(x - px, y - py)} vs {moves[t].delta}")
    if start != (0, len(m.west_edges) - 1) or (x, y) != (len(m.east_edges) - 1, 0):
        raise BipolarError("interface walk endpoints disagree with boundary lengths")
    return LatticeWalk(start, moves)
