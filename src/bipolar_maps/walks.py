"""Moves and lattice walks in the nonnegative quadrant.

A walk is a start point plus a sequence of moves.  An edge move steps by
(1, -1); a face move ``FaceMove(i, j)`` steps by (-i, j) and, on the map
side, stands for a face with ``i + 1`` west edges and ``j + 1`` east edges.

Every layer gets its moves here: ``face_move(i, j)`` returns the one shared
``FaceMove`` of each face type, and ``move_of(dx, dy)`` decodes an
increment to ``EDGE`` or that shared face move.  So a walk holds one object
per face type, not one per step; ``FaceMove`` compares by (i, j), and a
move built directly equals the shared one.  Whether a walk is a closed
bipolar code is checked in one place, ``sewing.walk_edges``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import index
from typing import Iterable

# how many face types (and increments) the shared-move caches keep
_SHARED_MOVES = 4096


def _as_int(v, what: str) -> int:
    """``v`` as an int (numpy ints included); ValueError for anything else."""
    try:
        return index(v)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {v!r}") from None


@dataclass(frozen=True)
class EdgeMove:
    """The (1, -1) step."""

    delta = (1, -1)

    def __repr__(self):
        return "E"


@dataclass(frozen=True)
class FaceMove:
    """The (-i, j) step; adds a face of degree i + j + 2."""

    i: int
    j: int
    # (-i, j), built once: every replay of a walk reads it once per move
    delta: tuple[int, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        i, j = _as_int(self.i, "face move i"), _as_int(self.j, "face move j")
        if i < 0 or j < 0:
            raise ValueError(f"face move needs i, j >= 0, got ({i}, {j})")
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "delta", (-i, j))

    @property
    def degree(self) -> int:
        return self.i + self.j + 2

    def __repr__(self):
        return f"F({self.i},{self.j})"


Move = EdgeMove | FaceMove

EDGE = EdgeMove()


_shared_face_move = lru_cache(maxsize=_SHARED_MOVES)(FaceMove)


def face_move(i, j) -> FaceMove:
    """The shared ``FaceMove(i, j)``: one object per face type.

    i and j become ints first (ValueError for a float or a string), so a
    float never meets the cache: ``1.0 == 1`` and both hash alike.  The
    cache keeps the last ``_SHARED_MOVES`` face types; one evicted and
    asked for again is built anew, equal to the old object.
    """
    if type(i) is not int or type(j) is not int:  # ints, the usual case, skip it
        i, j = _as_int(i, "face move i"), _as_int(j, "face move j")
    return _shared_face_move(i, j)


# typed: a float increment gets its own entry, whose first call raises
@lru_cache(maxsize=_SHARED_MOVES, typed=True)
def move_of(dx, dy) -> Move:
    """The move that steps by (dx, dy): ``EDGE`` or the shared face move."""
    dx, dy = _as_int(dx, "step dx"), _as_int(dy, "step dy")
    return EDGE if (dx, dy) == (1, -1) else face_move(-dx, dy)


@dataclass(frozen=True)
class LatticeWalk:
    """A start point and a move sequence; points are derived by prefix sums."""

    start: tuple[int, int]
    moves: tuple[Move, ...]

    def __post_init__(self):
        try:
            x, y = self.start
        except (TypeError, ValueError):
            raise ValueError(f"walk start must be a point (x, y), "
                             f"got {self.start!r}") from None
        start = (_as_int(x, "walk start x"), _as_int(y, "walk start y"))
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "moves", tuple(self.moves))

    def __len__(self) -> int:
        return len(self.moves)

    def points(self) -> list[tuple[int, int]]:
        """All visited points, start first; length is len(moves) + 1."""
        x, y = self.start
        pts = [(x, y)]
        for mv in self.moves:
            dx, dy = mv.delta
            x += dx
            y += dy
            pts.append((x, y))
        return pts

    @property
    def end(self) -> tuple[int, int]:
        x, y = self.start
        for mv in self.moves:
            dx, dy = mv.delta
            x += dx
            y += dy
        return (x, y)


def walk_to_text(walk: LatticeWalk) -> str:
    """Serialize to the line format: "x0 y0", then "E" or "F i j" per move."""
    lines = [f"{walk.start[0]} {walk.start[1]}"]
    for mv in walk.moves:
        if isinstance(mv, EdgeMove):
            lines.append("E")
        else:
            lines.append(f"F {mv.i} {mv.j}")
    return "\n".join(lines) + "\n"


def _content_lines(text: str):
    """(raw line, its content) for every line of ``text`` with content:
    the reader of every text format, which drops '#' comments and blanks."""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            yield raw, line


def walk_from_text(text: str) -> LatticeWalk:
    """Parse the line format; blank lines and '#' comments are ignored."""
    rows = [line for _, line in _content_lines(text)]
    if not rows:
        raise ValueError("walk text has no content lines")
    head = rows[0].split()
    if len(head) != 2:
        raise ValueError(f"first line must be 'x0 y0', got {rows[0]!r}")
    start = (int(head[0]), int(head[1]))
    moves: list[Move] = []
    for line in rows[1:]:
        parts = line.split()
        if parts[0] == "E" and len(parts) == 1:
            moves.append(EDGE)
        elif parts[0] == "F" and len(parts) == 3:
            moves.append(face_move(int(parts[1]), int(parts[2])))
        else:
            raise ValueError(f"bad move line: {line!r}")
    return LatticeWalk(start, tuple(moves))


def reverse_moves(moves: Iterable[Move]) -> tuple[Move, ...]:
    """Reverse a move sequence and transpose every face move.

    Sewing the result yields the original structure rotated half a turn, with
    the roles of start and active vertices exchanged.  The operation is an
    involution.
    """
    out: list[Move] = []
    for mv in reversed(list(moves)):
        if isinstance(mv, FaceMove):
            out.append(face_move(mv.j, mv.i))
        else:
            out.append(mv)
    return tuple(out)
