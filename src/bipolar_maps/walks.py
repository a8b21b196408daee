"""Moves and lattice walks in the nonnegative quadrant.

A walk is a start point plus a sequence of moves.  An edge move steps by
(1, -1); a face move ``FaceMove(i, j)`` steps by (-i, j) and, on the map
side, stands for a face with ``i + 1`` west edges and ``j + 1`` east edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable


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
        if self.i < 0 or self.j < 0:
            raise ValueError(f"face move needs i, j >= 0, got ({self.i}, {self.j})")
        object.__setattr__(self, "delta", (-self.i, self.j))

    @property
    def degree(self) -> int:
        return self.i + self.j + 2

    def __repr__(self):
        return f"F({self.i},{self.j})"


Move = EdgeMove | FaceMove

EDGE = EdgeMove()


@dataclass(frozen=True)
class LatticeWalk:
    """A start point and a move sequence; points are derived by prefix sums."""

    start: tuple[int, int]
    moves: tuple[Move, ...]

    def __post_init__(self):
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

    def is_quadrant_valid(self) -> bool:
        """True iff every point has both coordinates >= 0."""
        return all(x >= 0 and y >= 0 for x, y in self.points())

    def is_bipolar_code(self) -> bool:
        """True iff the walk encodes an (unmarked) bipolar map.

        Requires a quadrant-valid walk from (0, m) to (n, 0); ending on the
        x-axis puts the y-minimum at the last step automatically.
        """
        if self.start[0] != 0 or self.end[1] != 0:
            return False
        return self.is_quadrant_valid()


def walk_to_text(walk: LatticeWalk) -> str:
    """Serialize to the line format: "x0 y0", then "E" or "F i j" per move."""
    lines = [f"{walk.start[0]} {walk.start[1]}"]
    for mv in walk.moves:
        if isinstance(mv, EdgeMove):
            lines.append("E")
        else:
            lines.append(f"F {mv.i} {mv.j}")
    return "\n".join(lines) + "\n"


def walk_from_text(text: str) -> LatticeWalk:
    """Parse the line format; blank lines and '#' comments are ignored."""
    rows = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line)
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
            moves.append(FaceMove(int(parts[1]), int(parts[2])))
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
            out.append(FaceMove(mv.j, mv.i))
        else:
            out.append(mv)
    return tuple(out)
