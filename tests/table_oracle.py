"""Reference readers of a count table, for the tests.

Every count is read through ``count_at``, which returns 0 off a layer's
rows, so a negative index reads 0 and does not wrap.  The rank decoder
keeps the rank as an exact Fraction position in [0, total) and divides it
by each move's weight, with no floor and no integer rescaling.
They read only ``table.rows``, ``table.moves``, ``table.start``,
``table.length`` and ``table.total``, and share no code with the readers
they check.
"""

from fractions import Fraction
from math import lcm

from bipolar_maps.walks import LatticeWalk


def count_at(layer, x, y):
    """The count of one layer (as rows) at (x, y); 0 off its rows."""
    if 0 <= x < len(layer):
        row = layer[x]
        if 0 <= y < len(row):
            return row[y]
    return 0


def rank_scale(table):
    """L, the lcm of the weights' denominators (1 for int weights)."""
    return lcm(*(Fraction(wt).denominator for _, wt in table.moves))


def rank_count(table):
    """total * L**length: each walk owns its weight times L**length ranks."""
    ranks = Fraction(table.total) * rank_scale(table) ** table.length
    assert ranks.denominator == 1
    return int(ranks)


def walk_of_rank(table, rank):
    """The walk that owns ``rank``: rank / L**length is a point of
    [0, total), and each step takes the move whose weighted sub-count holds
    it, then divides by that weight."""
    if not 0 <= rank < rank_count(table):
        raise ValueError(f"rank {rank} out of range")
    u = Fraction(rank, rank_scale(table) ** table.length)
    pos = table.start
    moves = []
    for r in range(table.length, 0, -1):
        prev = table.rows[r - 1]
        for mv, wt in table.moves:
            dx, dy = mv.delta
            share = wt * count_at(prev, pos[0] + dx, pos[1] + dy)
            if u < share:
                break
            u -= share
        else:
            raise AssertionError("the rank is past every move's share")
        u /= wt
        moves.append(mv)
        pos = (pos[0] + dx, pos[1] + dy)
    assert u < 1
    return LatticeWalk(table.start, tuple(moves))


def enumerate_walks(table):
    """Every walk of the table, depth first in the table's move order."""
    if not table.total:
        return
    rows = table.rows
    prefix = []

    def rec(x, y, r):
        if r == 0:
            yield LatticeWalk(table.start, tuple(prefix))
            return
        for mv, _ in table.moves:
            dx, dy = mv.delta
            if count_at(rows[r - 1], x + dx, y + dy):
                prefix.append(mv)
                yield from rec(x + dx, y + dy, r - 1)
                prefix.pop()

    yield from rec(*table.start, table.length)
