"""Reference readers of a count table, for the tests.

These are the bounds-checked readers that ``enumeration`` used before its
rows were padded with zeros: every count is read through ``count_at``,
which returns 0 off a layer's rows, so a negative index reads 0 and does
not wrap, and each draw step keeps only the moves with a nonzero count and
rescales the weights by the lcm of their denominators.
They read only ``table.rows``, ``table.moves``, ``table.start``,
``table.length`` and ``table.total``, and share no code with the readers
they check.
"""

from math import lcm

from bipolar_maps.errors import NoMapsError
from bipolar_maps.walks import LatticeWalk


def count_at(layer, x, y):
    """The count of one layer (as rows) at (x, y); 0 off its rows."""
    if 0 <= x < len(layer):
        row = layer[x]
        if 0 <= y < len(row):
            return row[y]
    return 0


def sample_from_table(table, rng):
    """Backward sampling over the moves with a nonzero sub-count."""
    if not table.total:
        raise NoMapsError("no such maps: the count is zero")
    pos = table.start
    moves = []
    for r in range(table.length, 0, -1):
        prev = table.rows[r - 1]
        opts = []
        for mv, wt in table.moves:
            dx, dy = mv.delta
            c = count_at(prev, pos[0] + dx, pos[1] + dy)
            if c:
                opts.append((mv, wt * c))
        weights = [wv for _, wv in opts]
        scale = lcm(*(wv.denominator for wv in weights))
        ints = [int(wv * scale) for wv in weights]
        u = rng.randrange(sum(ints))
        k = 0
        while u >= ints[k]:
            u -= ints[k]
            k += 1
        mv = opts[k][0]
        moves.append(mv)
        pos = (pos[0] + mv.delta[0], pos[1] + mv.delta[1])
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
