import pytest

from bipolar_maps.planar_map import PlanarMap
from bipolar_maps.verify import all_triangulation_walks, is_simple  # noqa: F401
from bipolar_maps.walks import EDGE, FaceMove, LatticeWalk

# the figure example: 16 edges, boundaries of lengths 3 and 4
FIG_MOVES = (EDGE, FaceMove(0, 2), FaceMove(1, 0), FaceMove(0, 1), EDGE, EDGE,
             FaceMove(1, 1), FaceMove(0, 1), EDGE, EDGE, EDGE, EDGE,
             FaceMove(1, 0), FaceMove(2, 1), EDGE)
FIG_WALK = LatticeWalk((0, 2), FIG_MOVES)


@pytest.fixture
def fig_walk():
    return FIG_WALK


def relabel(m, rng):
    """The same map with shuffled vertex and edge ids and every rotation list
    started at a random dart, as a map read from JSON may come; returns the
    map and its vertex relabeling."""
    pv = list(range(m.n_vertices))
    pe = list(range(m.n_edges))
    rng.shuffle(pv)
    rng.shuffle(pe)
    edges = [None] * m.n_edges
    for e, (t, h) in enumerate(m.edges):
        edges[pe[e]] = (pv[t], pv[h])
    rotations = [None] * m.n_vertices
    for v, rot in enumerate(m.rotations):
        darts = [2 * pe[d >> 1] + (d & 1) for d in rot]
        k = rng.randrange(len(darts))
        rotations[pv[v]] = darts[k:] + darts[:k]
    return PlanarMap(m.n_vertices, edges, rotations, pv[m.south], pv[m.north],
                     pe[m.west_anchor]), pv
