import pytest

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
