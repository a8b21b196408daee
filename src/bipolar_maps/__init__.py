"""Bipolar-oriented planar maps and quadrant lattice walks.

The package implements the two-way correspondence between bipolar-oriented
planar maps and lattice walks in the nonnegative quadrant whose steps are
an edge move (1, -1) and face moves (-i, j), together with exact
enumeration, exact and rejection sampling, degree and covariance
statistics, and certified upward drawings.
"""

from .embedding import Embedding, upward_embed, verify_upward_planar
from .enumeration import (CountTable, closed_form_triangulations, count_walks,
                          enumerate_maps, enumerate_walks, exact_sample,
                          exact_sampler)
from .errors import (BipolarError, EmbeddingInternalError,
                     EmbeddingUnsupportedError, EnumerationBudgetError,
                     InvalidMapError, MapStructureError, NoMapsError,
                     NotBipolarCodeError, NoZeroDriftError, RejectionBudgetError,
                     UnsewError)
from .planar_map import (PlanarMap, canonical_form, dual_map, face_types,
                         map_from_json, map_to_json, nw_tree, reverse_map,
                         se_tree, validate_bipolar)
from .rng import CounterRng
from .sewing import (MarkedBipolarState, apply_move, initial_state,
                     interface_order, map_to_walk, sew, state_from_map,
                     state_rotate180, state_to_map, unsew, walk_to_map)
from .simulate import (FrontierTrace, StatReport, covariance_report,
                       degrees_from_walk, free_walk, interface_csv,
                       interface_export, rejection_sample,
                       sample_simple_triangulation_walk)
from .svg import render_svg
from .walks import (EDGE, EdgeMove, FaceMove, LatticeWalk, Move, face_move, move_of,
                    reverse_moves, walk_from_text, walk_to_text)
from .weights import (FaceWeights, StepDistribution, TheoryStats,
                      direct_distribution, direct_distribution_from_text,
                      feasible, period, preset_weights, solve_lambda,
                      step_distribution, theory_stats, weights_from_text)

__version__ = "0.1.0"
