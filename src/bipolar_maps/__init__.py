"""Bipolar-oriented planar maps and quadrant lattice walks.

The package implements the two-way correspondence between bipolar-oriented
planar maps and lattice walks in the nonnegative quadrant whose steps are
an edge move (1, -1) and face moves (-i, j), together with exact
enumeration, exact and rejection sampling, degree and covariance
statistics, and certified upward drawings.

``import bipolar_maps`` loads no submodule.  Each public name below is
loaded on first use (PEP 562): the first read imports its submodule and
binds the name here, so every later read is a plain lookup, and
``bipolar_maps.walk_to_map`` is ``bipolar_maps.sewing.walk_to_map``.  A
submodule read as an attribute (``bipolar_maps.simulate``) is imported the
same way.
"""

from importlib import import_module

# each submodule and the public names it exports
_EXPORTS = {
    "embedding": ("Embedding", "upward_embed", "verify_upward_planar"),
    "enumeration": ("CountTable", "closed_form_triangulations", "count_walks",
                    "enumerate_maps", "enumerate_walks", "exact_sample",
                    "exact_sampler"),
    "errors": ("BipolarError", "EmbeddingInternalError",
               "EmbeddingUnsupportedError", "EnumerationBudgetError",
               "InvalidMapError", "MapStructureError", "NoMapsError",
               "NotBipolarCodeError", "NoZeroDriftError", "RejectionBudgetError",
               "UnsewError"),
    "planar_map": ("PlanarMap", "canonical_form", "dual_map", "face_types",
                   "map_from_json", "map_to_json", "nw_tree", "reverse_map",
                   "se_tree", "validate_bipolar"),
    "rng": ("CounterRng",),
    "sewing": ("MarkedBipolarState", "apply_move", "initial_state",
               "interface_order", "map_to_walk", "sew", "state_from_map",
               "state_rotate180", "state_to_map", "unsew", "walk_to_map"),
    "simulate": ("FrontierTrace", "StatReport", "covariance_report",
                 "degrees_from_walk", "free_walk", "interface_csv",
                 "interface_export", "rejection_sample",
                 "sample_simple_triangulation_walk"),
    "svg": ("render_svg",),
    "walks": ("EDGE", "EdgeMove", "FaceMove", "LatticeWalk", "Move", "face_move",
              "move_of", "reverse_moves", "walk_from_text", "walk_to_text"),
    "weights": ("FaceWeights", "StepDistribution", "TheoryStats",
                "direct_distribution", "direct_distribution_from_text",
                "feasible", "period", "preset_weights", "solve_lambda",
                "step_distribution", "theory_stats", "weights_from_text"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:  # a submodule: importing it binds it here
        return import_module(f".{name}", __name__)
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
