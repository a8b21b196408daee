"""Exception types shared across the package, and the cell budget they
enforce.

This module imports nothing, so the command-line parser reads
``DEFAULT_BUDGET`` and maps errors to exit codes without loading the
modules that count or draw.
"""

from __future__ import annotations

DEFAULT_BUDGET = 2_000_000  # cells of a count table, face moves of a draw table


class BipolarError(Exception):
    """Base class for all package-specific errors."""


class MapStructureError(BipolarError):
    """Rotation/twin tables are malformed (as opposed to an invalid orientation)."""


class InvalidMapError(BipolarError):
    """An operation required a valid bipolar-oriented map and validation failed.

    Carries the validation report in ``report``.
    """

    def __init__(self, report):
        self.report = report
        lines = "; ".join(str(v) for v in report)
        super().__init__(f"map failed bipolar validation: {lines}")


class UnsewError(BipolarError):
    """A marked state could not be unsewn; names the first underivable step."""


class NotBipolarCodeError(BipolarError):
    """The walk encodes a marked state but not a closed bipolar map."""


class NoZeroDriftError(BipolarError):
    """The face weights admit no zero-drift step distribution."""


class NoMapsError(BipolarError):
    """No maps exist with the requested boundary data and edge count."""


class EnumerationBudgetError(BipolarError):
    """A count table would allocate more cells than the configured budget,
    or a finite step law's draw table would hold more face moves than
    ``DEFAULT_BUDGET``.

    For a count table, ``required_cells`` is the allocation summed up to
    the layer that passed the budget, so it is a lower bound on the whole
    table's cells; for a draw table, it is the number of face moves.
    """

    def __init__(self, message, required_cells, budget_cells):
        self.required_cells = required_cells
        self.budget_cells = budget_cells
        super().__init__(message)


class RejectionBudgetError(BipolarError):
    """Rejection sampling exhausted max_tries; carries the observed acceptance rate."""

    def __init__(self, message, tries, accepted):
        self.tries = tries
        self.accepted = accepted
        self.acceptance_rate = accepted / tries if tries else 0.0
        super().__init__(message)


class EmbeddingUnsupportedError(BipolarError):
    """Map is outside the upward-embedding domain (non-triangulation or multi-edge)."""


class EmbeddingInternalError(BipolarError):
    """The embedding post-check failed; always a bug, never a user error."""

    def __init__(self, message, trace=None):
        self.trace = trace or []
        super().__init__(message)
