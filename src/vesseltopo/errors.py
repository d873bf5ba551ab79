"""Exception types shared across the toolkit, and the config type check."""

import json


class VesselTopoError(Exception):
    """Base class for all toolkit errors."""


class FormatError(VesselTopoError):
    """File exists but is not a well-formed binary PGM."""


class DimensionMismatch(VesselTopoError):
    """Two grids that must share a shape do not."""


class EmptyInput(VesselTopoError):
    """An aggregate was requested over zero items."""


class InvalidParams(VesselTopoError):
    """Generator parameters violate their invariants or are unsatisfiable."""


class InvalidConfig(VesselTopoError):
    """A dataset or training configuration is malformed."""


def typed(key: str, value, kind: type):
    """Return value if it has JSON type kind, else raise InvalidConfig.

    An int may stand for a float, but a bool is never a number.
    """
    if isinstance(value, bool) != (kind is bool) or not isinstance(
            value, (int, float) if kind is float else kind):
        raise InvalidConfig(f"config value {key} must be a {kind.__name__}, "
                            f"got {json.dumps(value)}")
    return value


class InsufficientStructure(VesselTopoError):
    """A mask has too little structure for the requested perturbation."""


class RejectedTie(VesselTopoError):
    """Candidate masks score identically, so no unique answer exists."""


class DegenerateInput(VesselTopoError):
    """Inputs that make a task vacuous (e.g. refinement of a perfect mask)."""


class NonFiniteLoss(VesselTopoError):
    """Training produced NaN or infinity; aborted with diagnostics."""
