"""Exception types shared across the toolkit, and the one gate for settings.

Config dataclasses check their ranges when built; settings read from outside
(a config file, flags, a checkpoint) reach them through ``build_config``.
"""

import json
from dataclasses import MISSING, fields


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


def build_config(config_class, values: dict):
    """Build config_class from outside settings: each key must name a field and
    each value have the JSON type of its field's default, else InvalidConfig."""
    defaults = {f.name: f.default if f.default_factory is MISSING
                else f.default_factory() for f in fields(config_class)}
    for key, value in values.items():
        if key not in defaults:
            raise InvalidConfig(f"{config_class.__name__} has no field {key}")
        if defaults[key] is not MISSING:
            typed(key, value, type(defaults[key]))
    return config_class(**values)


class InsufficientStructure(VesselTopoError):
    """A mask has too little structure for the requested perturbation."""


class RejectedTie(VesselTopoError):
    """Candidate masks score identically, so no unique answer exists."""


class DegenerateInput(VesselTopoError):
    """Inputs that make a task vacuous (e.g. refinement of a perfect mask)."""


class NonFiniteLoss(VesselTopoError):
    """Training produced NaN or infinity; aborted with diagnostics."""
