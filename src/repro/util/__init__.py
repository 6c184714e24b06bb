"""Shared utilities: physical constants, thermodynamic helpers."""

from repro.util import constants
from repro.util.thermo import (
    potential_temperature,
    saturation_mixing_ratio,
    saturation_vapor_pressure,
)

__all__ = [
    "constants",
    "saturation_vapor_pressure",
    "saturation_mixing_ratio",
    "potential_temperature",
]
