"""Shared utilities: physical constants, thermodynamic helpers."""

from repro.util import constants
from repro.util.thermo import (
    dewpoint,
    moist_static_energy,
    potential_temperature,
    saturation_mixing_ratio,
    saturation_vapor_pressure,
    temperature_from_theta,
    virtual_temperature,
)

__all__ = [
    "constants",
    "saturation_vapor_pressure",
    "saturation_mixing_ratio",
    "potential_temperature",
    "temperature_from_theta",
    "virtual_temperature",
    "moist_static_energy",
    "dewpoint",
]
