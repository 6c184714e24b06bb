"""Moist thermodynamics helpers used by the atmosphere physics and coupler.

All functions are vectorized over NumPy arrays and accept scalars.  The
saturation vapor pressure uses the Bolton (1980) formula, accurate to ~0.1 %
between -35 C and +35 C, which is the operative range for surface fluxes and
convection in a climate model of this class.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import EPSILON, KAPPA, P0, T_FREEZE


def _asfloat(x) -> np.ndarray:
    """Coerce to a floating array *without* forcing float64.

    ``np.asarray(x, dtype=float)`` silently promoted float32 model fields to
    float64 inside every thermodynamic call, defeating a reduced-precision
    run.  This keeps whatever float dtype the caller supplied and only
    promotes non-float input (ints, lists, python scalars) to float64.
    """
    arr = np.asarray(x)
    return arr if arr.dtype.kind == "f" else arr.astype(np.float64)


def saturation_vapor_pressure(temperature):
    """Saturation vapor pressure over liquid water (Pa).

    Bolton (1980): e_s = 611.2 exp(17.67 (T - 273.15) / (T - 29.65)).
    """
    t = _asfloat(temperature)
    return 611.2 * np.exp(17.67 * (t - T_FREEZE) / (t - 29.65))


def saturation_mixing_ratio(temperature, pressure):
    """Saturation water-vapor mixing ratio (kg/kg) at temperature (K), pressure (Pa)."""
    es = saturation_vapor_pressure(temperature)
    p = _asfloat(pressure)
    # Cap e_s below total pressure so the formula stays finite in thin layers.
    es = np.minimum(es, 0.5 * p)
    return EPSILON * es / (p - es)


def potential_temperature(temperature, pressure):
    """Potential temperature theta = T (p0/p)^kappa."""
    return _asfloat(temperature) * (P0 / _asfloat(pressure)) ** KAPPA

