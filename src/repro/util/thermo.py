"""Moist thermodynamics helpers used by the atmosphere physics and coupler.

All functions are vectorized over NumPy arrays and accept scalars.  The
saturation vapor pressure uses the Bolton (1980) formula, accurate to ~0.1 %
between -35 C and +35 C, which is the operative range for surface fluxes and
convection in a climate model of this class.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import CP, EPSILON, KAPPA, LATENT_HEAT_VAP, P0, T_FREEZE


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


def temperature_from_theta(theta, pressure):
    """Invert potential temperature back to absolute temperature."""
    return _asfloat(theta) * (_asfloat(pressure) / P0) ** KAPPA


def virtual_temperature(temperature, mixing_ratio):
    """Virtual temperature T_v = T (1 + r/eps) / (1 + r) ~ T (1 + 0.608 q)."""
    q = _asfloat(mixing_ratio)
    return _asfloat(temperature) * (1.0 + q / EPSILON) / (1.0 + q)


def moist_static_energy(temperature, height, mixing_ratio):
    """Moist static energy h = cp T + g z + L q (J/kg)."""
    from repro.util.constants import GRAVITY

    return (
        CP * _asfloat(temperature)
        + GRAVITY * _asfloat(height)
        + LATENT_HEAT_VAP * _asfloat(mixing_ratio)
    )


def dewpoint(vapor_pressure):
    """Dewpoint temperature (K) from vapor pressure (Pa); inverse of Bolton."""
    e = np.maximum(_asfloat(vapor_pressure), 1e-12)
    ln_ratio = np.log(e / 611.2)
    return (T_FREEZE * 17.67 - 29.65 * ln_ratio) / (17.67 - ln_ratio)
