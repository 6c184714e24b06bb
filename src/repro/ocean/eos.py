"""Equation of state for seawater.

A quadratic fit to the UNESCO (1981) equation in the oceanographically
relevant range (-2..32 C, 30..40 psu), with thermobaric deepening — the same
class of simplified EOS the GFDL Modular Ocean Model (the paper's dynamical
ancestor, ref [29]) shipped as its fast option.  Density is returned as the
deviation from the Boussinesq reference ``RHO_SEAWATER``.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import GRAVITY, RHO_SEAWATER

# Fit coefficients about the reference state (T0, S0).
T0 = 10.0      # deg C
S0 = 35.0      # psu
ALPHA0 = 0.17     # kg m^-3 K^-1 thermal expansion at T0 (rho units)
ALPHA_T = 0.0062  # K^-2: expansion grows with temperature (nonlinearity)
BETA = 0.76      # kg m^-3 psu^-1 haline contraction
GAMMA_Z = 4.5e-5  # kg m^-3 per m: pressure (depth) effect on in-situ density


def _asfloat(x) -> np.ndarray:
    """Floating coercion that preserves float32 instead of forcing float64."""
    arr = np.asarray(x)
    return arr if arr.dtype.kind == "f" else arr.astype(np.float64)


def density_anomaly(temp_c: np.ndarray, salt: np.ndarray,
                    depth_m: np.ndarray | float = 0.0,
                    out: tuple[np.ndarray, np.ndarray] | None = None
                    ) -> np.ndarray:
    """In-situ density minus RHO_SEAWATER (kg m^-3).

    ``temp_c`` in Celsius, ``salt`` in psu, ``depth_m`` positive downward.
    ``out`` is ``None`` (fresh arrays) or two buffers of the fields' shape
    and dtype: the anomaly is written into the first, the second is
    scratch.  Either way the operations and their order are those of
    ``-ALPHA0 dt - 0.5 ALPHA_T dt dt + BETA (s - S0) + GAMMA_Z depth``,
    ``dt = t - T0``, the last term left out at a scalar depth of zero.
    """
    t = _asfloat(temp_c)
    s = _asfloat(salt)
    buf, tmp = (None, None) if out is None else out
    # Scalar depths stay python floats: a 0-d float64 array would promote
    # the whole expression and silently upcast float32 fields.
    depth = depth_m if np.isscalar(depth_m) else _asfloat(depth_m)
    dt = np.subtract(t, T0, out=buf)
    quad = np.multiply(0.5 * ALPHA_T, dt, out=tmp)
    quad = np.multiply(quad, dt, out=tmp)
    rho = np.multiply(-ALPHA0, dt, out=buf)
    rho = np.subtract(rho, quad, out=buf)
    haline = np.subtract(s, S0, out=tmp)
    haline = np.multiply(BETA, haline, out=tmp)
    rho = np.add(rho, haline, out=buf)
    if type(depth) in (int, float) and depth == 0:
        # + 0.0 changes no bit: a sum is -0.0 only if both terms are, and
        # BETA (s - S0) never is (s - S0 of equal values is +0.0).
        return rho
    return np.add(rho, GAMMA_Z * depth, out=buf)


def buoyancy_frequency_sq(temp_c: np.ndarray, salt: np.ndarray,
                          z_full: np.ndarray) -> np.ndarray:
    """N^2 (s^-2) at interior interfaces from the local density gradient.

    ``temp_c``/``salt`` are (nlev, ...); ``z_full`` (nlev,) layer-center
    depths.  Positive N^2 = stable stratification.
    """
    rho = density_anomaly(temp_c, salt, 0.0)  # potential density (no z term)
    dz = (z_full[1:] - z_full[:-1]).reshape((-1,) + (1,) * (rho.ndim - 1))
    drho = rho[1:] - rho[:-1]                 # positive when denser below
    return GRAVITY / RHO_SEAWATER * drho / dz
