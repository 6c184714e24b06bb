"""Planetary boundary layer: Holtslag-style nonlocal K-profile diffusion.

CCM2's boundary layer was modified "as described by Vogelzang & Holtslag"
(paper, atmosphere section): the PBL height is diagnosed from a bulk
Richardson number and eddy diffusivities follow a cubic K-profile within it.
Vertical diffusion is solved implicitly (tridiagonal per column, vectorized
across all columns) so the scheme is stable at FOAM's 30-minute step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import get_workspace
from repro.util.constants import CP, GRAVITY, RD
from repro.util.thermo import potential_temperature


@dataclass(frozen=True)
class BoundaryLayerParams:
    ric: float = 0.25             # critical bulk Richardson number
    k_max: float = 100.0          # m^2/s cap on eddy diffusivity
    k_background: float = 0.1     # m^2/s free-troposphere background
    min_pbl_height: float = 100.0  # m
    max_pbl_height: float = 3000.0


def solve_tridiagonal(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                      rhs: np.ndarray) -> np.ndarray:
    """Thomas algorithm along axis 0, vectorized over trailing axes.

    ``lower[0]`` and ``upper[-1]`` are ignored.  All inputs share shape
    (L, ...); returns the solution with the same shape.
    """
    L = diag.shape[0]
    ws = get_workspace()
    cp = ws.empty_like("tridiag.cp", diag)
    dp_ = ws.empty_like("tridiag.dp", rhs)
    cp[0] = upper[0] / diag[0]
    dp_[0] = rhs[0] / diag[0]
    for i in range(1, L):
        denom = diag[i] - lower[i] * cp[i - 1]
        cp[i] = upper[i] / denom if i < L - 1 else 0.0
        dp_[i] = (rhs[i] - lower[i] * dp_[i - 1]) / denom
    x = np.empty_like(rhs)
    x[-1] = dp_[-1]
    for i in range(L - 2, -1, -1):
        x[i] = dp_[i] - cp[i] * x[i + 1]
    return x


def solve_shared_tridiagonal(lower: np.ndarray, diag: np.ndarray,
                             upper: np.ndarray, field, flux, level: int,
                             source):
    """One elimination of a matrix for a field (L, ...) or a sequence of them.

    The factors do not depend on the right-hand side: the fields are stacked
    on a new axis after the level axis, the matrix gets a singleton there and
    :func:`solve_tridiagonal` broadcasts — per field the same operations, in
    the same order, as one call each.  Where a field's ``flux`` (one per
    field, or None) is given, ``source(flux)`` is added to ``level`` of its
    right-hand side.  An array comes back for an array, a tuple for a sequence.
    """
    single = isinstance(field, np.ndarray)
    fields = (field,) if single else tuple(field)
    rhs = np.stack(fields, axis=1)
    for i, fx in enumerate((flux,) if single or flux is None else flux):
        if fx is not None:
            rhs[level, i] = rhs[level, i] + source(fx)
    x = solve_tridiagonal(lower[:, None], diag[:, None], upper[:, None], rhs)
    return x[:, 0] if single else tuple(x[:, i] for i in range(len(fields)))


def diagnose_pbl_height(theta: np.ndarray, u: np.ndarray, v: np.ndarray,
                        z: np.ndarray,
                        params: BoundaryLayerParams = BoundaryLayerParams()
                        ) -> np.ndarray:
    """PBL top height (m) where the bulk Richardson number first exceeds Ri_c.

    Levels ordered top->bottom; scans upward from the surface layer.
    """
    L = theta.shape[0]
    sfc = L - 1
    th0 = theta[sfc]
    z0 = z[sfc]
    h = np.full_like(th0, params.min_pbl_height)
    found = np.zeros(th0.shape, dtype=bool)
    for l in range(sfc - 1, -1, -1):
        dz = np.maximum(z[l] - z0, 1.0)
        du2 = (u[l] - u[sfc]) ** 2 + (v[l] - v[sfc]) ** 2 + 0.1
        ri = GRAVITY / th0 * (theta[l] - th0) * dz / du2
        newly = (~found) & (ri > params.ric)
        h = np.where(newly, z[l] - z0, h)
        found |= newly
    h = np.where(found, h, params.max_pbl_height)
    return np.clip(h, params.min_pbl_height, params.max_pbl_height)


def kprofile_diffusivity(z_above_sfc: np.ndarray, pbl_height: np.ndarray,
                         ustar: np.ndarray,
                         params: BoundaryLayerParams = BoundaryLayerParams()
                         ) -> np.ndarray:
    """Cubic K-profile: K = k u* z (1 - z/h)^2 inside the PBL, background above."""
    karman = 0.4
    zr = np.clip(z_above_sfc / np.maximum(pbl_height, 1.0), 0.0, 1.0)
    k = karman * ustar * z_above_sfc * (1.0 - zr) ** 2
    k = np.where(z_above_sfc < pbl_height, k, 0.0)
    return np.clip(k + params.k_background, params.k_background, params.k_max)


def diffuse_column(field, k_half: np.ndarray, z_full: np.ndarray,
                   dt: float, surface_flux=None,
                   rho: np.ndarray | None = None):
    """Implicit vertical diffusion of ``field`` (L, ...) over one step.

    ``k_half`` (L-1, ...) are diffusivities at interior interfaces (between
    level l and l+1).  ``surface_flux`` (positive into the atmosphere, units
    of field * kg m^-2 s^-1) enters the lowest layer; ``rho`` (L, ...) layer
    densities convert it to a tendency.  Zero-flux at the top.  ``field``
    and ``surface_flux`` may be sequences of fields diffused by the same
    ``k_half``: one matrix, one elimination (:func:`solve_shared_tridiagonal`).
    """
    like = field if isinstance(field, np.ndarray) else field[0]
    L = like.shape[0]
    dz_half = z_full[:-1] - z_full[1:]              # >0: spacing between levels
    dz_half = np.maximum(dz_half, 1.0)
    # Layer thickness around each full level.
    dz_full = np.empty_like(like)
    dz_full[0] = dz_half[0]
    dz_full[-1] = dz_half[-1]
    if L > 2:
        dz_full[1:-1] = 0.5 * (dz_half[:-1] + dz_half[1:])

    a = np.zeros_like(like)   # lower diagonal (couples to l-1, i.e. above)
    c = np.zeros_like(like)   # upper diagonal (couples to l+1, i.e. below)
    alpha = dt / dz_full
    a[1:] = -alpha[1:] * k_half / dz_half
    c[:-1] = -alpha[:-1] * k_half / dz_half
    b = 1.0 - a - c
    if surface_flux is not None and rho is None:
        raise ValueError("rho required when surface_flux is given")
    return solve_shared_tridiagonal(
        a, b, c, field, surface_flux, -1,
        lambda flux: dt * flux / (rho[-1] * dz_full[-1]))


def boundary_layer_tendencies(temp: np.ndarray, q: np.ndarray, u: np.ndarray,
                              v: np.ndarray, pressure: np.ndarray,
                              z_full: np.ndarray, dt: float,
                              ustar: np.ndarray,
                              shf: np.ndarray, lhf_evap: np.ndarray,
                              taux: np.ndarray, tauy: np.ndarray,
                              params: BoundaryLayerParams = BoundaryLayerParams()):
    """Full PBL step: diffuse theta, q, u, v; inject surface fluxes.

    ``shf`` is the sensible heat flux (W m^-2, positive into the atmosphere),
    ``lhf_evap`` the surface evaporation (kg m^-2 s^-1), ``taux/tauy`` the
    surface stress *on the atmosphere* (N m^-2, typically negative of the
    drag on the surface).  Returns (dT/dt, dq/dt, du/dt, dv/dt).
    """
    theta = potential_temperature(temp, pressure)
    rho = pressure / (RD * temp)
    h = diagnose_pbl_height(theta, u, v, z_full, params)
    z_above = z_full - z_full[-1]
    z_half = 0.5 * (z_above[:-1] + z_above[1:])
    k_half = kprofile_diffusivity(z_half, h[None], ustar[None], params)

    # One matrix for all four: theta, q, u, v diffuse with the same K.
    theta_new, q_new, u_new, v_new = diffuse_column(
        (theta, q, u, v), k_half, z_full, dt,
        surface_flux=(shf / CP, lhf_evap, taux, tauy), rho=rho)

    t_new = theta_new * (temp / theta)   # convert back with the same Exner factor
    return ((t_new - temp) / dt, (q_new - q) / dt,
            (u_new - u) / dt, (v_new - v) / dt)
