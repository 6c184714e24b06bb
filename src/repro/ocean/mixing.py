"""Vertical mixing: Pacanowski-Philander (1981) with a steeper Ri dependence.

Paper: *"The ocean model uses the vertical mixing scheme of [Pacanowski &
Philander 1981] but with a steeper Reynolds [Richardson] number dependency
consistent with the observational analysis of [Peters, Gregg & Toole 1988].
The revised mixing values appear to improve the tropical Pacific SST field
by reducing the model cold bias in the west equatorial Pacific."*

PP81:  nu = nu0 / (1 + a Ri)^n + nu_b,   kappa = nu / (1 + a Ri) + kappa_b
with n = 2 originally; FOAM's revision steepens the exponent.  Convective
instability (Ri < 0) gets the large convective-adjustment diffusivity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atmosphere.physics.boundary_layer import solve_shared_tridiagonal
from repro.backend import get_workspace
from repro.ocean.eos import density_anomaly


@dataclass(frozen=True)
class PPMixingParams:
    nu0: float = 5.0e-3          # m^2/s, maximum shear-driven viscosity
    alpha: float = 5.0
    exponent: float = 3.0        # FOAM's steepened value (PP81 used 2)
    nu_background: float = 1.0e-4
    kappa_background: float = 1.0e-5
    convective_kappa: float = 1.0  # m^2/s applied where Ri < 0 (unstable)
    ri_max: float = 100.0


def richardson_number(u: np.ndarray, v: np.ndarray, n_sq: np.ndarray,
                      z_full: np.ndarray) -> np.ndarray:
    """Gradient Richardson number at interior interfaces: Ri = N^2 / |dU/dz|^2."""
    dz = (z_full[1:] - z_full[:-1]).reshape((-1,) + (1,) * (u.ndim - 1))
    # Workspace-resident chain: same op sequence (difference in the field
    # dtype, division in the promoted dtype), only the Ri quotient escapes.
    ws = get_workspace()
    shape = u[1:].shape
    rdt = np.result_type(u.dtype, dz.dtype)
    du = np.subtract(u[1:], u[:-1], out=ws.empty("mix.ri.dus", shape, u.dtype))
    du = np.divide(du, dz, out=ws.empty("mix.ri.du", shape, rdt))
    dv = np.subtract(v[1:], v[:-1], out=ws.empty("mix.ri.dvs", shape, v.dtype))
    dv = np.divide(dv, dz, out=ws.empty("mix.ri.dv", shape, rdt))
    np.multiply(du, du, out=du)
    np.multiply(dv, dv, out=dv)
    shear2 = np.add(du, dv, out=du)
    np.add(shear2, 1e-10, out=shear2)
    return n_sq / shear2


def pp_viscosity(ri: np.ndarray, p: PPMixingParams = PPMixingParams()
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(viscosity, diffusivity) at interfaces from the Richardson number."""
    # Workspace-resident chain with the shared ``nu0 / denom**exponent``
    # factor computed once (it is a pure expression — bitwise identical to
    # evaluating it twice); only the np.where outputs escape.
    ws = get_workspace()
    denom = np.clip(ri, 0.0, p.ri_max,
                    out=ws.empty("mix.pp.ric", ri.shape, ri.dtype))
    np.multiply(denom, p.alpha, out=denom)
    np.add(denom, 1.0, out=denom)
    shear_nu = np.power(denom, p.exponent,
                        out=ws.empty("mix.pp.pow", ri.shape, denom.dtype))
    np.divide(p.nu0, shear_nu, out=shear_nu)
    kappa = np.divide(shear_nu, denom,
                      out=ws.empty("mix.pp.kap", ri.shape, denom.dtype))
    np.add(kappa, p.kappa_background, out=kappa)
    nu = np.add(shear_nu, p.nu_background, out=shear_nu)
    unstable = ri < 0.0
    return (np.where(unstable, p.convective_kappa, nu),
            np.where(unstable, p.convective_kappa, kappa))


def mix_column_implicit(field, kappa_half: np.ndarray,
                        dz: np.ndarray, dt: float,
                        surface_flux=None,
                        mask: np.ndarray | None = None):
    """Implicit vertical diffusion of (nlev, ...) with interface diffusivities.

    ``surface_flux`` (units of field times m/s) enters the top layer.
    Zero flux through the bottom.  ``mask`` (L, ...) marks active cells;
    interfaces touching an inactive cell carry no flux (the sea floor).
    ``field`` and ``surface_flux`` may be sequences of fields that share
    ``kappa_half``: one matrix, one elimination of the shared solver.
    """
    like = field if isinstance(field, np.ndarray) else field[0]
    if mask is not None:
        kappa_half = np.where(mask[:-1] & mask[1:], kappa_half, 0.0)
    dzf = dz.reshape((-1,) + (1,) * (like.ndim - 1))
    dzh = 0.5 * (dzf[:-1] + dzf[1:])
    ws = get_workspace()
    a = ws.zeros_like("mix.a", like)
    c = ws.zeros_like("mix.c", like)
    a[1:] = -dt * kappa_half / (dzf[1:] * dzh)
    c[:-1] = -dt * kappa_half / (dzf[:-1] * dzh)
    b = np.subtract(1.0, a, out=ws.empty_like("mix.b", like))
    b -= c
    return solve_shared_tridiagonal(a, b, c, field, surface_flux, 0,
                                    lambda flux: dt * flux / dzf[0])


def convective_adjustment(temp: np.ndarray, salt: np.ndarray,
                          z_full: np.ndarray, dz: np.ndarray,
                          passes: int = 3,
                          mask: np.ndarray | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Classic pairwise convective adjustment: homogenize unstable pairs.

    Conserves the column heat and salt content exactly (thickness-weighted
    means); repeated passes handle deep instabilities.  ``mask`` (L, ...)
    marks active cells; a pair is only adjusted when both levels are active
    (inactive cells hold placeholder values that must never mix in).

    Only the unstable cells of a pair (a percent or two in a running ocean)
    are mixed, and only their density is evaluated again: the EOS is
    elementwise, so ``rho`` stays the density of ``(t, s)`` exactly and is
    computed once per call.
    """
    t = temp.copy()
    s = salt.copy()
    rho = density_anomaly(t, s, 0.0)
    if mask is not None:
        both = mask[:-1] & mask[1:]
    # Flat (L, cells) views of the three contiguous arrays.
    flat_t, flat_s, flat_rho = (a.reshape(len(a), -1) for a in (t, s, rho))
    for _ in range(passes):
        for k in range(len(t) - 1):
            unstable = rho[k] > rho[k + 1] + 1e-12
            if mask is not None:
                unstable &= both[k]
            cells = np.flatnonzero(unstable)
            if not cells.size:
                continue
            # (1,)-shaped weights keep dz's dtype and promote against the
            # fields like the (L, 1, ...) column of dz they stand for.
            w0 = dz[k:k + 1] / (dz[k:k + 1] + dz[k + 1:k + 2])
            w1 = 1.0 - w0
            for f in (flat_t, flat_s):
                f[k, cells] = f[k + 1, cells] = (w0 * f[k, cells]
                                                 + w1 * f[k + 1, cells])
            flat_rho[k, cells] = flat_rho[k + 1, cells] = density_anomaly(
                flat_t[k, cells], flat_s[k, cells], 0.0)
    return t, s
