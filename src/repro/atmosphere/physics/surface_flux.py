"""Surface fluxes: stability-dependent bulk transfer (CCM2/CCM3 forms).

Two regimes, exactly as the paper describes the coupler doing:

* **land / ice**: CCM2 bulk formulas with a prescribed roughness length per
  surface type and Louis-type stability functions of the bulk Richardson
  number;
* **ocean**: the CCM3 update — the roughness length is *diagnosed* from wind
  speed and stability via a Charnock relation, iterated twice, so the drag
  coefficient grows with wind speed ("a diagnosed surface roughness which is
  a function of wind speed and stability", paper section 4.1).

All functions are vectorized over arbitrary grids of surface points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import CP, GRAVITY, LATENT_HEAT_VAP, RD
from repro.util.thermo import saturation_mixing_ratio

KARMAN = 0.4
CHARNOCK = 0.018


@dataclass(frozen=True)
class SurfaceFluxParams:
    z_ref: float = 60.0          # m, height of the lowest model level (approx)
    min_wind: float = 1.0        # m/s gustiness floor
    z0_ocean_min: float = 1.5e-5  # m, smooth-flow limit
    louis_b: float = 5.0         # stability function coefficients
    louis_c: float = 5.0
    louis_d: float = 5.0


def bulk_richardson(t_air: np.ndarray, t_sfc: np.ndarray, wind: np.ndarray,
                    z_ref: float) -> np.ndarray:
    """Bulk Richardson number of the surface layer (virtual-T effects folded in)."""
    tbar = 0.5 * (t_air + t_sfc)
    return GRAVITY * z_ref * (t_air - t_sfc) / (tbar * np.maximum(wind, 0.5) ** 2)


def stability_function(rib: np.ndarray, p: SurfaceFluxParams) -> np.ndarray:
    """Louis (1979) analytic stability factor multiplying the neutral coefficient."""
    unstable = 1.0 - p.louis_b * rib / (
        1.0 + p.louis_c * np.sqrt(np.maximum(-rib, 0.0)))
    stable = 1.0 / (1.0 + p.louis_d * np.maximum(rib, 0.0)) ** 2
    return np.where(rib < 0.0, unstable, stable)


def neutral_coefficient(z0: np.ndarray, z_ref: float) -> np.ndarray:
    """Neutral exchange coefficient C_N = (kappa / ln(z/z0))^2."""
    return (KARMAN / np.log(z_ref / np.maximum(z0, 1e-8))) ** 2


def ocean_roughness(wind: np.ndarray, rib: np.ndarray,
                    p: SurfaceFluxParams = SurfaceFluxParams(),
                    stability: np.ndarray | None = None) -> np.ndarray:
    """CCM3-style wind-speed-dependent ocean roughness (Charnock relation).

    Two fixed-point passes from z0 = 0.1 mm: z0 -> u* -> z0 = a u*^2 / g,
    floored at the smooth-flow limit.  Stability enters through the friction
    velocity; its factor depends on ``rib`` alone, so it is evaluated once
    (or handed in as ``stability`` by a caller that already has it).
    """
    w = np.maximum(wind, p.min_wind)
    if stability is None:
        stability = stability_function(rib, p)
    f = np.maximum(stability, 0.05)
    z0 = np.full_like(w, 1.0e-4)
    for _ in range(2):
        cn = neutral_coefficient(z0, p.z_ref)
        ustar = np.sqrt(cn * f) * w
        z0 = np.maximum(CHARNOCK * ustar**2 / GRAVITY, p.z0_ocean_min)
    return z0


def bulk_fluxes(t_air: np.ndarray, q_air: np.ndarray, u_air: np.ndarray,
                v_air: np.ndarray, p_sfc: np.ndarray, t_sfc: np.ndarray,
                z0: np.ndarray, wetness: np.ndarray,
                params: SurfaceFluxParams = SurfaceFluxParams()):
    """Bulk transfer fluxes at one surface.

    Parameters follow CCM conventions: ``wetness`` is the D_w factor of the
    paper's hydrology (1 over ocean/ice/snow, soil-moisture dependent over
    land) scaling the latent heat flux.

    Returns a dict with sensible ``shf`` (W/m^2, positive upward into the
    atmosphere), latent ``lhf`` (W/m^2), evaporation ``evap`` (kg m^-2 s^-1),
    stress on the surface ``taux, tauy`` (N/m^2), friction velocity
    ``ustar`` and the exchange coefficients.
    """
    wind = np.maximum(np.sqrt(u_air**2 + v_air**2), params.min_wind)
    rib = bulk_richardson(t_air, t_sfc, wind, params.z_ref)
    return _transfer(t_air, q_air, u_air, v_air, p_sfc, t_sfc, z0, wetness,
                     wind, rib, stability_function(rib, params), params)


def _transfer(t_air, q_air, u_air, v_air, p_sfc, t_sfc, z0, wetness,
              wind, rib, stability, params: SurfaceFluxParams) -> dict:
    """The bulk formulas, given floored wind, ``rib`` and its Louis factor."""
    cn = neutral_coefficient(z0, params.z_ref)
    f = np.maximum(stability, 0.02)
    cd = cn * f                                  # momentum
    ch = cd                                      # heat ~ momentum at this level
    rho = p_sfc / (RD * 0.5 * (t_air + t_sfc))

    shf = rho * CP * ch * wind * (t_sfc - t_air)
    qsat_sfc = saturation_mixing_ratio(t_sfc, p_sfc)
    evap = rho * ch * wind * wetness * np.maximum(qsat_sfc - q_air, -q_air)
    lhf = LATENT_HEAT_VAP * evap
    taux = rho * cd * wind * u_air
    tauy = rho * cd * wind * v_air
    ustar = np.sqrt(cd) * wind
    return {
        "shf": shf, "lhf": lhf, "evap": evap,
        "taux": taux, "tauy": tauy, "ustar": ustar,
        "cd": cd, "ch": ch, "rib": rib,
    }


def ocean_fluxes(t_air, q_air, u_air, v_air, p_sfc, sst,
                 params: SurfaceFluxParams = SurfaceFluxParams()):
    """Air-sea fluxes with the CCM3 diagnosed roughness (wetness = 1); the
    roughness iteration and the bulk formulas share one stability factor."""
    wind = np.maximum(np.sqrt(u_air**2 + v_air**2), params.min_wind)
    rib = bulk_richardson(t_air, sst, wind, params.z_ref)
    stability = stability_function(rib, params)
    z0 = ocean_roughness(wind, rib, params, stability)
    return _transfer(t_air, q_air, u_air, v_air, p_sfc, sst, z0,
                     np.ones_like(sst), wind, rib, stability, params)
