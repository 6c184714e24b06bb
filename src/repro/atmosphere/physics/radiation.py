"""Radiative transfer: simplified CCM2-lineage solar + longwave schemes.

The paper's radiation is the CCM2 package (delta-Eddington solar of Briegleb
1992, longwave with the Kiehl-Briegleb CO2 15-micron band absorptance) plus
the CCM3 refinements.  We implement schemes with the same *structure*:

* **shortwave**: two-stream with a delta-Eddington-style cloud layer —
  insolation from orbital geometry, reflection from diagnosed cloud albedo
  stacked over surface albedo, column absorption split between water vapor
  (exponential-band absorptance) and ozone-layer heating aloft;
* **longwave**: broadband emissivity exchange — each layer has an emissivity
  from its water-vapor path plus a logarithmic CO2 band increment (the
  Kiehl & Briegleb 1991 scaling), fluxes assembled by the standard
  upward/downward recursion, heating rates from flux divergence;
* **clouds**: relative-humidity diagnosis, as CCM2 did.

Radiation is called twice per simulated day (paper, Figure 2 discussion) and
the FOAM driver honors that cadence — but not the paper's cost ranking: an
O(L) broadband recursion and a one-band shortwave make a radiation step
1.05x an ordinary one as ``repro.perf.report`` measures it; the machine
model's 10x (``repro.perf``) is a modelled constant.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import (
    CP,
    GRAVITY,
    SOLAR_CONSTANT,
    STEFAN_BOLTZMANN,
)
from repro.util.thermo import saturation_mixing_ratio


@dataclass(frozen=True)
class RadiationParams:
    """Tunable coefficients of the simplified radiation package."""

    solar_constant: float = SOLAR_CONSTANT  # W m^-2 (scenario knob)
    # Fixed-sun insolation for tidally locked worlds: the subsolar point
    # stays pinned at this longitude (degrees, zero declination).  None
    # keeps the normal diurnal + seasonal cycle.
    subsolar_lon_deg: float | None = None
    co2_ppmv: float = 355.0          # early-1990s concentration
    cloud_rh_threshold: float = 0.80
    cloud_albedo_max: float = 0.55
    sw_vapor_absorptance: float = 0.11   # fraction absorbed per unit sqrt(path/ref)
    lw_vapor_path_scale: float = 2.5     # kg m^-2 vapor path for e-fold emissivity
    co2_band_emissivity: float = 0.185   # CO2 15um band at reference concentration
    co2_reference_ppmv: float = 355.0
    ozone_heating: float = 0.0           # K/day applied to the top layer (off by default)
    emissivity_surface: float = 0.98


def solar_zenith_cos(lats: np.ndarray, day_of_year: float, seconds_utc: float,
                     lons: np.ndarray) -> np.ndarray:
    """Cosine of solar zenith angle on a (nlat, nlon) grid (clipped at 0).

    Standard declination formula; adequate for climate forcing.
    """
    decl = np.deg2rad(23.45) * np.sin(2.0 * np.pi * (284.0 + day_of_year) / 365.0)
    hour_angle = (2.0 * np.pi * seconds_utc / 86400.0 - np.pi) + lons[None, :]
    mu = (np.sin(lats[:, None]) * np.sin(decl)
          + np.cos(lats[:, None]) * np.cos(decl) * np.cos(hour_angle))
    return np.maximum(mu, 0.0)


def fixed_subsolar_cos(lats: np.ndarray, lons: np.ndarray,
                       subsolar_lon_deg: float) -> np.ndarray:
    """Cosine of solar zenith angle for a sun fixed over one longitude.

    The tidally locked geometry: zero declination, hour angle replaced by
    the offset from the (permanent) subsolar meridian.  The dayside
    hemisphere sees perpetual insolation; the nightside none.
    """
    dlon = lons[None, :] - np.deg2rad(subsolar_lon_deg)
    mu = np.cos(lats[:, None]) * np.cos(dlon)
    return np.maximum(mu, 0.0)


def diagnose_cloud_fraction(temp: np.ndarray, q: np.ndarray, pressure: np.ndarray,
                            params: RadiationParams = RadiationParams()) -> np.ndarray:
    """RH-based cloud fraction per layer, the CCM2-style quadratic ramp."""
    qsat = saturation_mixing_ratio(temp, pressure)
    rh = np.clip(q / np.maximum(qsat, 1e-10), 0.0, 1.1)
    x = np.clip((rh - params.cloud_rh_threshold) / (1.0 - params.cloud_rh_threshold),
                0.0, 1.0)
    return x * x


def vapor_path(q: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """Water vapor mass path per layer (kg m^-2): q dp / g."""
    return q * dp / GRAVITY


def shortwave(temp: np.ndarray, q: np.ndarray, pressure: np.ndarray,
              dp: np.ndarray, cosz: np.ndarray, surface_albedo: np.ndarray,
              params: RadiationParams = RadiationParams()
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solar radiation: (heating K/s (L,...), absorbed at surface, TOA reflected).

    A single effective cloud deck (max-overlap of layer clouds) reflects
    delta-Eddington-style; vapor absorption follows a square-root path law
    as in broadband absorptance fits.
    """
    insolation = params.solar_constant * cosz                       # (...,)
    cloud = diagnose_cloud_fraction(temp, q, pressure, params)
    cloud_total = cloud.max(axis=0)                                  # max overlap
    cloud_albedo = params.cloud_albedo_max * cloud_total

    # Column vapor absorption (fraction of the direct beam).
    w = vapor_path(q, dp)
    wcol = w.sum(axis=0)
    slant = 1.0 / np.maximum(cosz, 0.05)
    absorb_frac = np.clip(
        params.sw_vapor_absorptance * np.sqrt(np.maximum(wcol * slant, 0.0) / 10.0),
        0.0, 0.35)

    # Radiative ledger: reflect at cloud deck, absorb in column, then the
    # surface reflects its share; one bounce is retained (higher-order
    # bounces are percent-level here).
    reflected_cloud = insolation * cloud_albedo
    after_cloud = insolation - reflected_cloud
    absorbed_atm = after_cloud * absorb_frac
    reaching_sfc = after_cloud - absorbed_atm
    absorbed_sfc = reaching_sfc * (1.0 - surface_albedo)
    reflected_sfc = reaching_sfc * surface_albedo
    toa_reflected = reflected_cloud + reflected_sfc * (1.0 - cloud_albedo)

    # Distribute atmospheric absorption by vapor mass per layer.
    wsafe = np.maximum(wcol, 1e-12)
    frac = w / wsafe
    heating = frac * absorbed_atm / (CP * dp / GRAVITY)
    if params.ozone_heating > 0:
        heating[0] += params.ozone_heating / 86400.0
    return heating, absorbed_sfc, toa_reflected


def layer_emissivity(q: np.ndarray, dp: np.ndarray,
                     params: RadiationParams = RadiationParams()) -> np.ndarray:
    """Broadband LW emissivity per layer: vapor exponential + CO2 log band.

    The CO2 term follows Kiehl & Briegleb (1991): band absorptance grows
    logarithmically with concentration, spread uniformly over layers by mass.
    """
    w = vapor_path(q, dp)
    eps_vapor = 1.0 - np.exp(-w / params.lw_vapor_path_scale)
    co2_scale = 1.0 + 0.114 * np.log(params.co2_ppmv / params.co2_reference_ppmv)
    eps_co2 = params.co2_band_emissivity * co2_scale * (dp / dp.sum(axis=0))
    return np.clip(eps_vapor + eps_co2, 0.0, 0.98)


def longwave(temp: np.ndarray, q: np.ndarray, dp: np.ndarray,
             t_surface: np.ndarray,
             params: RadiationParams = RadiationParams()
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Longwave fluxes by the emissivity-exchange recursion.

    Returns (heating K/s (L,...), OLR at TOA, downward LW at surface,
    net LW at surface, positive = surface loses energy).

    Levels are ordered top (index 0) to bottom.  Downward recursion: each
    layer emits eps sigma T^4 and transmits (1-eps) of what comes from above;
    upward likewise starting from the surface emission.
    """
    L = temp.shape[0]
    eps = layer_emissivity(q, dp, params)
    b = STEFAN_BOLTZMANN * temp**4

    flux_down = np.zeros_like(temp)    # at layer *tops*, downward positive
    running = np.zeros_like(temp[0])
    down_at_bottom = np.empty_like(temp)
    for l in range(L):
        flux_down[l] = running
        running = running * (1.0 - eps[l]) + eps[l] * b[l]
        down_at_bottom[l] = running
    lw_down_sfc = running

    sfc_emit = params.emissivity_surface * STEFAN_BOLTZMANN * t_surface**4 \
        + (1.0 - params.emissivity_surface) * lw_down_sfc
    flux_up_bottom = np.empty_like(temp)   # at layer *bottoms*, upward positive
    running = sfc_emit
    up_at_top = np.empty_like(temp)
    for l in range(L - 1, -1, -1):
        flux_up_bottom[l] = running
        running = running * (1.0 - eps[l]) + eps[l] * b[l]
        up_at_top[l] = running
    olr = running

    # Net upward flux at layer interfaces; heating from its divergence.
    # Interface k (k=0..L): above layer k. F_net(top of l) = up_at_top[l] - flux_down[l]
    net_top = up_at_top - flux_down
    net_bottom = flux_up_bottom - down_at_bottom
    heating = -(net_top - net_bottom) / (CP * dp / GRAVITY)

    net_sfc = sfc_emit - lw_down_sfc
    return heating, olr, lw_down_sfc, net_sfc
