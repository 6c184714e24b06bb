"""Climate diagnostics for FOAM runs.

The quantities a coupled-model paper's evaluation section lives on:
meridional heat transport, top-of-atmosphere and surface energy budgets,
ENSO-style SST indices, ice extent, and the hydrological-cycle ledger.
All functions are pure (state in, numbers out) so they can run on live
states or on reloaded history files.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import (
    CP_SEAWATER,
    RHO_SEAWATER,
    STEFAN_BOLTZMANN,
)


def nino3_index(sst: np.ndarray, lats: np.ndarray, lons: np.ndarray,
                mask: np.ndarray) -> float:
    """Mean SST anomaly-box value over the NINO3 region (5S-5N, 210-270E).

    Returned as the plain box mean (deg C); subtract a climatology of the
    same quantity to get the index proper.
    """
    lat_d = np.degrees(lats)[:, None]
    lon_d = np.degrees(lons)[None, :]
    box = (np.abs(lat_d) <= 5.0) & (lon_d >= 210.0) & (lon_d <= 270.0) & mask
    if not box.any():
        raise ValueError("NINO3 box contains no ocean points on this grid")
    return float(np.nanmean(np.where(box, sst, np.nan)))


def ice_area(ice_mask: np.ndarray, cell_areas: np.ndarray) -> float:
    """Total sea-ice covered area (m^2)."""
    return float(np.sum(np.where(ice_mask, cell_areas, 0.0)))


def ocean_heat_content(temp: np.ndarray, dz3d: np.ndarray,
                       cell_areas: np.ndarray) -> float:
    """Total ocean heat content relative to 0 C (J)."""
    vol = dz3d * cell_areas[None]
    return float(RHO_SEAWATER * CP_SEAWATER * np.sum(temp * vol))


def meridional_heat_transport(heat_flux_into_ocean: np.ndarray,
                              lats: np.ndarray,
                              cell_areas: np.ndarray,
                              mask: np.ndarray) -> np.ndarray:
    """Implied northward ocean heat transport (W) at each latitude row edge.

    In equilibrium the ocean must carry poleward whatever the surface flux
    pattern puts in at low latitudes and takes out at high latitudes:
    T(phi) = -integral from phi to the north pole of the net surface flux.
    Returns (nlat+1,) transports at row edges (zero at both ends if the
    global flux integrates to zero; the residual is reported at the ends
    otherwise).
    """
    row_flux = np.sum(np.where(mask, heat_flux_into_ocean * cell_areas, 0.0),
                      axis=-1)
    transport = np.zeros(len(lats) + 1)
    # Integrate from the south pole northward: T_edge[j+1] = T_edge[j] + F_j.
    transport[1:] = np.cumsum(row_flux)
    return transport


def surface_energy_balance(fluxes: dict, t_sfc: np.ndarray,
                           weights: np.ndarray) -> dict:
    """Global surface budget: SW in, LW net, sensible, latent (W/m^2)."""
    sw = float(np.sum(fluxes["sw_sfc"] * weights))
    lw_net = float(np.sum(
        (STEFAN_BOLTZMANN * t_sfc**4 - fluxes["lw_down"]) * weights))
    sh = float(np.sum(fluxes["shf"] * weights))
    lh = float(np.sum(fluxes["lhf"] * weights))
    return {"sw_absorbed": sw, "lw_net_up": lw_net, "sensible": sh,
            "latent": lh, "net_into_surface": sw - lw_net - sh - lh}


def equator_pole_gradient(sst: np.ndarray, lats: np.ndarray,
                          mask: np.ndarray) -> float:
    """Tropical-mean minus polar-mean SST (deg C): the first-order climate."""
    lat_d = np.degrees(lats)
    trop = np.abs(lat_d) < 15.0
    pole = np.abs(lat_d) > 55.0
    t_trop = np.nanmean(np.where(mask[trop], sst[trop], np.nan))
    t_pole = np.nanmean(np.where(mask[pole], sst[pole], np.nan))
    return float(t_trop - t_pole)
