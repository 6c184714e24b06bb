"""Thermodynamic sea ice, treated "as another soil type" (the paper's scheme).

Paper: *"The temperature of the sea ice is determined by treating it as
another soil type.  The sea surface may continue to lose heat by conduction
with the lowest ice layer so a clamp on temperature is imposed by the ocean
model at -1.92 degrees Celsius.  Sea ice roughness and albedos are
prescribed.  For the hydrologic cycle, the formation of sea ice is treated
as a flux of 2 m of water out of the ocean.  The stress between the ice and
the atmosphere is arbitrarily divided by 15 before passing to the ocean
model."*

The paper also flags this as the model's weak spot ("the crude
representation of sea ice that we currently use" explains the Antarctic SST
errors of Figure 3) — updating it was "a high priority", so the class keeps
the interface minimal and replaceable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import (
    LATENT_HEAT_FUS,
    RHO_WATER,
    SEAICE_FRESHWATER_DEPTH,
    SEAICE_STRESS_DIVISOR,
    T_FREEZE_SEA,
)

SEAICE_ALBEDO = 0.65
SEAICE_ROUGHNESS = 5.0e-4
SEAICE_CONDUCTIVITY = 2.2      # W m^-1 K^-1
SEAICE_MIN_THICKNESS = 0.1     # m, below which a cell is declared open water


@dataclass
class SeaIceState:
    """Ice presence, thickness (m), and surface (skin) temperature (K)."""

    thickness: np.ndarray
    surface_temp: np.ndarray

    @classmethod
    def ice_free(cls, nlat: int, nlon: int) -> "SeaIceState":
        return cls(thickness=np.zeros((nlat, nlon)),
                   surface_temp=np.full((nlat, nlon), T_FREEZE_SEA))

    @classmethod
    def uniform(cls, ocean_mask: np.ndarray,
                thickness: float) -> "SeaIceState":
        """Uniform ice of ``thickness`` (m) over every ocean cell.

        The snowball initial condition: the skin starts at the freezing
        point and the thermodynamic scheme takes over from there.  A
        thickness below ``SEAICE_MIN_THICKNESS`` leaves open water.
        """
        if thickness < 0:
            raise ValueError(f"ice thickness must be >= 0, got {thickness}")
        h = np.where(ocean_mask, float(thickness), 0.0)
        return cls(thickness=h,
                   surface_temp=np.full(ocean_mask.shape, T_FREEZE_SEA))

    @property
    def mask(self) -> np.ndarray:
        return self.thickness >= SEAICE_MIN_THICKNESS


class SeaIceModel:
    """Minimal thermodynamic ice: freeze at the clamp, melt when warm."""

    t_freeze = T_FREEZE_SEA

    def step(self, state: SeaIceState, *, sst: np.ndarray,
             ocean_heat_loss: np.ndarray, air_temp: np.ndarray,
             ocean_mask: np.ndarray, dt: float
             ) -> tuple[SeaIceState, np.ndarray]:
        """Advance ice; returns (new state, freshwater flux to ocean).

        ``sst`` in Kelvin; ``ocean_heat_loss`` (W/m^2, positive = ocean losing
        heat to the atmosphere).  Where the ocean sits at the freezing clamp
        and keeps losing heat, the loss freezes ice instead of cooling water.
        Freshwater flux (kg m^-2 s^-1): negative on formation — the paper's
        "2 m of water out of the ocean" — positive on melt.
        """
        h = state.thickness.copy()
        ts = state.surface_temp.copy()
        fw = np.zeros_like(h)

        at_clamp = ocean_mask & (sst <= self.t_freeze + 0.02)
        freezing = at_clamp & (ocean_heat_loss > 0.0)
        growth = np.where(freezing,
                          ocean_heat_loss / (RHO_WATER * LATENT_HEAT_FUS), 0.0)
        newly_frozen = freezing & (h < SEAICE_MIN_THICKNESS) \
            & (h + dt * growth >= SEAICE_MIN_THICKNESS)
        h = h + dt * growth
        # The paper's bookkeeping: formation pulls 2 m of water from the ocean.
        fw -= np.where(newly_frozen,
                       SEAICE_FRESHWATER_DEPTH * RHO_WATER / dt, 0.0)

        # Melt: warm air over ice erodes it (bulk rate ~ conductive flux).
        warm = ocean_mask & (h > 0) & (air_temp > self.t_freeze + 0.5)
        melt_flux = SEAICE_CONDUCTIVITY * np.maximum(
            air_temp - self.t_freeze, 0.0) / np.maximum(h, SEAICE_MIN_THICKNESS)
        melt = np.where(warm, melt_flux / (RHO_WATER * LATENT_HEAT_FUS), 0.0)
        melt = np.minimum(melt, h / max(dt, 1e-9))
        melted_out = warm & (h >= SEAICE_MIN_THICKNESS) \
            & (h - dt * melt < SEAICE_MIN_THICKNESS)
        h = np.maximum(h - dt * melt, 0.0)
        fw += np.where(melted_out, SEAICE_FRESHWATER_DEPTH * RHO_WATER / dt, 0.0)

        # Skin temperature relaxes toward air temperature but never above
        # freezing while ice remains (melting surface sits at 0 C).
        tau = 6 * 3600.0
        ts = ts + (np.minimum(air_temp, 273.15) - ts) * min(dt / tau, 1.0)
        ts = np.where(h >= SEAICE_MIN_THICKNESS, ts, self.t_freeze)
        h = np.where(ocean_mask, h, 0.0)
        fw = np.where(ocean_mask, fw, 0.0)
        return SeaIceState(thickness=h, surface_temp=ts), fw

    @staticmethod
    def stress_to_ocean(taux: np.ndarray, tauy: np.ndarray,
                        ice_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Under ice, the atmosphere stress is divided by 15 (paper verbatim)."""
        factor = np.where(ice_mask, 1.0 / SEAICE_STRESS_DIVISOR, 1.0)
        return taux * factor, tauy * factor
