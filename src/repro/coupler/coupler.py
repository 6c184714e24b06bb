"""The FOAM coupler: surface fluxes on the overlap grid + land/river/ice.

Paper: *"The separately developed atmosphere and ocean models are integrated
into a functioning whole by a set of routines called the coupler.  The
coupler is essentially a model of the land surface and atmosphere-ocean
interface.  The coupler also handles the calculation of fluxes between the
ocean and atmosphere, organizes the exchange of information between them,
and calls a new parallel river model for routing the runoff found by the
hydrology model to the oceans."*

Responsibilities implemented here:

* build the overlap grid between the two component grids (:mod:`overlap`);
* classify every overlap cell as open ocean / sea ice / land;
* compute turbulent fluxes once per overlap cell — CCM3 wind-dependent
  roughness over water, CCM2 bulk formulas with soil-type roughness over
  land — and area-average them back to both grids;
* run the land four-layer soil model, the 15 cm bucket hydrology, the river
  routing, and the thermodynamic sea ice;
* close the hydrological cycle: precipitation - evaporation + river
  discharge + ice brine/melt water all return to the ocean as a freshwater
  flux.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from repro.atmosphere.physics.driver import SurfaceState
from repro.atmosphere.physics.surface_flux import (
    SurfaceFluxParams,
    bulk_fluxes,
    ocean_fluxes,
)
from repro.backend import DTypePolicy, get_workspace, policy_from_name
from repro.coupler.hydrology import HydrologyState, step_hydrology, wetness_factor
from repro.coupler.land import LandModel, LandState, soil_types_from_latitude
from repro.coupler.overlap import OverlapGrid
from repro.coupler.river import RiverModel
from repro.coupler.seaice import (
    SEAICE_ALBEDO,
    SEAICE_ROUGHNESS,
    SeaIceModel,
    SeaIceState,
)
from repro.perf.profiler import profiled
from repro.util.constants import (
    EARTH_RADIUS,
    STEFAN_BOLTZMANN,
)

OCEAN_ALBEDO = 0.07


@dataclass
class CouplerState:
    """All coupler-owned prognostic state (restart-complete)."""

    land: LandState
    hydrology: HydrologyState
    ice: SeaIceState
    river_volume: np.ndarray | None = None   # m^3 stored water per cell
    time: float = 0.0


@dataclass
class CouplerDiagnostics:
    """Per-coupling-step diagnostics (global water/energy bookkeeping)."""

    precip_total: float = 0.0          # kg/s, global
    evap_total: float = 0.0
    runoff_total: float = 0.0
    river_discharge_total: float = 0.0
    ocean_heat_flux_mean: float = 0.0  # W/m^2 over the ocean


class FluxCoupler:
    """Couples one atmosphere grid to one ocean grid via the overlap grid."""

    def __init__(self, atm_lats: np.ndarray, atm_nlon: int,
                 ocn_lats: np.ndarray, ocn_nlon: int,
                 ocn_land_mask: np.ndarray,
                 flux_params: SurfaceFluxParams = SurfaceFluxParams(),
                 rng_seed: int = 7,
                 dtype: str | DTypePolicy | None = None):
        self.overlap = OverlapGrid(atm_lats, atm_nlon, ocn_lats, ocn_nlon)
        self.atm_nlat = len(atm_lats)
        self.atm_nlon = atm_nlon
        self.flux_params = flux_params
        self.policy = policy_from_name(dtype)

        # Ocean-fraction of every atmosphere cell, from the exact overlap
        # areas: the honest way to make a land mask for the coarse grid.
        water_ocn = np.where(ocn_land_mask, 0.0, 1.0)
        water_on_overlap = self.overlap.from_ocn(water_ocn, fill=0.0)
        self.atm_ocean_frac = self.overlap.to_atm(water_on_overlap)
        self.atm_land_mask = self.atm_ocean_frac < 0.5
        self.ocn_land_mask = ocn_land_mask
        self._water_overlap = water_on_overlap > 0.5   # open-water overlap cells

        # Land-side components live on the atmosphere grid.
        lat_deg = np.degrees(atm_lats)
        soil = soil_types_from_latitude(lat_deg, atm_nlon, seed=rng_seed)
        self.land_model = LandModel(soil)
        dlat = np.gradient(atm_lats)
        dlon = 2 * np.pi / atm_nlon
        areas = (EARTH_RADIUS**2 * np.cos(atm_lats) * dlat * dlon)[:, None] \
            * np.ones((1, atm_nlon))
        self.atm_cell_areas = np.abs(areas).astype(self.policy.float_dtype,
                                                   copy=False)
        spacing = EARTH_RADIUS * np.abs(dlat)
        self.river = RiverModel(self.atm_land_mask, self.atm_cell_areas,
                                spacing, rng_seed=rng_seed)
        self.ice_model = SeaIceModel()

    # ------------------------------------------------------------------
    def initial_state(self) -> CouplerState:
        ny_o, nx_o = self.ocn_land_mask.shape
        return CouplerState(
            land=LandState.isothermal(self.atm_nlat, self.atm_nlon),
            hydrology=HydrologyState.initialized(self.atm_nlat, self.atm_nlon),
            ice=SeaIceState.ice_free(ny_o, nx_o),
            river_volume=np.zeros((self.atm_nlat, self.atm_nlon)))

    # ------------------------------------------------------------------
    def surface_state_for_atm(self, state: CouplerState,
                              sst_celsius: np.ndarray) -> SurfaceState:
        """Blend ocean/ice/land surface properties onto the atmosphere grid.

        ``sst_celsius`` on the ocean grid (NaN over land is tolerated).
        """
        ov = self.overlap
        sst_k = np.nan_to_num(sst_celsius, nan=0.0) + 273.15
        ice_mask_o = state.ice.mask
        # Ocean-grid skin: ice skin where icy, SST elsewhere.
        skin_o = np.where(ice_mask_o, state.ice.surface_temp, sst_k)
        skin_ov = ov.from_ocn(skin_o, fill=0.0)
        land_skin = self.land_model.skin_temperature(state.land)
        skin_land_ov = ov.from_atm(land_skin)
        water = self._water_overlap
        t_sfc_ov = np.where(water, skin_ov, skin_land_ov)
        t_sfc = ov.to_atm(t_sfc_ov)

        # Albedo: ocean/ice over water cells, soil+snow over land.
        alb_land = self.land_model.albedo(state.hydrology.snow_depth)
        alb_ocean_o = np.where(ice_mask_o, SEAICE_ALBEDO, OCEAN_ALBEDO)
        alb_ov = np.where(water, ov.from_ocn(alb_ocean_o, fill=OCEAN_ALBEDO),
                          ov.from_atm(alb_land))
        albedo = ov.to_atm(alb_ov)

        wet_land = wetness_factor(state.hydrology,
                                  self.land_model.soil_type == 4)
        wet_ov = np.where(water, 1.0, ov.from_atm(wet_land))
        wetness = ov.to_atm(wet_ov)

        z0_ocean_o = np.where(ice_mask_o, SEAICE_ROUGHNESS, 1e-4)
        z0_ov = np.where(water, ov.from_ocn(z0_ocean_o, fill=1e-4),
                         ov.from_atm(self.land_model.roughness))
        z0 = ov.to_atm(z0_ov)

        ocean_mask = np.broadcast_to(~self.atm_land_mask, t_sfc.shape)
        return SurfaceState(t_sfc=t_sfc, albedo=albedo, wetness=wetness,
                            z0=z0, ocean_mask=ocean_mask)

    # ------------------------------------------------------------------
    @profiled("coupler.fluxes")
    def turbulent_fluxes(self, state: CouplerState, *, t_air: np.ndarray,
                         q_air: np.ndarray, u_air: np.ndarray,
                         v_air: np.ndarray, ps: np.ndarray,
                         sst_celsius: np.ndarray) -> dict:
        """Compute surface turbulent fluxes once per overlap cell (Fig. 1).

        Atmosphere inputs are lowest-model-level fields on the atm grid; SST
        on the ocean grid.  Returns a dict with the fluxes already averaged
        onto both grids:

        * ``atm``: dict usable as ``external_fluxes`` by the physics driver;
        * ``ocn_taux/ocn_tauy``: stress on the ocean grid (ice-divided);
        * ``ocn_turb_heat_loss``: SH + LH leaving the water surface (W/m^2);
        * ``ocn_evap``: evaporation from the water surface (kg m^-2 s^-1);
        * plus the raw overlap-cell fields for conservation checks.
        """
        ov = self.overlap
        water = self._water_overlap
        ice_ov = ov.from_ocn(state.ice.mask.astype(float), fill=0.0) > 0.5
        open_water = water & ~ice_ov

        ta = ov.from_atm(t_air)
        qa = ov.from_atm(q_air)
        ua = ov.from_atm(u_air)
        va = ov.from_atm(v_air)
        pa = ov.from_atm(ps)

        sst_k = np.nan_to_num(sst_celsius, nan=-1.92) + 273.15
        sst_ov = ov.from_ocn(sst_k, fill=271.23)
        ice_skin_ov = ov.from_ocn(state.ice.surface_temp, fill=271.23)
        land_skin_ov = ov.from_atm(self.land_model.skin_temperature(state.land))
        wet_land_ov = ov.from_atm(wetness_factor(
            state.hydrology, self.land_model.soil_type == 4))
        z0_land_ov = ov.from_atm(self.land_model.roughness)

        # CCM3 formulas over open water; CCM2 bulk over land and ice.
        f_ocean = ocean_fluxes(ta, qa, ua, va, pa, sst_ov, self.flux_params)
        t_solid = np.where(ice_ov, ice_skin_ov, land_skin_ov)
        z0_solid = np.where(ice_ov, SEAICE_ROUGHNESS, z0_land_ov)
        wet_solid = np.where(ice_ov, 1.0, wet_land_ov)
        f_solid = bulk_fluxes(ta, qa, ua, va, pa, t_solid, z0_solid,
                              wet_solid, self.flux_params)

        fluxes_ov = {k: np.where(open_water, f_ocean[k], f_solid[k])
                     for k in f_ocean}

        atm_fluxes = {k: ov.to_atm(v) for k, v in fluxes_ov.items()}

        # Ocean receives stress (ice-shielded), turbulent heat loss and evap
        # only from its water cells.
        taux_ov, tauy_ov = SeaIceModel.stress_to_ocean(
            fluxes_ov["taux"], fluxes_ov["tauy"], ice_ov)
        zero = get_workspace().zeros_like("coupler.zero_ov", taux_ov)
        ocn_taux = ov.to_ocn(np.where(water, taux_ov, zero))
        ocn_tauy = ov.to_ocn(np.where(water, tauy_ov, zero))
        turb_loss_ov = np.where(water, fluxes_ov["shf"] + fluxes_ov["lhf"], zero)
        ocn_turb = ov.to_ocn(turb_loss_ov)
        ocn_evap = ov.to_ocn(np.where(water, fluxes_ov["evap"], zero))

        return {
            "atm": atm_fluxes,
            "overlap": fluxes_ov,
            "ocn_taux": ocn_taux,
            "ocn_tauy": ocn_tauy,
            "ocn_turb_heat_loss": ocn_turb,
            "ocn_evap": ocn_evap,
        }

    # ------------------------------------------------------------------
    def surface_radiation_to_ocean(self, *, sw_sfc: np.ndarray,
                                   lw_down: np.ndarray,
                                   t_sfc: np.ndarray) -> np.ndarray:
        """Net radiative flux INTO the surface, mapped to the ocean grid.

        ``sw_sfc`` (absorbed solar), ``lw_down`` and ``t_sfc`` live on the
        atmosphere grid (radiation is an atmosphere column computation).
        """
        ov = self.overlap
        net_atm = sw_sfc + lw_down - STEFAN_BOLTZMANN * t_sfc**4
        return ov.to_ocn(np.where(self._water_overlap,
                                  ov.from_atm(net_atm), 0.0))

    # ------------------------------------------------------------------
    @profiled("coupler.land_rivers")
    def step_land_and_rivers(self, state: CouplerState, *,
                             precip: np.ndarray, evap: np.ndarray,
                             t_low1: np.ndarray, t_low2: np.ndarray,
                             net_land_flux: np.ndarray, dt: float
                             ) -> tuple[CouplerState, np.ndarray,
                                        CouplerDiagnostics]:
        """Advance land temperature, hydrology, and river routing.

        All inputs on the atmosphere grid; ``net_land_flux`` is the energy
        residual into the soil (W/m^2).  Returns the new state, the river
        discharge onto atmosphere-grid ocean cells (kg m^-2 s^-1), and
        bookkeeping diagnostics.
        """
        land = self.atm_land_mask
        ground = self.land_model.skin_temperature(state.land)
        new_hydro, runoff = step_hydrology(
            state.hydrology, precip=np.where(land, precip, 0.0),
            evaporation=np.where(land, evap, 0.0),
            ground_temp=ground, t_low1=t_low1, t_low2=t_low2,
            melt_energy=np.where(land, np.maximum(net_land_flux, 0.0), 0.0),
            dt=dt, land_mask=land)
        # River storage is prognostic state: it comes from ``state`` (empty
        # when None), never from what the last call left in the kernel.
        # Routing is a stateful scatter-add, so each member runs through
        # the 2-D kernel (one iteration when serial).
        members = runoff.reshape((-1,) + runoff.shape[-2:])
        volumes = (np.zeros(members.shape) if state.river_volume is None
                   else state.river_volume.reshape(members.shape))
        discharge, new_volume = [], []
        for member_runoff, volume in zip(members, volumes):
            self.river.volume = volume.copy()
            discharge.append(self.river.step(member_runoff, dt))
            new_volume.append(self.river.volume)
        discharge = np.stack(discharge).reshape(runoff.shape)
        new_volume = np.stack(new_volume).reshape(runoff.shape)
        new_land = self.land_model.step(
            state.land, np.where(land, net_land_flux, 0.0), dt)

        a = self.atm_cell_areas
        diags = CouplerDiagnostics(
            precip_total=float(np.sum(precip * a)),
            evap_total=float(np.sum(evap * a)),
            runoff_total=float(np.sum(runoff * a)),
            river_discharge_total=float(np.sum(discharge * a)))
        return (dataclasses.replace(state, land=new_land, hydrology=new_hydro,
                                    river_volume=new_volume,
                                    time=state.time + dt),
                discharge, diags)

    # ------------------------------------------------------------------
    def step_sea_ice(self, state: CouplerState, *, sst_celsius: np.ndarray,
                     ocean_heat_loss: np.ndarray, t_air_on_ocn: np.ndarray,
                     dt: float) -> tuple[CouplerState, np.ndarray]:
        """Advance sea ice on the ocean grid; returns freshwater flux."""
        new_ice, fw = self.ice_model.step(
            state.ice, sst=np.nan_to_num(sst_celsius, nan=0.0) + 273.15,
            ocean_heat_loss=ocean_heat_loss, air_temp=t_air_on_ocn,
            ocean_mask=~self.ocn_land_mask, dt=dt)
        return dataclasses.replace(state, ice=new_ice), fw

    # ------------------------------------------------------------------
    def discharge_to_ocean_grid(self, discharge_atm: np.ndarray) -> np.ndarray:
        """Map river-mouth discharge (atm grid) onto the ocean grid, conserving mass."""
        ov = self.overlap
        ov_field = ov.from_atm(discharge_atm)
        ov_field = np.where(self._water_overlap, ov_field, 0.0)
        mapped = ov.to_ocn(ov_field)
        # Rescale to conserve the global freshwater integral exactly
        # (coastline mismatch between grids can clip some discharge cells).
        # The conservation ratio is a per-member scalar.
        shape = mapped.shape
        mapped = mapped.reshape((-1,) + shape[-2:])
        members = discharge_atm.reshape((-1,) + discharge_atm.shape[-2:])
        for e, member in enumerate(members):
            total_in = float(np.sum(member * self.atm_cell_areas))
            total_out = ov.integrate_ocn(mapped[e])
            if total_out > 0 and total_in > 0:
                mapped[e] = mapped[e] * (total_in / total_out)
        return mapped.reshape(shape)
