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
* classify every overlap cell as open ocean / sea ice / land (an exchange
  plan, re-derived when the ice mask changes);
* compute turbulent fluxes once per overlap cell, one formula each — CCM3
  wind-dependent roughness over open water, CCM2 bulk formulas over sea ice
  and over land — and area-average them back to both grids;
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
from repro.backend import DTypePolicy, policy_from_name
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
from repro.ocean.model import OceanForcing
from repro.perf.profiler import profiled
from repro.util.constants import EARTH_RADIUS

OCEAN_ALBEDO = 0.07
#: The fluxes the exchange carries to both grids (``bulk_fluxes`` returns
#: more; nothing reads the rest).
FLUX_KEYS = ("shf", "lhf", "evap", "taux", "tauy", "ustar")


@dataclass
class CouplerState:
    """All coupler-owned prognostic state (restart-complete)."""

    land: LandState
    hydrology: HydrologyState
    ice: SeaIceState
    #: The forcing window: what the ocean is owed since its last call, as a
    #: running sum over ``forcing_steps`` atmosphere steps (zeros and 0 at a
    #: coupling boundary, so the tree's shape never changes).
    forcing_sum: OceanForcing
    #: The last step's precipitation and evaporation on the atmosphere grid
    #: (kg m^-2 s^-1; zeros at t = 0): the one by-product of a step that
    #: observers want and no later step reads.
    precip: np.ndarray
    evap: np.ndarray
    forcing_steps: int = 0
    river_volume: np.ndarray | None = None   # m^3 stored water per cell


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
        # The static half of the exchange plan: the water cells as flat
        # overlap indices, with their source cells and areas.
        ov = self.overlap
        self._water_ov = np.flatnonzero(self._water_overlap)
        self._water_atm = ov._a_flat[self._water_ov]
        self._water_ocn = ov._o_flat[self._water_ov]
        self._water_area = ov._areas_flat[self._water_ov]
        self._plan_key = self._plan = None     # see _exchange_plan
        self.plans_built = self.plan_requests = 0

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
            forcing_sum=OceanForcing.zeros(ny_o, nx_o,
                                           self.policy.float_dtype),
            # In the dtypes a step leaves there: physics rains in the
            # policy's, the overlap average is a float64 ``bincount``.
            precip=np.zeros((self.atm_nlat, self.atm_nlon),
                            self.policy.float_dtype),
            evap=np.zeros((self.atm_nlat, self.atm_nlon)),
            river_volume=np.zeros((self.atm_nlat, self.atm_nlon)))

    # ------------------------------------------------------------------
    def surface_temperature(self, state: CouplerState,
                            sst_celsius: np.ndarray) -> np.ndarray:
        """Surface skin temperature (K) on the atmosphere grid: ice skin or
        SST over water cells, land skin over land, area-averaged.

        ``sst_celsius`` on the ocean grid (NaN over land is tolerated).
        """
        ov = self.overlap
        sst_k = np.nan_to_num(sst_celsius, nan=0.0) + 273.15
        # Ocean-grid skin: ice skin where icy, SST elsewhere.
        skin_o = np.where(state.ice.mask, state.ice.surface_temp, sst_k)
        skin_ov = ov.from_ocn(skin_o, fill=0.0)
        land_skin = self.land_model.skin_temperature(state.land)
        skin_land_ov = ov.from_atm(land_skin)
        t_sfc_ov = np.where(self._water_overlap, skin_ov, skin_land_ov)
        return ov.to_atm(t_sfc_ov)

    def surface_state_for_atm(self, state: CouplerState,
                              sst_celsius: np.ndarray) -> SurfaceState:
        """The surface coupled physics reads: skin temperature and albedo,
        blended from ocean/ice/land onto the atmosphere grid (the coupler
        supplies the turbulent fluxes itself)."""
        ov = self.overlap
        # Albedo: ocean/ice over water cells, soil+snow over land.
        alb_land = self.land_model.albedo(state.hydrology.snow_depth)
        alb_ocean_o = np.where(state.ice.mask, SEAICE_ALBEDO, OCEAN_ALBEDO)
        alb_ov = np.where(self._water_overlap,
                          ov.from_ocn(alb_ocean_o, fill=OCEAN_ALBEDO),
                          ov.from_atm(alb_land))
        return SurfaceState(t_sfc=self.surface_temperature(state, sst_celsius),
                            albedo=ov.to_atm(alb_ov))

    # ------------------------------------------------------------------
    def _exchange_plan(self, ice_mask: np.ndarray) -> tuple:
        """The open-water and the sea-ice overlap cells under ``ice_mask``
        (ocean grid), each as flat C-ordered (overlap, atmosphere, ocean)
        index arrays, member-offset under leading member axes; and where, of
        the water cells, ice shields the stress.  A derived cache of the
        masks this coupler owns, keyed on the mask's *content*: rebuilt when
        the ice edge moves or the member shape changes, reused otherwise."""
        self.plan_requests += 1
        if self._plan is None or not np.array_equal(self._plan_key, ice_mask):
            ov = self.overlap
            nov, natm, nocn = ov.areas.size, ov._atm_area.size, ov._ocn_area.size
            ice_ov = ice_mask.reshape(-1, nocn)[:, ov._o_flat] & ~ov._ocn_invalid

            def cells(mask):
                member, cell = np.nonzero(mask)
                return (member * nov + cell, member * natm + ov._a_flat[cell],
                        member * nocn + ov._o_flat[cell])

            self._plan_key = ice_mask.copy()
            self._plan = (
                cells(self._water_overlap.ravel() & ~ice_ov), cells(ice_ov),
                ice_ov[:, self._water_ov].reshape(
                    ice_mask.shape[:-2] + (-1,)))
            self.plans_built += 1
        return self._plan

    def _water_to_ocn(self, on_water: np.ndarray) -> np.ndarray:
        """Area-average values on the water cells, (..., n_water), onto the
        ocean grid: ``overlap.to_ocn`` of the field that is zero on every
        other cell, bit for bit — the terms left out are ``+0.0`` and a
        ``bincount`` accumulator is never ``-0.0`` (DESIGN.md)."""
        ov = self.overlap
        return ov.scatter(on_water * self._water_area, self._water_ocn,
                          ov._ocn_area_safe)

    def water_flux_to_ocean(self, atm_field: np.ndarray) -> np.ndarray:
        """An atmosphere-grid flux, (..., nlat, nlon), onto the ocean grid
        through the water overlap cells only (land cells contribute zero)."""
        flat = atm_field.reshape(atm_field.shape[:-2] + (-1,))
        return self._water_to_ocn(np.take(flat, self._water_atm, axis=-1))

    # ------------------------------------------------------------------
    @profiled("coupler.fluxes")
    def turbulent_fluxes(self, state: CouplerState, *, t_air: np.ndarray,
                         q_air: np.ndarray, u_air: np.ndarray,
                         v_air: np.ndarray, ps: np.ndarray,
                         sst_celsius: np.ndarray) -> dict:
        """Compute surface turbulent fluxes once per overlap cell (Fig. 1).

        Atmosphere inputs are lowest-model-level fields on the atm grid; SST
        on the ocean grid.  Every overlap cell gets exactly one formula,
        evaluated on the coarsest grid that determines it: CCM3 over the
        gathered open-water cells, CCM2 bulk over the gathered sea-ice cells
        and — every land input lives there — over the *atmosphere grid*,
        gathered afterwards.  Returns a dict with the ``FLUX_KEYS`` fluxes
        already averaged onto both grids:

        * ``atm``: dict usable as ``external_fluxes`` by the physics driver;
        * ``ocn_taux/ocn_tauy``: stress on the ocean grid (ice-divided);
        * ``ocn_turb_heat_loss``: SH + LH leaving the water surface (W/m^2);
        * ``ocn_evap``: evaporation from the water surface (kg m^-2 s^-1);
        * ``overlap``: the raw overlap-cell fields, for conservation checks.
        """
        ov = self.overlap
        ice = state.ice
        lead = ice.thickness.shape[:-2]
        if not t_air.shape[:-2] == sst_celsius.shape[:-2] == lead:
            raise ValueError(f"t_air {t_air.shape} and SST {sst_celsius.shape}"
                             f" must carry the ice state's member axes {lead}")
        (open_ov, open_atm, open_ocn), (ice_ov, ice_atm, ice_ocn), \
            ice_on_water = self._exchange_plan(ice.mask)
        air = (t_air, q_air, u_air, v_air, ps)
        land_skin = self.land_model.skin_temperature(state.land)
        wet_land = wetness_factor(state.hydrology,
                                  self.land_model.soil_type == 4)
        z0_land = self.land_model.roughness
        # Ice and land share one "solid" formula: each side's inputs take
        # the dtype a whole-grid merge of the two would promote them to.
        t_dtype = np.result_type(ice.surface_temp, land_skin)

        sst_k = np.nan_to_num(sst_celsius, nan=-1.92) + 273.15
        f_open = ocean_fluxes(*(a.ravel()[open_atm] for a in air),
                              sst_k.ravel()[open_ocn], self.flux_params)
        f_ice = bulk_fluxes(
            *(a.ravel()[ice_atm] for a in air),
            ice.surface_temp.ravel()[ice_ocn].astype(t_dtype, copy=False),
            np.full(ice_ov.size, SEAICE_ROUGHNESS, z0_land.dtype),
            np.ones(ice_ov.size, wet_land.dtype), self.flux_params)
        f_land = bulk_fluxes(*air, land_skin.astype(t_dtype, copy=False),
                             z0_land, wet_land, self.flux_params)

        # One stacked (key, ..., nlat, nlon) overlap buffer: land values
        # gathered from the atmosphere grid, the other two classes scattered
        # over them; one averaging pass takes all six fields back.
        stacked = ov.from_atm(np.stack([f_land[k] for k in FLUX_KEYS])).astype(
            np.result_type(f_open["shf"], f_land["shf"]), copy=False)
        for row, k in zip(stacked.reshape(len(FLUX_KEYS), -1), FLUX_KEYS):
            row[open_ov] = f_open[k]
            row[ice_ov] = f_ice[k]
        fluxes_ov = dict(zip(FLUX_KEYS, stacked))
        atm_fluxes = dict(zip(FLUX_KEYS, ov.to_atm(stacked)))

        # Ocean receives stress (ice-shielded), turbulent heat loss and evap
        # only from its water cells (all of FLUX_KEYS but the last, ustar).
        shf, lhf, evap, taux, tauy = np.take(
            stacked[:5].reshape((5,) + lead + (-1,)), self._water_ov, axis=-1)
        taux, tauy = SeaIceModel.stress_to_ocean(taux, tauy, ice_on_water)
        ocn_taux, ocn_tauy, ocn_turb, ocn_evap = self._water_to_ocn(
            np.stack([taux, tauy, shf + lhf, evap]))

        return {"atm": atm_fluxes, "overlap": fluxes_ov,
                "ocn_taux": ocn_taux, "ocn_tauy": ocn_tauy,
                "ocn_turb_heat_loss": ocn_turb, "ocn_evap": ocn_evap}

    # ------------------------------------------------------------------
    @profiled("coupler.land_rivers")
    def step_land_and_rivers(self, state: CouplerState, *,
                             precip: np.ndarray, evap: np.ndarray,
                             t_low1: np.ndarray, t_low2: np.ndarray,
                             net_land_flux: np.ndarray, dt: float
                             ) -> tuple[CouplerState, np.ndarray]:
        """Advance land temperature, hydrology, and river routing.

        All inputs on the atmosphere grid; ``net_land_flux`` is the energy
        residual into the soil (W/m^2).  Returns the new state and the river
        discharge onto atmosphere-grid ocean cells (kg m^-2 s^-1).
        """
        land = self.atm_land_mask
        ground = self.land_model.skin_temperature(state.land)
        new_hydro, runoff = step_hydrology(
            state.hydrology, precip=np.where(land, precip, 0.0),
            evaporation=np.where(land, evap, 0.0),
            ground_temp=ground, t_low1=t_low1, t_low2=t_low2,
            melt_energy=np.where(land, np.maximum(net_land_flux, 0.0), 0.0),
            dt=dt, land_mask=land)
        # Routing is a scatter-add whose order matters, so each member's
        # storage (empty when None) runs through the 2-D kernel (one
        # iteration when serial).
        members = runoff.reshape((-1,) + runoff.shape[-2:])
        volumes = (np.zeros(members.shape) if state.river_volume is None
                   else state.river_volume.reshape(members.shape))
        routed = [self.river.step(volume, member_runoff, dt)
                  for member_runoff, volume in zip(members, volumes)]
        discharge, new_volume = (np.stack(part).reshape(runoff.shape)
                                 for part in zip(*routed))
        new_land = self.land_model.step(
            state.land, np.where(land, net_land_flux, 0.0), dt)
        return dataclasses.replace(state, land=new_land, hydrology=new_hydro,
                                   river_volume=new_volume), discharge

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
        mapped = self.water_flux_to_ocean(discharge_atm)
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
