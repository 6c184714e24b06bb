"""FOAM: the coupled ocean-atmosphere model (the paper's contribution).

Assembles the spectral atmosphere (:mod:`repro.atmosphere`), the fast ocean
(:mod:`repro.ocean`) and the overlap-grid coupler (:mod:`repro.coupler`)
into the coupled system of the paper:

* the atmosphere advances on its 30-minute step; its lower boundary
  condition is replaced by coupler-supplied surface state and fluxes
  ("the principal modification to PCCM2 ... was to replace the lower
  boundary condition routine");
* the coupler computes the turbulent fluxes on the overlap grid each
  atmosphere step, runs the land/bucket/river/ice models, and accumulates
  the ocean forcing;
* the ocean is called once per 6 simulated hours (4x per day, Figure 2)
  with the time-averaged forcing;
* radiation is recomputed twice per simulated day.

Physics and coupling are applied as adjustments to the spectral state
between dynamics steps (process splitting), with moisture carried on the
grid and transported semi-Lagrangially as in PCCM2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from repro.atmosphere.dynamics import AtmosphereState, SpectralDynamicalCore
from repro.atmosphere.physics import PhysicsSuite, RadiationState
from repro.atmosphere.physics.radiation import RadiationParams
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.atmosphere.vertical import VerticalGrid
from repro.core.config import FoamConfig, test_config
from repro.coupler.coupler import CouplerState, FluxCoupler
from repro.coupler.seaice import SeaIceState
from repro.ocean.grid import OceanGrid, topography_by_name
from repro.ocean.model import OceanForcing, OceanModel, OceanState
from repro.ocean.slab import SlabOceanModel
from repro.perf.profiler import profile_section, profiled
from repro.util.constants import GRAVITY, RHO_WATER, STEFAN_BOLTZMANN
from repro.util.tree import tree_map


@dataclass
class FoamState:
    """Everything a later step reads: ``coupled_step`` is a function of this
    tree alone (DESIGN.md "State layout"), so any step is a checkpoint."""

    atm_prev: AtmosphereState
    atm_curr: AtmosphereState
    ocean: OceanState
    coupler: CouplerState
    #: Beside, not inside, the atmosphere states: those are Robert-filtered
    #: leaf by leaf.
    radiation: RadiationState
    time: float = 0.0


class FoamModel:
    """The coupled FOAM system; one instance owns all three components."""

    def __init__(self, config: FoamConfig | None = None):
        self.config = config or test_config()
        cfg = self.config

        # One precision policy threads through every component constructor.
        policy = cfg.dtype_policy
        self.policy = policy
        self.transform = SpectralTransform(cfg.atm_nlat, cfg.atm_nlon,
                                           Truncation(cfg.atm_mmax),
                                           dtype=policy)
        self.vgrid = VerticalGrid.ccm_like(cfg.atm_nlev, dtype=policy)
        self.dycore = SpectralDynamicalCore(self.transform, self.vgrid,
                                            dt=cfg.atm_dt,
                                            robert=cfg.robert_filter,
                                            rotation_factor=cfg.rotation_factor)
        self.physics = PhysicsSuite(
            radiation=RadiationParams(solar_constant=cfg.solar_constant,
                                      subsolar_lon_deg=cfg.subsolar_lon_deg,
                                      co2_ppmv=cfg.co2_ppmv),
            radiation_interval=cfg.radiation_interval)

        self.ocean_grid = OceanGrid(nx=cfg.ocn_nx, ny=cfg.ocn_ny,
                                    nlev=cfg.ocn_nlev, dtype=policy,
                                    rotation_factor=cfg.rotation_factor)
        land_mask, depth = topography_by_name(cfg.topography)(self.ocean_grid)
        if cfg.ocean_mode == "slab":
            self.ocean = SlabOceanModel(self.ocean_grid, land_mask, depth,
                                        cfg.ocean_params,
                                        mixed_layer_depth=cfg.mixed_layer_depth)
        else:
            self.ocean = OceanModel(self.ocean_grid, land_mask, depth,
                                    cfg.ocean_params)
        self.coupler = FluxCoupler(self.transform.lats, cfg.atm_nlon,
                                   self.ocean_grid.lats, cfg.ocn_nx,
                                   land_mask, rng_seed=cfg.seed + 7,
                                   dtype=policy)

    # ------------------------------------------------------------------
    def initial_state(self, seed: int | None = None,
                      perturb=None) -> FoamState:
        """Build the coupled initial state.

        ``perturb(atm)`` may mutate the atmosphere state in place before the
        leapfrog forward start — the ensemble driver injects per-member
        initial-condition noise here so the perturbation participates in the
        half-step exactly as it would in a standalone run.
        """
        seed = self.config.seed if seed is None else seed
        atm = self.dycore.initial_state("isothermal_rest", seed=seed,
                                        noise_amplitude=1e-8)
        # Moist initial atmosphere: ~60 % RH near the surface, drying rapidly
        # aloft (RH * sigma^2), hard-capped at 25 g/kg — without the vertical
        # taper the tiny saturation *pressure* aloft makes qsat explode as a
        # mixing ratio and its condensation heats the stratosphere by
        # hundreds of kelvin in one step.
        diag = self.dycore.diagnose(atm)
        from repro.util.thermo import saturation_mixing_ratio
        rh_profile = 0.6 * self.vgrid.sigma[:, None, None] ** 2
        atm.q = np.minimum(
            rh_profile * saturation_mixing_ratio(diag.temp, diag.pressure),
            0.025).astype(self.policy.float_dtype, copy=False)
        if perturb is not None:
            perturb(atm)
        ocn = self.ocean.initial_state(self.config.ocean_init)
        cpl = self.coupler.initial_state()
        if self.config.initial_ice_thickness > 0.0:
            cpl.ice = SeaIceState.uniform(~self.coupler.ocn_land_mask,
                                          self.config.initial_ice_thickness)
        prev = atm
        curr = self.dycore._forward_start(atm)
        return FoamState(atm_prev=prev, atm_curr=curr, ocean=ocn,
                         coupler=cpl, radiation=RadiationState(), time=0.0)

    # ------------------------------------------------------------------
    # coupled-step phases
    #
    # ``coupled_step`` below recomposes these serially; the concurrent
    # driver (repro.parallel.coupled) distributes them over disjoint rank
    # pools.  Each phase runs identical array expressions in identical
    # order, so serial and concurrent float64 trajectories are bitwise
    # comparable.
    # ------------------------------------------------------------------
    @profiled("atmosphere.diagnose")
    def atm_diagnose(self, atm_curr: AtmosphereState):
        """Grid-space diagnostics of the current spectral state."""
        return self.dycore.diagnose(atm_curr)

    @profiled("coupler.merge_surface")
    def merge_surface(self, cpl_state: CouplerState, sst: np.ndarray, *,
                      t_air: np.ndarray, q_air: np.ndarray,
                      u_air: np.ndarray, v_air: np.ndarray, ps: np.ndarray):
        """Coupler phase: merged surface state + overlap-grid turbulent fluxes."""
        surface = self.coupler.surface_state_for_atm(cpl_state, sst)
        turb = self.coupler.turbulent_fluxes(
            cpl_state, t_air=t_air, q_air=q_air, u_air=u_air,
            v_air=v_air, ps=ps, sst_celsius=sst)
        return surface, turb

    @profiled("atmosphere.physics")
    def _physics_kernel(self, diag, q, surface, external_fluxes, radiation,
                        *, time: float, rows: tuple[int, int] | None = None):
        """Column physics; ``rows=(lo, hi)`` restricts to a latitude band
        (of the result too: a band's ``.radiation`` holds its rows).

        Physics is column-local, so the selected rows of every member run
        as one wide grid of ``members * rows`` latitudes (the latitude
        array tiled member-major): bitwise identical per member and per
        row to member-at-a-time, full-grid calls — the same columns see the
        same elementwise arithmetic, just stacked.  The atmosphere pool
        relies on this to split physics without splitting the spectral
        state.
        """
        tr = self.transform
        sl = slice(None) if rows is None else slice(*rows)
        lead = diag.ps.shape[:-2]                # () serial, (nens,) batched
        nlon = diag.ps.shape[-1]

        def fold(a):
            a = a[..., sl, :]
            return a.reshape(a.shape[:a.ndim - 2 - len(lead)] + (-1, nlon))

        phys = self.physics.compute(
            temp=fold(diag.temp), q=fold(q), u=fold(diag.u), v=fold(diag.v),
            pressure=fold(diag.pressure), ps=fold(diag.ps),
            geopotential=fold(diag.geopotential), dsigma=self.vgrid.dsigma,
            surface=tree_map(fold, surface), dt=self.config.atm_dt, time=time,
            lats=np.tile(tr.lats[sl], math.prod(lead)), lons=tr.lons,
            external_fluxes=tree_map(fold, external_fluxes),
            radiation=tree_map(fold, radiation))
        return tree_map(
            lambda a: a.reshape(a.shape[:-2] + lead + (-1, nlon)), phys)

    @profiled("atmosphere.spectral_update")
    def _apply_tendencies_kernel(self, curr: AtmosphereState, dtdt, dudt,
                                 dvdt, dqdt) -> AtmosphereState:
        """Apply physics adjustments to the spectral state (process split)."""
        dt = self.config.atm_dt
        tr = self.transform
        new_curr = curr.copy()
        # One batched transform per tendency (bitwise identical per slice
        # to a per-level loop).
        new_curr.temp += dt * tr.analyze(dtdt)
        dv, dd = tr.vortdiv_from_uv(dudt, dvdt)
        new_curr.vort += dt * dv
        new_curr.div += dt * dd
        new_curr.q = np.maximum(curr.q + dt * dqdt, 0.0)
        return new_curr

    @profiled("atmosphere.advance")
    def atm_advance(self, state: FoamState, diag, surface, external_fluxes):
        """Full-grid physics + spectral update (the serial atmosphere phase)."""
        phys = self._physics_kernel(diag, state.atm_curr.q, surface,
                                    external_fluxes, state.radiation,
                                    time=state.time)
        new_curr = self._apply_tendencies_kernel(
            state.atm_curr, phys.dtdt, phys.dudt, phys.dvdt, phys.dqdt)
        return new_curr, phys

    @profiled("coupler.accumulate")
    def accumulate_forcing(self, cpl_state: CouplerState, turb: dict,
                           surface, *, precip: np.ndarray,
                           sw_sfc: np.ndarray, lw_down: np.ndarray,
                           t_low1: np.ndarray, t_low2: np.ndarray,
                           dt: float) -> CouplerState:
        """Land/hydrology/rivers + ocean-forcing accumulation (coupler phase).

        ``sw_sfc``/``lw_down`` are the radiation outputs of the physics
        step; the turbulent pieces of the net surface flux come from
        ``turb["atm"]`` (the very arrays physics passed through via
        ``external_fluxes``), so the coupler rank needs no flux arrays back
        from the atmosphere pool beyond precip and radiation.  The new
        state keeps the step's ``precip`` and evaporation for observers.
        """
        net_rad = sw_sfc + lw_down - STEFAN_BOLTZMANN * surface.t_sfc**4
        net_sfc = net_rad - turb["atm"]["shf"] - turb["atm"]["lhf"]
        # Its own array: a view would pin the six-field exchange buffer for
        # as long as a state, or a buffered history snapshot of it, lives.
        evap = turb["atm"]["evap"].copy()
        new_cpl, discharge_atm = self.coupler.step_land_and_rivers(
            cpl_state, precip=precip, evap=evap,
            t_low1=t_low1, t_low2=t_low2, net_land_flux=net_sfc, dt=dt)

        # --- accumulate ocean forcing ---------------------------------------
        with profile_section("coupler.regrid_merge"):
            # Radiation, rain and river mouths reach the ocean through its
            # water overlap cells only, like the turbulent fluxes.
            to_ocn = self.coupler.water_flux_to_ocean
            heat_ocn = to_ocn(net_rad) - turb["ocn_turb_heat_loss"]
            discharge_ocn = self.coupler.discharge_to_ocean_grid(discharge_atm)
            fresh = to_ocn(precip) - turb["ocn_evap"] + discharge_ocn

            step = OceanForcing(turb["ocn_taux"], turb["ocn_tauy"],
                                heat_ocn, fresh)
            # Out of place (the caller's state keeps its window), in the
            # window's dtype.
            window = tree_map(
                lambda acc, a: np.add(acc, a, out=np.empty_like(acc)),
                cpl_state.forcing_sum, step)
        return replace(new_cpl, forcing_sum=window, precip=precip, evap=evap,
                       forcing_steps=cpl_state.forcing_steps + 1)

    def coupling_due(self, cpl_state: CouplerState) -> bool:
        """True when a full averaging window has accumulated (ocean is due)."""
        return cpl_state.forcing_steps >= self.config.atm_steps_per_coupling

    @profiled("coupler.ocean_forcing")
    def ocean_forcing(self, cpl_state: CouplerState, sst: np.ndarray, *,
                      t_air_bot: np.ndarray):
        """Window-mean forcing + sea-ice step; the new state's window is empty."""
        cfg = self.config
        n = cpl_state.forcing_steps
        forcing = tree_map(lambda a: a / n, cpl_state.forcing_sum)
        # Sea ice first: it converts persistent heat loss at the clamp
        # into ice and shields the stress.
        ov = self.coupler.overlap
        t_air_ocn = ov.to_ocn(ov.from_atm(t_air_bot))
        with profile_section("coupler.seaice"):
            new_cpl, ice_fw = self.coupler.step_sea_ice(
                cpl_state, sst_celsius=sst,
                ocean_heat_loss=-forcing.heat_flux,
                t_air_on_ocn=t_air_ocn,
                dt=cfg.ocean_coupling_interval)
        forcing.freshwater += ice_fw
        empty = tree_map(np.zeros_like, cpl_state.forcing_sum)
        return replace(new_cpl, forcing_sum=empty, forcing_steps=0), forcing

    @profiled("atmosphere.dynamics")
    def atm_dynamics(self, atm_prev: AtmosphereState,
                     new_curr: AtmosphereState):
        """Semi-implicit spectral dynamics step (once per coupled step)."""
        return self.dycore.step(atm_prev, new_curr)

    # ------------------------------------------------------------------
    @profiled("runs.coupled_step")
    def coupled_step(self, state: FoamState) -> FoamState:
        """One atmosphere step of the coupled system (30 simulated minutes).

        Every phase method above is one profiler span, named as the ledger
        names it (``benchmarks/e2e/tracing.py``);
        ``calibrate_from_profile`` reads those names, and counts the steps
        by ``coupler.merge_surface`` and the atmosphere ranks by
        ``atmosphere.dynamics`` per step.
        """
        cfg = self.config
        dt = cfg.atm_dt
        curr = state.atm_curr
        diag = self.atm_diagnose(curr)
        sst = self.ocean.sst(state.ocean)

        # --- coupler: surface state and turbulent fluxes (overlap grid) ---
        surface, turb = self.merge_surface(
            state.coupler, sst, t_air=diag.temp[-1], q_air=curr.q[-1],
            u_air=diag.u[-1], v_air=diag.v[-1], ps=diag.ps)

        # --- atmosphere physics with coupler-owned surface fluxes ----------
        new_curr, phys = self.atm_advance(state, diag, surface, turb["atm"])

        precip = phys.precip_conv + phys.precip_strat

        # --- land, hydrology, rivers + ocean-forcing accumulation -----------
        new_cpl = self.accumulate_forcing(
            state.coupler, turb, surface, precip=precip,
            sw_sfc=phys.radiation.sw_sfc, lw_down=phys.radiation.lw_down,
            t_low1=diag.temp[-1], t_low2=diag.temp[-2], dt=dt)

        new_ocean = state.ocean
        new_time = state.time + dt

        # --- ocean call (every 6 simulated hours) ---------------------------
        if self.coupling_due(new_cpl):
            new_cpl, forcing = self.ocean_forcing(new_cpl, sst,
                                                  t_air_bot=diag.temp[-1])
            new_ocean = self.ocean.step(state.ocean, forcing)

        # --- atmosphere dynamics step ----------------------------------------
        new_prev, new_next = self.atm_dynamics(state.atm_prev, new_curr)
        return FoamState(atm_prev=new_prev, atm_curr=new_next,
                         ocean=new_ocean, coupler=new_cpl,
                         radiation=phys.radiation, time=new_time)

    # ------------------------------------------------------------------
    def run_days(self, state: FoamState, days: float,
                 observers: tuple = ()) -> FoamState:
        """Integrate the coupled system for ``days`` simulated days.

        Delegates to the run harness's single stepping loop
        (:func:`repro.runs.drive_steps`); ``observers`` attaches
        :class:`~repro.runs.StepObserver` s (history, checkpoints,
        climatology), which read the state and nothing else.  It takes
        the steps a ``RunPlan(days=days)`` takes: at least one.
        """
        from repro.runs.harness import drive_steps
        from repro.runs.plan import days_to_steps

        nsteps = days_to_steps(days, self.config)
        return drive_steps(self, state, nsteps, tuple(observers))

    # ------------------------------------------------------------------
    # budgets
    # ------------------------------------------------------------------
    def global_water_inventory(self, state: FoamState) -> dict:
        """Water (kg) in the atmosphere, soil, snow and rivers.

        Not every reservoir: sea ice and the ocean's virtual freshwater (the
        salt flux stands in for a volume change) are not counted, so the
        sum is not a closed budget of the coupled system.
        """
        diag = self.dycore.diagnose(state.atm_curr)
        col_q = np.tensordot(self.vgrid.dsigma, state.atm_curr.q, axes=(0, 0)) \
            * diag.ps / GRAVITY
        area_atm = self.coupler.atm_cell_areas

        def kg(field):
            # One figure per member: a float when serial, (nens,) batched.
            total = np.sum(field, axis=(-2, -1))
            return float(total) if total.ndim == 0 else total

        # River storage (m^3) is prognostic state: read it from ``state``,
        # not from the routing kernel's scratch.
        river = state.coupler.river_volume
        return {
            "atmosphere": kg(col_q * area_atm),
            "soil": kg(state.coupler.hydrology.soil_moisture
                       * RHO_WATER * area_atm),
            "snow": kg(state.coupler.hydrology.snow_depth
                       * RHO_WATER * area_atm),
            "rivers": 0.0 if river is None else kg(river) * RHO_WATER,
        }
