"""Physics driver: runs the full CCM-style column-physics suite in order.

The paper stresses that CCM physics "occur entirely in vertical columns" and
therefore parallelize with no communication; this driver preserves that
property — every scheme is a pure function of the column state, vectorized
over whatever horizontal shape the caller supplies.

Call order per physics step (the CCM sequence):

1. radiation (only on radiation steps — twice per simulated day, per Fig 2);
2. boundary-layer vertical diffusion, driven by the surface fluxes the
   coupler hands in (FOAM's "principal modification to PCCM2": the lower
   boundary's fluxes are computed on the overlap grid, not here);
3. Zhang-McFarlane deep convection;
4. Hack shallow convection;
5. stratiform condensation + precipitation evaporation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atmosphere.physics.boundary_layer import (
    BoundaryLayerParams,
    boundary_layer_tendencies,
)
from repro.atmosphere.physics.convection import (
    ConvectionParams,
    hack_shallow,
    zhang_mcfarlane_deep,
)
from repro.atmosphere.physics.radiation import (
    RadiationParams,
    fixed_subsolar_cos,
    longwave,
    shortwave,
    solar_zenith_cos,
)
from repro.atmosphere.physics.stratiform import StratiformParams, stratiform_tendencies
from repro.backend import get_workspace
from repro.perf.profiler import profile_section
from repro.util.constants import GRAVITY, SECONDS_PER_DAY


@dataclass
class SurfaceState:
    """What the radiation needs to know about the lower boundary (the
    coupler owns the turbulent fluxes)."""

    t_sfc: np.ndarray           # surface (skin / SST) temperature, K
    albedo: np.ndarray          # broadband surface albedo


@dataclass
class RadiationState:
    """The radiation a physics step applies, and when it was computed.

    Radiation runs on its own (longer) cadence — paper: 2x/day — so its
    heating rates and surface/top fluxes outlive the step that computed
    them: they are state (``FoamState.radiation``), not a cache.  ``None``
    arrays and ``time = -inf`` before the first call.
    """

    sw_heat: np.ndarray | None = None       # K/s, (L, ...)
    sw_sfc: np.ndarray | None = None        # W/m^2 absorbed at the surface
    sw_toa_refl: np.ndarray | None = None
    lw_heat: np.ndarray | None = None       # K/s, (L, ...)
    olr: np.ndarray | None = None
    lw_down: np.ndarray | None = None
    lw_net_sfc: np.ndarray | None = None
    time: float = -np.inf                   # s; when the arrays were computed


@dataclass
class PhysicsTendencies:
    """Output of one physics step (all per second)."""

    dtdt: np.ndarray
    dqdt: np.ndarray
    dudt: np.ndarray
    dvdt: np.ndarray
    precip_conv: np.ndarray     # kg m^-2 s^-1
    precip_strat: np.ndarray
    #: The radiation this step applied: the state it was handed, or a new
    #: one when that was ``radiation_interval`` old.
    radiation: RadiationState


class PhysicsSuite:
    """Holds all parameterization settings and applies them in CCM order."""

    def __init__(self,
                 radiation: RadiationParams = RadiationParams(),
                 radiation_interval: float = SECONDS_PER_DAY / 2.0):
        self.rad = radiation
        self.conv = ConvectionParams()
        self.strat = StratiformParams()
        self.pbl = BoundaryLayerParams()
        self.radiation_interval = radiation_interval

    # ------------------------------------------------------------------
    def compute(self, *, temp: np.ndarray, q: np.ndarray, u: np.ndarray,
                v: np.ndarray, pressure: np.ndarray, ps: np.ndarray,
                geopotential: np.ndarray, dsigma: np.ndarray,
                surface: SurfaceState, dt: float, time: float,
                lats: np.ndarray, lons: np.ndarray, external_fluxes: dict,
                radiation: RadiationState = RadiationState()
                ) -> PhysicsTendencies:
        """One physics step over all columns.

        ``external_fluxes`` are the turbulent surface fluxes (``shf``,
        ``evap``, ``taux``, ``tauy``, ``ustar``) the FOAM coupler computed on
        its overlap grid.  ``radiation`` is applied as handed in while it
        is younger than ``radiation_interval`` and recomputed otherwise;
        either way the one applied comes back as ``.radiation``.
        """
        ws = get_workspace()
        dp = np.multiply(
            dsigma[:, None, None], ps[None],
            out=ws.empty("phys.dp", (dsigma.shape[0],) + ps.shape,
                         np.result_type(dsigma, ps)))
        z_full = np.divide(geopotential, GRAVITY,
                           out=ws.empty_like("phys.z_full", geopotential))

        # ---- 1. radiation (only when the one handed in is due) ----------
        if time - radiation.time >= self.radiation_interval - 1e-6:
            with profile_section("atmosphere.radiation"):
                day = (time / SECONDS_PER_DAY) % 365.0
                secs = time % SECONDS_PER_DAY
                if self.rad.subsolar_lon_deg is not None:
                    cosz = fixed_subsolar_cos(lats, lons,
                                              self.rad.subsolar_lon_deg)
                else:
                    cosz = solar_zenith_cos(lats, day, secs, lons)
                sw_heat, sw_sfc, sw_toa_refl = shortwave(
                    temp, q, pressure, dp, cosz, surface.albedo, self.rad)
                lw_heat, olr, lw_down, lw_net_sfc = longwave(
                    temp, q, dp, surface.t_sfc, self.rad)
                radiation = RadiationState(sw_heat, sw_sfc, sw_toa_refl,
                                           lw_heat, olr, lw_down, lw_net_sfc,
                                           time)

        # ---- 2. boundary layer ------------------------------------------
        with profile_section("atmosphere.boundary_layer"):
            fx = external_fluxes
            dtdt_pbl, dqdt_pbl, dudt_pbl, dvdt_pbl = boundary_layer_tendencies(
                temp, q, u, v, pressure, z_full, dt,
                ustar=fx["ustar"], shf=fx["shf"], lhf_evap=fx["evap"],
                taux=-fx["taux"], tauy=-fx["tauy"], params=self.pbl)

            # In-place accumulation on workspace buffers; the op order matches
            # the original expressions so default-precision runs are bitwise
            # identical.  Only the fresh total_* arrays below escape.
            t_work = np.add(dtdt_pbl, radiation.sw_heat,
                            out=ws.empty_like("phys.t_work", temp))
            t_work += radiation.lw_heat
            t_work *= dt
            t_work += temp
            q_work = np.multiply(dqdt_pbl, dt,
                                 out=ws.empty_like("phys.q_work", q))
            q_work += q
            np.maximum(q_work, 0.0, out=q_work)

        # ---- 3. deep convection ------------------------------------------
        with profile_section("atmosphere.deep_convection"):
            dtdt_zm, dqdt_zm, prec_zm = zhang_mcfarlane_deep(
                t_work, q_work, pressure, dp, dt, self.conv)
            t_work += np.multiply(dtdt_zm, dt,
                                  out=ws.empty_like("phys.incr", temp))
            q_work += np.multiply(dqdt_zm, dt,
                                  out=ws.empty_like("phys.incr", q))
            np.maximum(q_work, 0.0, out=q_work)

        # ---- 4. shallow convection ----------------------------------------
        with profile_section("atmosphere.shallow_convection"):
            dtdt_hk, dqdt_hk, prec_hk = hack_shallow(
                t_work, q_work, pressure, dp, geopotential, dt, self.conv)
            t_work += np.multiply(dtdt_hk, dt,
                                  out=ws.empty_like("phys.incr", temp))
            q_work += np.multiply(dqdt_hk, dt,
                                  out=ws.empty_like("phys.incr", q))
            np.maximum(q_work, 0.0, out=q_work)

        # ---- 5. stratiform -------------------------------------------------
        with profile_section("atmosphere.stratiform"):
            dtdt_st, dqdt_st, prec_st = stratiform_tendencies(
                t_work, q_work, pressure, dp, dt, self.strat)
            t_work += np.multiply(dtdt_st, dt,
                                  out=ws.empty_like("phys.incr", temp))
            q_work += np.multiply(dqdt_st, dt,
                                  out=ws.empty_like("phys.incr", q))
            np.maximum(q_work, 0.0, out=q_work)

        # Fresh (they escape into PhysicsTendencies); the division lands in
        # place on the difference — same ops, one temporary fewer each.
        total_dtdt = np.subtract(t_work, temp)
        np.divide(total_dtdt, dt, out=total_dtdt)
        total_dqdt = np.subtract(q_work, q)
        np.divide(total_dqdt, dt, out=total_dqdt)

        return PhysicsTendencies(
            dtdt=total_dtdt, dqdt=total_dqdt, dudt=dudt_pbl, dvdt=dvdt_pbl,
            precip_conv=prec_zm + prec_hk, precip_strat=prec_st,
            radiation=radiation)
