"""The FOAM ocean model: z-coordinate primitive equations, triple-rate stepping.

This is the paper's centerpiece claim: *"We believe that the combination of
these techniques yields the most computationally efficient ocean model in
existence ... roughly a tenfold increase in the amount of simulated time
represented per unit of computation."*  The three techniques (paper, "The
FOAM Ocean Model"):

1. artificially slowed explicit free surface (:mod:`repro.ocean.barotropic`);
2. barotropic/baroclinic mode splitting — the 2-D surface system subcycles
   inside the internal step;
3. multi-rate subcycling of the internal dynamics themselves: the *fast*
   internal terms (Coriolis, baroclinic pressure gradient) run on a shorter
   step than the *slow* advective and diffusive terms.

:class:`OceanModel` integrates one coupling interval per :meth:`step` call,
taking the coupler's surface fluxes (stress, heat, fresh water) as boundary
conditions, and exposes SST and budget diagnostics.  All arithmetic is
vectorized over the full 3-D grid; the structure maps one-to-one onto the
2-D domain decomposition in :mod:`repro.parallel`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.ocean.barotropic import BarotropicParams, BarotropicSolver
from repro.ocean.eos import buoyancy_frequency_sq, density_anomaly
from repro.ocean.filters import PolarFilter
from repro.ocean.grid import OceanGrid, world_topography
from repro.ocean.mixing import (
    PPMixingParams,
    convective_adjustment,
    mix_column_implicit,
    pp_viscosity,
    richardson_number,
)
from repro.ocean.operators import Stencil
from repro.backend import get_workspace, weak_scalar
from repro.perf.profiler import profile_section, profiled
from repro.util.constants import (
    CP_SEAWATER,
    GRAVITY,
    RHO_SEAWATER,
    T_FREEZE_SEA,
)
from repro.util.tree import tree_map


@dataclass
class OceanParams:
    """Time stepping rates and dissipation settings."""

    dt_long: float = 6.0 * 3600.0        # advective/diffusive (coupling) step
    n_internal: int = 6                  # internal (fast) substeps per long step
    biharmonic_coeff: float | None = None  # m^4/s; resolution-scaled if None
    barotropic: BarotropicParams = field(default_factory=BarotropicParams)
    mixing: PPMixingParams = field(default_factory=PPMixingParams)
    polar_filter_lat: float = 60.0
    # deg C: the paper's -1.92 clamp.  May be a per-member array (e.g.
    # (nens, 1, 1)) broadcastable against the surface-temperature field.
    sst_clamp: float | np.ndarray = T_FREEZE_SEA - 273.15
    reference_salinity: float = 34.7

    def __post_init__(self):
        self.sst_clamp = weak_scalar(self.sst_clamp)


@dataclass
class OceanState:
    """Prognostic ocean fields (temperature in Celsius, MOM convention)."""

    u: np.ndarray        # (L, ny, nx) baroclinic velocity (zero depth-mean)
    v: np.ndarray
    temp: np.ndarray     # (L, ny, nx) potential temperature, deg C
    salt: np.ndarray     # (L, ny, nx) salinity, psu
    eta: np.ndarray      # (ny, nx) free surface height, m
    ubar: np.ndarray     # (ny, nx) barotropic velocity
    vbar: np.ndarray
    time: float = 0.0

    def copy(self) -> "OceanState":
        return tree_map(np.ndarray.copy, self)


@dataclass
class OceanForcing:
    """Surface boundary conditions handed over by the coupler each long step."""

    taux: np.ndarray       # N/m^2, eastward stress on the ocean
    tauy: np.ndarray
    heat_flux: np.ndarray  # W/m^2, positive = into the ocean
    freshwater: np.ndarray  # kg m^-2 s^-1, positive = into the ocean (P - E + R)

    @classmethod
    def zeros(cls, ny: int, nx: int, dtype=np.float64) -> "OceanForcing":
        """Zero forcing on one ``(ny, nx)`` ocean grid."""
        z = np.zeros((ny, nx), dtype=dtype)
        return cls(z.copy(), z.copy(), z.copy(), z.copy())


class OceanModel:
    """The FOAM parallel ocean model (Anderson & Tobis formulation)."""

    def __init__(self, grid: OceanGrid,
                 land_mask: np.ndarray | None = None,
                 depth: np.ndarray | None = None,
                 params: OceanParams | None = None):
        self.grid = grid
        self.params = params or OceanParams()
        self.policy = grid.policy
        fdt = self.policy.float_dtype
        if land_mask is None or depth is None:
            land_mask, depth = world_topography(grid)
        self.land = land_mask
        self.mask2d = ~land_mask
        self.depth = np.where(self.mask2d, depth, 0.0).astype(fdt, copy=False)
        # 3-D mask: level k active where the column is deep enough.
        self.mask3d = (grid.z_full[:, None, None] < self.depth[None]) & self.mask2d[None]
        # Active thickness per column (for depth means).
        self.dz3d = np.where(self.mask3d, grid.dz[:, None, None],
                             0.0).astype(fdt, copy=False)
        self.coldepth = np.maximum(self.dz3d.sum(axis=0),
                                   1e-9).astype(fdt, copy=False)
        self.baro = BarotropicSolver(grid, self.depth, self.mask2d,
                                     self.params.barotropic)
        # The masks never change: their stencils (one per level, views of
        # the 3-D one) and polar-filter plans are built here, once.
        stencil = Stencil.of(self.mask3d)
        self.stencils = [stencil[k] for k in range(grid.nlev)]
        self.filter3d = PolarFilter(grid.lats, self.mask3d,
                                    self.params.polar_filter_lat)
        self.filter2d = PolarFilter(grid.lats, self.mask2d,
                                    self.params.polar_filter_lat)
        # del^4 coefficient per latitude row, scaled to the local grid size so
        # the 2-grid (checkerboard) mode damps at the same rate everywhere
        # while staying inside the explicit stability bound
        # a4 * dt * (8/dx^2)^2 <= 2 (we use 1/4 of the limit).
        dloc = np.minimum(grid.dx, grid.dy)
        if self.params.biharmonic_coeff is None:
            self.a4 = (0.008 * dloc**4 / self.params.dt_long)[:, None]
        else:
            self.a4 = np.full((grid.ny, 1), self.params.biharmonic_coeff,
                              dtype=fdt)
        self.a4 = self.a4.astype(fdt, copy=False)
        # Harmonic (Laplacian) viscosity on momentum, also row-scaled; this is
        # the usual O(10^4) m^2/s eddy viscosity a ~2 degree ocean needs.
        self.a2 = (0.02 * dloc**2 / self.params.dt_long)[:, None].astype(
            fdt, copy=False)
        # Coriolis rotation factors for the internal substep, rebuilt only
        # when the substep length changes.
        self._rot_dt: float | None = None
        self._cosf: np.ndarray | None = None
        self._sinf: np.ndarray | None = None
        self.op_count = 0   # crude operation counter for the cost model
        self._n3 = int(self.mask3d.sum())
        self._n2 = int(self.mask2d.sum())
        self._nsub = self.baro.n_substeps(
            self.params.dt_long / self.params.n_internal)

    # ------------------------------------------------------------------
    def initial_state(self, kind: str = "rest_stratified") -> OceanState:
        """Climatological-ish initial condition: warm tropics, cold poles/deep."""
        g = self.grid
        L = g.nlev
        shape = (L, g.ny, g.nx)
        lat = g.lats[:, None]
        sst = 27.0 * np.cos(lat) ** 2 - 1.0 * (1.0 - np.cos(lat) ** 2)
        decay = np.exp(-g.z_full / 800.0)
        temp = np.broadcast_to(
            2.0 + (sst[None] - 2.0) * decay[:, None, None], shape).copy()
        salt = np.full(shape, self.params.reference_salinity)
        # Subtropical salty surface lens.
        salt[0] += 0.8 * np.exp(-((np.degrees(lat) ** 2 - 25.0**2) / 900.0) ** 2)
        fdt = self.policy.float_dtype
        temp = np.where(self.mask3d, temp, 0.0).astype(fdt, copy=False)
        salt = np.where(self.mask3d, salt, 0.0).astype(fdt, copy=False)
        z2 = np.zeros((g.ny, g.nx), dtype=fdt)
        zero3 = np.zeros(shape, dtype=fdt)
        if kind == "rest_stratified":
            return OceanState(zero3.copy(), zero3.copy(), temp, salt,
                              z2.copy(), z2.copy(), z2.copy())
        if kind == "cold_uniform":
            # Snowball-style start: the whole ocean sits just above the
            # freezing clamp, no stratification, no salinity lens.
            cold = np.where(self.mask3d, -1.5, 0.0).astype(fdt, copy=False)
            salt_u = np.where(self.mask3d, self.params.reference_salinity,
                              0.0).astype(fdt, copy=False)
            return OceanState(zero3.copy(), zero3.copy(), cold, salt_u,
                              z2.copy(), z2.copy(), z2.copy())
        raise ValueError(f"unknown ocean initial state {kind!r}")

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _m3(self, field3d: np.ndarray) -> np.ndarray:
        """The 3-D mask, viewed to broadcast against ``field3d``.

        Fields are (L, ..., ny, nx) — any member axes sit after the level
        axis — so the mask gains one singleton per such axis (none when
        serial).  Always a view.
        """
        return self.mask3d[(slice(None),) + (None,) * (field3d.ndim - 3)]

    def _dz3(self, field3d: np.ndarray) -> np.ndarray:
        """Active layer thickness, viewed like :meth:`_m3`."""
        return self.dz3d[(slice(None),) + (None,) * (field3d.ndim - 3)]

    def depth_mean(self, field3d: np.ndarray) -> np.ndarray:
        """Thickness-weighted column mean over active levels."""
        return np.sum(field3d * self._dz3(field3d), axis=0) / self.coldepth

    def remove_depth_mean(self, field3d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mean = self.depth_mean(field3d)
        out = np.where(self._m3(field3d), field3d - mean[None], 0.0)
        return out, mean

    def total_velocity(self, state: OceanState) -> tuple[np.ndarray, np.ndarray]:
        u = np.where(self._m3(state.u), state.u + state.ubar[None], 0.0)
        v = np.where(self._m3(state.v), state.v + state.vbar[None], 0.0)
        return u, v

    def baroclinic_pressure_gradient(self, temp, salt):
        """(-1/rho0) grad of hydrostatic pressure from density anomalies."""
        g = self.grid
        rho = np.where(self._m3(temp), density_anomaly(temp, salt, 0.0), 0.0)
        # Pressure at layer centers: integrate rho from the surface down.
        wdz = rho * g.dz.reshape((-1,) + (1,) * (rho.ndim - 1))
        p_above = np.cumsum(wdz, axis=0) - wdz          # full layers above
        p = GRAVITY * (p_above + 0.5 * wdz)
        ws = get_workspace()
        pgx = ws.empty_like("ocean.pgx", p)
        pgy = ws.empty_like("ocean.pgy", p)
        for k, st in enumerate(self.stencils):
            pgx[k] = st.ddx(p[k], g.dx, centered_only=True)
            pgy[k] = st.ddy(p[k], g.dy, centered_only=True)
        np.negative(pgx, out=pgx)
        pgx /= RHO_SEAWATER
        np.negative(pgy, out=pgy)
        pgy /= RHO_SEAWATER
        return pgx, pgy

    def vertical_velocity(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """w at layer *tops* (positive up), from discrete continuity, w=0 at bottom.

        Uses the same flux-divergence stencil as the tracer advection so a
        constant tracer is exactly preserved.
        """
        g = self.grid
        ws = get_workspace()
        div = ws.empty_like("ocean.div", u)
        for k, st in enumerate(self.stencils):
            div[k] = st.flux_divergence(u[k], v[k], g.dx, g.dy)
        # integrate from the bottom: w_top(k) = w_top(k+1) - dz_k div_k
        # (w_top is a workspace buffer: each internal substep consumes it
        # fully before the next call refills it).
        w_top = ws.empty_like("ocean.w_top", u)
        acc = ws.zeros_like("ocean.w_acc", u[0])
        for k in range(g.nlev - 1, -1, -1):
            acc -= g.dz[k] * div[k]
            w_top[k] = acc
        return w_top

    def advect_tracer_vertical(self, tracer: np.ndarray, w_top: np.ndarray
                               ) -> np.ndarray:
        """Tendency -w dC/dz, advective form (the *fast*, wave-carrying part).

        This term couples the velocity field back into the density field —
        it carries the internal gravity and near-inertial waves — so the
        model evaluates it inside the subcycled internal loop, exactly the
        paper's "fastest parts of the internal dynamics".  ``w_top`` holds
        the upward velocity at layer tops (zero at the surface and floor by
        construction); gradients across inactive interfaces are dropped.
        """
        g = self.grid
        # dC/d(depth) at interior interfaces (between layer k-1 and k).
        dzi = (g.z_full[1:] - g.z_full[:-1]).reshape(
            (-1,) + (1,) * (tracer.ndim - 1))
        grad = (tracer[1:] - tracer[:-1]) / dzi           # dC/d(depth)
        m3 = self._m3(tracer)
        open_if = m3[:-1] & m3[1:]
        grad = np.where(open_if, grad, 0.0)
        # w dC/dz = -w dC/d(depth); average the two interface contributions.
        contrib = w_top[1:] * grad                        # at interfaces
        tend = get_workspace().zeros_like("ocean.adv_tend", tracer)
        tend[:-1] += 0.5 * contrib
        tend[1:] += 0.5 * contrib
        return np.where(m3, tend, 0.0)

    # ------------------------------------------------------------------
    # the triple-rate step
    # ------------------------------------------------------------------
    @profiled("ocean.step")
    def step(self, state: OceanState, forcing: OceanForcing) -> OceanState:
        """Advance one long (coupling) step using the three-rate scheme.

        One forward pass of the *baroclinic* fields (u, v, T, S) — slow
        terms once, fast internal terms subcycled forward-backward
        (:meth:`_advance`; no predictor-corrector wraps it) — then the
        *barotropic* subsystem steps exactly once through its own stable
        forward-backward subcycle, driven by the depth-mean forcing that
        pass diagnosed.
        """
        out, gxy = self._advance(state, forcing)
        out.eta, out.ubar, out.vbar, _ = self.baro.step(
            state.eta, state.ubar, state.vbar, gxy[0], gxy[1],
            self.params.dt_long)
        with profile_section("ocean.polar_filter"):
            for name in ("eta", "ubar", "vbar"):
                setattr(out, name, self.filter2d(getattr(out, name)))
        out.time = state.time + self.params.dt_long
        return out

    def _advance(self, state: OceanState, forcing: OceanForcing
                 ) -> tuple[OceanState, tuple[np.ndarray, np.ndarray]]:
        """The baroclinic pass of the three-rate update.

        Returns the advanced state and the time-mean depth-averaged
        accelerations (gx, gy) that force the barotropic subsystem.
        """
        p = self.params
        g = self.grid
        s = state.copy()
        dt_long = p.dt_long
        dt_int = dt_long / p.n_internal

        # ---- slow terms, once per long step -----------------------------
        with profile_section("ocean.advection"):
            u_tot, v_tot = self.total_velocity(s)
            m3 = self._m3(s.u)
            # One level at a time: a level's temporaries stay in cache, a
            # whole column's do not (DESIGN.md "Ocean step cost structure").
            for k, st in enumerate(self.stencils):
                # Horizontal advection -(u dC/dx + v dC/dy) in *advective*
                # form, pairing with the advective-form vertical term of
                # the internal loop so that a spatially constant tracer is
                # exactly invariant — the split-rate analogue of discrete
                # flux consistency.  (A flux-form split would leave an
                # uncancelled C div(u) term on one of the two rates, which
                # grows with the Celsius offset of T and is violently
                # unstable in shallow polar channels.)
                for f3 in (s.temp, s.salt, s.u, s.v):
                    f3[k] += dt_long * st.advect_centered(
                        f3[k], u_tot[k], v_tot[k], g.dx, g.dy)
                # del^4 dissipation (A-grid mode control) on all prognostic
                # fields, plus harmonic eddy viscosity on momentum.
                for f3 in (s.u, s.v, s.temp, s.salt):
                    f3[k] -= dt_long * self.a4 * st.biharmonic(f3[k], g.dx, g.dy)
                for f3 in (s.u, s.v):
                    f3[k] += dt_long * self.a2 * st.laplacian(f3[k], g.dx, g.dy)

        # Vertical mixing (PP81 steepened) + surface fluxes, implicit.
        with profile_section("ocean.mixing"):
            n_sq = buoyancy_frequency_sq(s.temp, s.salt, g.z_full)
            ri = richardson_number(s.u, s.v, n_sq, g.z_full)
            nu, kappa = pp_viscosity(ri, p.mixing)
            heat_in = forcing.heat_flux / (RHO_SEAWATER * CP_SEAWATER)   # K m/s
            # Virtual salt flux: fresh water dilutes surface salinity.
            salt_in = -forcing.freshwater * p.reference_salinity / RHO_SEAWATER
            s.temp = mix_column_implicit(s.temp, kappa, g.dz, dt_long, heat_in,
                                         mask=m3)
            s.salt = mix_column_implicit(s.salt, kappa, g.dz, dt_long, salt_in,
                                         mask=m3)
            s.u = mix_column_implicit(s.u, nu, g.dz, dt_long,
                                      forcing.taux / RHO_SEAWATER, mask=m3)
            s.v = mix_column_implicit(s.v, nu, g.dz, dt_long,
                                      forcing.tauy / RHO_SEAWATER, mask=m3)
            s.temp, s.salt = convective_adjustment(s.temp, s.salt, g.z_full, g.dz,
                                                   mask=m3)

        # The paper's sea-surface clamp at -1.92 C (ice formation handles the rest).
        s.temp[0] = np.where(self.mask2d, np.maximum(s.temp[0], p.sst_clamp), 0.0)

        # Mask everything that may have leaked onto land.
        for name in ("u", "v", "temp", "salt"):
            setattr(s, name, np.where(m3, getattr(s, name), 0.0))

        # ---- fast internal terms, subcycled -------------------------------
        # Forward-backward pairing: density (via vertical advection of the
        # stratification) first, then the pressure gradient from the *new*
        # density — the neutral integration of the internal-wave loop.
        ws = get_workspace()
        fdt = self.policy.float_dtype
        lead = s.u.shape[1:-2]                   # () serial, (nens,) batched
        gx_acc = ws.zeros("ocean.gx_acc", lead + (g.ny, g.nx), fdt)
        gy_acc = ws.zeros("ocean.gy_acc", lead + (g.ny, g.nx), fdt)
        if self._rot_dt != dt_int:
            self._rot_dt = dt_int
            self._cosf = np.cos(g.f * dt_int)[None]
            self._sinf = np.sin(g.f * dt_int)[None]
        cosf, sinf = self._cosf, self._sinf
        with profile_section("ocean.baroclinic"):
            for _ in range(p.n_internal):
                w_top = self.vertical_velocity(s.u, s.v)
                s.temp = s.temp + dt_int * self.advect_tracer_vertical(s.temp, w_top)
                s.salt = s.salt + dt_int * self.advect_tracer_vertical(s.salt, w_top)
                pgx, pgy = self.baroclinic_pressure_gradient(s.temp, s.salt)
                # Exact Coriolis rotation of the baroclinic shear.
                u_rot = s.u * cosf + s.v * sinf
                v_rot = -s.u * sinf + s.v * cosf
                s.u = u_rot + dt_int * pgx
                s.v = v_rot + dt_int * pgy
                # Project out the depth mean; it belongs to the barotropic mode.
                s.u, gu = self.remove_depth_mean(s.u)
                s.v, gv = self.remove_depth_mean(s.v)
                gx_acc += gu / dt_int
                gy_acc += gv / dt_int

        # Time-mean depth-averaged acceleration over the long step, plus the
        # depth-mean wind stress: this is what drives the 2-D subsystem.
        gx = gx_acc / p.n_internal + np.where(
            self.mask2d, forcing.taux / (RHO_SEAWATER * self.coldepth), 0.0)
        gy = gy_acc / p.n_internal + np.where(
            self.mask2d, forcing.tauy / (RHO_SEAWATER * self.coldepth), 0.0)

        # ---- polar filter (baroclinic fields, 3-D mask-aware) ---------------
        with profile_section("ocean.polar_filter"):
            for name in ("temp", "salt", "u", "v"):
                setattr(s, name,
                        np.where(m3, self.filter3d(getattr(s, name)), 0.0))

        s.time = state.time + dt_long
        self.op_count += self._ops_per_step()
        return s, (gx, gy)

    # ------------------------------------------------------------------
    def _ops_per_step(self) -> int:
        """Rough floating-point op count of one long step (for the cost model)."""
        n_int = self.params.n_internal
        return (250 * self._n3              # advection + dissipation + mixing
                + n_int * 60 * self._n3     # fast internal terms
                + n_int * self._nsub * 30 * self._n2)   # barotropic subcycle

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def sst(self, state: OceanState) -> np.ndarray:
        """Sea surface temperature (deg C), NaN on land."""
        return np.where(self.mask2d, state.temp[0], np.nan)

    def _cell_volumes(self, field3d: np.ndarray) -> np.ndarray:
        """Active cell volumes (m^3), viewed like :meth:`_m3`."""
        return self._dz3(field3d) * self.grid.cell_areas()

    @staticmethod
    def _member_sum(cells: np.ndarray):
        """Sum over (level, y, x): a float for a serial ``(L, ny, nx)``
        field, ``(nens,)`` for a batched ``(L, E, ny, nx)`` one.  Each
        member's cells are summed as one contiguous run, so a batched value
        equals that member's serial value bit for bit."""
        cells = np.moveaxis(cells, 0, -3)
        total = np.sum(cells.reshape(cells.shape[:-3] + (-1,)), axis=-1)
        return float(total) if total.ndim == 0 else total

    def _volume_mean(self, field3d: np.ndarray):
        vol = self._cell_volumes(field3d)
        return self._member_sum(field3d * vol) / float(np.sum(vol))

    def mean_temperature(self, state: OceanState):
        """Volume-mean temperature: a float, or ``(nens,)`` when batched."""
        return self._volume_mean(state.temp)

    def mean_salinity(self, state: OceanState):
        """Volume-mean salinity: a float, or ``(nens,)`` when batched."""
        return self._volume_mean(state.salt)

    def total_kinetic_energy(self, state: OceanState):
        """Kinetic energy (J): a float, or ``(nens,)`` when batched."""
        u, v = self.total_velocity(state)
        return 0.5 * RHO_SEAWATER * self._member_sum(
            (u**2 + v**2) * self._cell_volumes(u))

    def run(self, state: OceanState, nsteps: int,
            forcing: OceanForcing | None = None) -> OceanState:
        if forcing is None:
            forcing = OceanForcing.zeros(self.grid.ny, self.grid.nx)
        for _ in range(nsteps):
            state = self.step(state, forcing)
        return state
