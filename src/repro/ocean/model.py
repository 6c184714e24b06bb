"""The FOAM ocean model: z-coordinate primitive equations, triple-rate stepping.

This is the paper's centerpiece claim: *"We believe that the combination of
these techniques yields the most computationally efficient ocean model in
existence ... roughly a tenfold increase in the amount of simulated time
represented per unit of computation."*  The three techniques (paper, "The
FOAM Ocean Model"):

1. artificially slowed explicit free surface (:mod:`repro.ocean.barotropic`);
2. barotropic/baroclinic mode splitting — the 2-D surface system runs its
   own short-step subcycle once per long step, on the depth-mean forcing
   of the internal pass;
3. multi-rate subcycling of the internal dynamics themselves: the *fast*
   internal terms (Coriolis, baroclinic pressure gradient) run on a shorter
   step than the *slow* advective and diffusive terms.

:class:`OceanModel` integrates one coupling interval per :meth:`step` call,
taking the coupler's surface fluxes (stress, heat, fresh water) as boundary
conditions, and exposes SST and budget diagnostics.  The step computes on
the *wet box* — the smallest (levels, rows) box holding every wet cell of
the 3-D mask, found once by the model that owns the mask — in two kinds of
pass: the horizontal operators, which need zonal and meridional
neighbours, run one level at a time (:class:`~repro.ocean.operators.Stencil`),
and everything column-local in the subcycled internal loop (continuity,
vertical advection, the equation of state and pressure integral, the
Coriolis rotation, depth-mean removal) runs over all levels of one block of
latitude rows at a time, in place, so a block's temporaries stay in cache
(DESIGN.md "Ocean step cost structure").  Only the polar filter works on
whole-grid fields.
"""

from __future__ import annotations

import dataclasses
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
from repro.ocean.operators import Stencil, row_plane
from repro.backend import get_workspace
from repro.perf.profiler import profile_section, profiled
from repro.util.constants import (
    CP_SEAWATER,
    GRAVITY,
    RHO_SEAWATER,
    T_FREEZE_SEA,
)
from repro.util.tree import tree_map


# Elements of one field in a latitude-row block of the internal loop: a
# block's dozen temporaries then sit in cache (4-32 rows of the paper grid
# measure alike; whole columns are a quarter slower).
_BLOCK_ELEMENTS = 32768


def member_sum(cells: np.ndarray):
    """Sum over (level, y, x): a float for a serial ``(L, ny, nx)`` field,
    ``(nens,)`` for a batched ``(L, E, ny, nx)`` one.  Each member's cells are
    summed as one contiguous run, so a batched value equals that member's
    serial value bit for bit."""
    cells = np.moveaxis(cells, 0, -3)
    total = np.sum(cells.reshape(cells.shape[:-3] + (-1,)), axis=-1)
    return float(total) if total.ndim == 0 else total


def _lift(static3d: np.ndarray, field3d: np.ndarray) -> np.ndarray:
    """An (L, ny, nx) static viewed to broadcast against ``field3d``.

    Fields are (L, ..., ny, nx) — any member axes sit after the level
    axis — so the static gains one singleton per such axis (none when
    serial).  Always a view.
    """
    return static3d[(slice(None),) + (None,) * (field3d.ndim - 3)]


def _wet_box(mask3d: np.ndarray) -> tuple[int, int, int]:
    """(levels, first row, end row) of the smallest box with every wet cell
    (and two rows at least: the meridional stencils need an edge)."""
    levels = np.flatnonzero(mask3d.any(axis=(1, 2)))
    rows = np.flatnonzero(mask3d.any(axis=(0, 2)))
    if not rows.size:                       # no ocean: nothing to leave out
        return mask3d.shape[0], 0, mask3d.shape[1]
    j0 = min(int(rows[0]), mask3d.shape[1] - 2)
    return int(levels[-1]) + 1, j0, max(int(rows[-1]) + 1, j0 + 2)


class _WetBox:
    """Every static of the step, sliced once to the wet box of a model.

    Outside the box every field is exactly +0.0 (the step masks its
    result), the rows next to it are all land — so the box's wall rows see
    the neighbour masks they saw in the whole grid — and the dry levels
    below it only ever added +0.0 terms to the column sums.
    """

    def __init__(self, model: "OceanModel"):
        g = model.grid
        kw, j0, j1 = _wet_box(model.mask3d)
        self.index = np.s_[:kw, ..., j0:j1, :]    # of an (L, ..., ny, nx) field
        self.rows = np.s_[..., j0:j1, :]          # of a (..., ny, nx) field
        self.dx, self.dy, self.f = g.dx[j0:j1], g.dy[j0:j1], g.f[j0:j1]
        self.a4, self.a2 = model.a4[j0:j1], model.a2[j0:j1]
        self.dz, self.z_full = g.dz[:kw], g.z_full[:kw]
        self.mask2d = model.mask2d[j0:j1]
        self.coldepth = model.coldepth[j0:j1]
        self.mask3d = np.ascontiguousarray(model.mask3d[:kw, j0:j1])
        self.dz3d = np.ascontiguousarray(model.dz3d[:kw, j0:j1])
        self.dry = ~self.mask3d
        # Interfaces that touch an inactive cell (the sea floor).
        self.closed = ~(self.mask3d[:-1] & self.mask3d[1:])
        stencil = Stencil.of(self.mask3d, self.dx, self.dy)
        self.stencils = [stencil[k] for k in range(kw)]


@dataclass
class OceanParams:
    """Time stepping rates and dissipation settings."""

    dt_long: float = 6.0 * 3600.0        # advective/diffusive (coupling) step
    n_internal: int = 6                  # internal (fast) substeps per long step
    biharmonic_coeff: float | None = None  # m^4/s; resolution-scaled if None
    barotropic: BarotropicParams = field(default_factory=BarotropicParams)
    mixing: PPMixingParams = field(default_factory=PPMixingParams)
    polar_filter_lat: float = 60.0
    sst_clamp: float = T_FREEZE_SEA - 273.15   # deg C: the paper's -1.92 clamp
    reference_salinity: float = 34.7

    def __post_init__(self):
        # A python float never decides a result dtype (a NumPy scalar would
        # upcast float32 fields).
        self.sst_clamp = float(self.sst_clamp)


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
        # The masks never change: the polar-filter plans and, below, the wet
        # box with its per-level stencils are built here, once.
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
        self.box = _WetBox(self)
        self.op_count = 0   # crude operation counter for the cost model
        self._n3 = int(self.mask3d.sum())
        self._n2 = int(self.mask2d.sum())

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
    def total_velocity(self, state: OceanState) -> tuple[np.ndarray, np.ndarray]:
        m3 = _lift(self.mask3d, state.u)
        u = np.where(m3, state.u + state.ubar[None], 0.0)
        v = np.where(m3, state.v + state.vbar[None], 0.0)
        return u, v

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
        out.eta, out.ubar, out.vbar, n_baro = self.baro.step(
            state.eta, state.ubar, state.vbar, gxy[0], gxy[1],
            self.params.dt_long)
        with profile_section("ocean.polar_filter"):
            # In place: the solver's results are fresh arrays.
            for name in ("eta", "ubar", "vbar"):
                self.filter2d(getattr(out, name))
        out.time = state.time + self.params.dt_long
        self.op_count += self._ops_per_step(n_baro)
        return out

    def _advance(self, state: OceanState, forcing: OceanForcing
                 ) -> tuple[OceanState, tuple[np.ndarray, np.ndarray]]:
        """The baroclinic pass of the three-rate update.

        Returns the advanced state and the time-mean depth-averaged
        accelerations (gx, gy) that force the barotropic subsystem.
        """
        p = self.params
        g = self.grid
        b = self.box
        dt_long = p.dt_long
        dt_int = dt_long / p.n_internal
        # The wet box of the four 3-D fields, as contiguous copies.
        u, v, temp, salt = (getattr(state, name)[b.index].copy()
                            for name in ("u", "v", "temp", "salt"))
        wet, dry = _lift(b.mask3d, u), _lift(b.dry, u)
        # Per-row factors as (rows, nx) planes.  They depend on the step
        # lengths, which ConventionalOceanModel rewrites between calls, so
        # they are built per call.
        dt_a4, dt_a2 = (row_plane(dt_long * a, g.nx) for a in (b.a4, b.a2))
        cosf, sinf = (row_plane(rot(b.f * dt_int), g.nx)
                      for rot in (np.cos, np.sin))

        # ---- slow terms, once per long step -----------------------------
        with profile_section("ocean.advection"):
            u_tot = u + state.ubar[b.rows][None]
            v_tot = v + state.vbar[b.rows][None]
            np.copyto(u_tot, 0.0, where=dry)
            np.copyto(v_tot, 0.0, where=dry)
            # One level at a time: a level's temporaries stay in cache, a
            # whole column's do not (DESIGN.md "Ocean step cost structure").
            for k, st in enumerate(b.stencils):
                # Horizontal advection -(u dC/dx + v dC/dy) in *advective*
                # form, pairing with the advective-form vertical term of
                # the internal loop so that a spatially constant tracer is
                # exactly invariant — the split-rate analogue of discrete
                # flux consistency.  (A flux-form split would leave an
                # uncancelled C div(u) term on one of the two rates, which
                # grows with the Celsius offset of T and is violently
                # unstable in shallow polar channels.)
                for f3 in (temp, salt, u, v):
                    f3[k] += st.advect_centered(f3[k], u_tot[k], v_tot[k],
                                                dt_long)
                # del^4 dissipation (A-grid mode control) on all prognostic
                # fields, plus harmonic eddy viscosity on momentum.  The
                # operators return fresh arrays in the fields' dtype, which
                # the planes share: scaled in place.
                for f3 in (u, v, temp, salt):
                    bih = st.biharmonic(f3[k])
                    bih *= dt_a4
                    f3[k] -= bih
                for f3 in (u, v):
                    lap = st.laplacian(f3[k])
                    lap *= dt_a2
                    f3[k] += lap

        # Vertical mixing (PP81 steepened) + surface fluxes, implicit: one
        # elimination for (T, S), which share kappa, one for (u, v) and nu.
        with profile_section("ocean.mixing"):
            n_sq = buoyancy_frequency_sq(temp, salt, b.z_full)
            ri = richardson_number(u, v, n_sq, b.z_full)
            nu, kappa = pp_viscosity(ri, p.mixing)
            heat_in = forcing.heat_flux[b.rows] / (RHO_SEAWATER * CP_SEAWATER)  # K m/s
            # Virtual salt flux: fresh water dilutes surface salinity.
            salt_in = (-forcing.freshwater[b.rows] * p.reference_salinity
                       / RHO_SEAWATER)
            temp, salt = mix_column_implicit(
                (temp, salt), kappa, b.dz, dt_long, (heat_in, salt_in), mask=wet)
            u, v = mix_column_implicit(
                (u, v), nu, b.dz, dt_long,
                (forcing.taux[b.rows] / RHO_SEAWATER,
                 forcing.tauy[b.rows] / RHO_SEAWATER), mask=wet)
            temp, salt = convective_adjustment(temp, salt, b.z_full, b.dz,
                                               mask=wet)

        # The paper's sea-surface clamp at -1.92 C (ice formation handles the rest).
        temp[0] = np.where(b.mask2d, np.maximum(temp[0], p.sst_clamp), 0.0)

        # Mask everything that may have leaked onto land (and make the
        # stacked solves' strided views contiguous again).
        u, v, temp, salt = (np.where(wet, f3, 0.0) for f3 in (u, v, temp, salt))

        # ---- fast internal terms, subcycled -------------------------------
        # Forward-backward pairing: density (via vertical advection of the
        # stratification) first, then the pressure gradient from the *new*
        # density — the neutral integration of the internal-wave loop.
        ws = get_workspace()
        fdt = self.policy.float_dtype
        kw, lead, nyb = u.shape[0], u.shape[1:-2], u.shape[-2]
        gx_acc = ws.zeros("ocean.gx_acc", lead + (g.ny, g.nx), fdt)
        gy_acc = ws.zeros("ocean.gy_acc", lead + (g.ny, g.nx), fdt)
        dzdiv, pres, pgx, pgy = (ws.empty_like("ocean." + name, u)
                                 for name in ("dzdiv", "p", "pgx", "pgy"))
        # Column-local work runs on blocks of latitude rows, all levels and
        # members of a block at once, in place on three block-sized buffers:
        # (rows of the box fields, the buffers cut to as many rows) per block.
        n = min(nyb, max(1, _BLOCK_ELEMENTS // (u.size // nyb)))
        scratch = [ws.empty("ocean.block%d" % i, (kw,) + lead + (n, g.nx), u.dtype)
                   for i in range(3)]
        blocks = [(np.s_[..., j:j + n, :],
                   [buf[..., :min(n, nyb - j), :] for buf in scratch])
                  for j in range(0, nyb, n)]
        dz3, closed = _lift(b.dz3d, u), _lift(b.closed, u)
        dz = _lift(b.dz[:, None, None], u)
        dzi = _lift((b.z_full[1:] - b.z_full[:-1])[:, None, None], u)
        with profile_section("ocean.baroclinic"):
            for _ in range(p.n_internal):
                # Continuity uses the same flux-divergence stencil as the
                # tracer advection, so a constant tracer is exactly preserved.
                for k, st in enumerate(b.stencils):
                    np.multiply(st.flux_divergence(u[k], v[k]),
                                b.dz[k], out=dzdiv[k])
                for r, (w, tend, grad) in blocks:
                    # w at layer tops (positive up), w = 0 at the floor:
                    # w_top(k) = w_top(k+1) - dz_k div_k.  w_top(0) is unused.
                    thin = dzdiv[r]
                    np.subtract(0.0, thin[-1], out=w[-1])
                    for k in range(kw - 2, 0, -1):
                        np.subtract(w[k + 1], thin[k], out=w[k])
                    # -w dC/dz in advective form: the fast, wave-carrying
                    # part that couples velocity back into density.  dC/d(depth)
                    # at interior interfaces, dropped across the sea floor;
                    # each layer takes half of its two interfaces' w dC/dz.
                    # The floor mask and the 1/2 go on w, once for both
                    # tracers: x (w/2) is (x w)/2 (a halving is exact short
                    # of the subnormal range), and a zero product's sign,
                    # the one bit that differs from zeroing x, is cleared
                    # by the + 0.0 below.
                    w_half = w[1:]
                    np.copyto(w_half, 0.0, where=closed[r])
                    w_half *= 0.5
                    half = grad[:-1]
                    for c in (temp[r], salt[r]):
                        np.subtract(c[1:], c[:-1], out=half)
                        half /= dzi
                        half *= w_half
                        # No dry mask: both interfaces of a dry cell are
                        # closed, so its tend is +0.0 + (+-0.0) = +0.0.
                        np.add(half, 0.0, out=tend[:-1])
                        tend[-1] = 0.0
                        tend[1:] += half
                        tend *= dt_int
                        c += tend
                    # Hydrostatic pressure at layer centers from the density
                    # anomaly (into the spent w and grad buffers): the full
                    # layers above plus half of this one.
                    # The pressure of a dry cell is never read (the
                    # centered gradient is zero wherever a neighbour is
                    # dry, and a wet cell has only wet cells above it), so
                    # the dry cells' density is not zeroed.
                    rho = density_anomaly(temp[r], salt[r], 0.0, out=(w, grad))
                    rho *= dz
                    above = tend
                    above[0] = rho[0]
                    for k in range(1, kw):          # cumsum, level by level
                        np.add(above[k - 1], rho[k], out=above[k])
                    above -= rho
                    rho *= 0.5
                    above += rho
                    np.multiply(above, GRAVITY, out=pres[r])
                # dt (-1/rho0) grad p, centered only: see Stencil.ddx.  The
                # sign rides on dt: negation commutes exactly with a rounded
                # quotient and product.
                for k, st in enumerate(b.stencils):
                    for pg, d in ((pgx, st.ddx(pres[k], centered_only=True)),
                                  (pgy, st.ddy(pres[k], centered_only=True))):
                        d /= RHO_SEAWATER
                        np.multiply(d, -dt_int, out=pg[k])
                for r, (rot_u, rot_v, tmp) in blocks:
                    # Exact Coriolis rotation of the baroclinic shear:
                    # (-u) sin + v cos is v cos - u sin, bit for bit.
                    np.multiply(u[r], cosf[r], out=rot_u)
                    np.multiply(v[r], sinf[r], out=tmp)
                    rot_u += tmp
                    np.multiply(v[r], cosf[r], out=rot_v)
                    np.multiply(u[r], sinf[r], out=tmp)
                    rot_v -= tmp
                    for vel, new, pg, acc in ((u, rot_u, pgx, gx_acc),
                                              (v, rot_v, pgy, gy_acc)):
                        new += pg[r]
                        # Project out the depth mean; it belongs to the
                        # barotropic mode.
                        np.multiply(new, dz3[r], out=tmp)
                        mean = np.sum(tmp, axis=0)
                        mean /= b.coldepth[r]
                        new -= mean
                        # The dry cells of u and v are +0.0 and stay so.
                        np.copyto(vel[r], new, where=wet[r])
                        mean /= dt_int
                        acc[b.rows][r] += mean

        # Time-mean depth-averaged acceleration over the long step, plus the
        # depth-mean wind stress: this is what drives the 2-D subsystem.
        gx = gx_acc / p.n_internal + np.where(
            self.mask2d, forcing.taux / (RHO_SEAWATER * self.coldepth), 0.0)
        gy = gy_acc / p.n_internal + np.where(
            self.mask2d, forcing.tauy / (RHO_SEAWATER * self.coldepth), 0.0)

        # ---- polar filter (baroclinic fields, 3-D mask-aware) ---------------
        # On the whole grid, planned from the whole mask: zero-filled, the box
        # copied in, filtered in place.  Every dry cell of the box fields is
        # +0.0 and the filter leaves dry cells alone, so the result needs no
        # masking.  The rest of the state (eta, ubar, vbar, which ``step``
        # then replaces, and any field a subclass adds) is carried along as a
        # copy.
        out = dataclasses.replace(state, u=None, v=None, temp=None,
                                  salt=None, time=state.time + dt_long).copy()
        with profile_section("ocean.polar_filter"):
            for name, f3 in zip(("u", "v", "temp", "salt"), (u, v, temp, salt)):
                full = np.zeros(state.u.shape, f3.dtype)
                full[b.index] = f3
                setattr(out, name, self.filter3d(full))
        return out, (gx, gy)

    # ------------------------------------------------------------------
    def _ops_per_step(self, n_baro: int) -> int:
        """Rough floating-point op count of one long step (for the cost
        model) whose barotropic subcycle took ``n_baro`` substeps."""
        return (250 * self._n3              # advection + dissipation + mixing
                + self.params.n_internal * 60 * self._n3   # fast internal terms
                + n_baro * 30 * self._n2)   # barotropic subcycle

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def sst(self, state: OceanState) -> np.ndarray:
        """Sea surface temperature (deg C), NaN on land."""
        return np.where(self.mask2d, state.temp[0], np.nan)

    def _cell_volumes(self, field3d: np.ndarray) -> np.ndarray:
        """Active cell volumes (m^3), viewed to broadcast against the field."""
        return _lift(self.dz3d, field3d) * self.grid.cell_areas()

    def _volume_mean(self, field3d: np.ndarray):
        vol = self._cell_volumes(field3d)
        return member_sum(field3d * vol) / float(np.sum(vol))

    def mean_temperature(self, state: OceanState):
        """Volume-mean temperature: a float, or ``(nens,)`` when batched."""
        return self._volume_mean(state.temp)

    def mean_salinity(self, state: OceanState):
        """Volume-mean salinity: a float, or ``(nens,)`` when batched."""
        return self._volume_mean(state.salt)

    def total_kinetic_energy(self, state: OceanState):
        """Kinetic energy (J): a float, or ``(nens,)`` when batched."""
        u, v = self.total_velocity(state)
        return 0.5 * RHO_SEAWATER * member_sum(
            (u**2 + v**2) * self._cell_volumes(u))

    def heat_content(self, state: OceanState):
        """Heat content relative to 0 C (J): a float, or ``(nens,)`` batched."""
        return RHO_SEAWATER * CP_SEAWATER * member_sum(
            state.temp * self._cell_volumes(state.temp))

    def run(self, state: OceanState, nsteps: int,
            forcing: OceanForcing | None = None) -> OceanState:
        if forcing is None:
            forcing = OceanForcing.zeros(self.grid.ny, self.grid.nx,
                                         dtype=self.policy.float_dtype)
        for _ in range(nsteps):
            state = self.step(state, forcing)
        return state
