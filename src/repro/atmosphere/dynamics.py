"""Semi-implicit spectral primitive-equation dynamical core (PCCM2 lineage).

Solves the dry adiabatic primitive equations in vorticity-divergence form on
sigma levels, the formulation of Bourke (1974) / Hoskins & Simmons (1975)
that the NCAR CCM series (and hence FOAM's atmosphere) descends from:

* prognostic spectral fields: relative vorticity ``zeta``, divergence ``div``,
  temperature deviation ``T' = T - T_ref``, and log surface pressure ``lnps``;
* grid-space evaluation of all quadratic nonlinear terms (the "transform"
  method), including sigma-coordinate vertical advection and the
  energy-conversion term;
* semi-implicit leapfrog: the linear gravity-wave coupling between ``div``,
  ``T'`` and ``lnps`` is averaged across the leapfrog interval and solved by
  a precomputed per-total-wavenumber (L x L) matrix inverse, which is what
  lets FOAM take 30-minute steps at R15;
* Robert-Asselin time filter and CCM-style del^4 spectral hyperdiffusion;
* grid-space specific humidity ``q`` advected semi-Lagrangially
  (see :mod:`repro.atmosphere.semilag`), as the paper notes PCCM2 does.

Array conventions: grid fields are (nlev, nlat, nlon); spectral fields are
(nlev, nm, nk) complex (lnps: (nm, nk)).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.atmosphere.semilag import advect_semilagrangian
from repro.atmosphere.spectral import SpectralTransform
from repro.atmosphere.vertical import VerticalGrid
from repro.backend import get_workspace
from repro.perf.profiler import profile_section
from repro.util.constants import CP, GRAVITY, KAPPA, OMEGA, P0, RD
from repro.util.tree import tree_map


@dataclass
class AtmosphereState:
    """Prognostic state of the dynamical core (spectral + grid moisture)."""

    vort: np.ndarray    # (L, nm, nk) complex — relative vorticity
    div: np.ndarray     # (L, nm, nk) complex — divergence
    temp: np.ndarray    # (L, nm, nk) complex — T' = T - T_ref
    lnps: np.ndarray    # (nm, nk) complex — ln(ps / P0)
    q: np.ndarray       # (L, nlat, nlon) — specific humidity, grid space
    time: float = 0.0   # seconds since initialization

    def copy(self) -> "AtmosphereState":
        return tree_map(np.ndarray.copy, self)


@dataclass
class GridDiagnostics:
    """The grid fields the column physics and the coupler read (one
    synthesis pass); the dynamics builds its own in ``_dynamics_grid``."""

    u: np.ndarray           # (L, nlat, nlon) zonal wind
    v: np.ndarray           # meridional wind
    temp: np.ndarray        # full temperature T = T_ref + T'
    ps: np.ndarray          # (nlat, nlon) surface pressure, Pa
    pressure: np.ndarray    # (L, nlat, nlon) full-level pressure
    geopotential: np.ndarray  # (L, nlat, nlon), above the surface


def robert_filter(prev: np.ndarray, curr: np.ndarray, new: np.ndarray,
                  filt) -> np.ndarray:
    """``curr + filt * (prev - 2*curr + new)`` as one workspace chain.

    Only the final sum is freshly allocated (it escapes into the filtered
    state); the inner combination lives in a scratch buffer keyed by shape.
    Bitwise identical to the expression form: the ops are the same IEEE
    tree, with the two commuted multiplications (``curr * 2`` for
    ``2 * curr``, ``tmp * filt`` for ``filt * tmp``) exact by IEEE-754
    commutativity.
    """
    tmp = np.multiply(curr, 2.0, out=get_workspace().empty_like("dyn.robert", curr))
    np.subtract(prev, tmp, out=tmp)
    np.add(tmp, new, out=tmp)
    np.multiply(tmp, filt, out=tmp)
    return np.add(curr, tmp)


def _level_columns(field: np.ndarray) -> np.ndarray:
    """Complex ``(L, ..., nm, nk)`` as the real ``(..., nm, nk, L, 2)``
    operand of a level contraction (a shared float64 workspace buffer, dead
    once the contraction returns).  Member and slot are matmul broadcast
    axes, so the GEMM per slot — ``(L x L) @ (L x 2)`` in the semi-implicit
    solve, ``(L,) @ (L x 2)`` in ``_dsig_dot`` — is the one a serial run
    issues, on the same bytes: batched integration is bitwise
    member-at-a-time integration by construction."""
    cols = np.moveaxis(field, 0, -1)
    buf = get_workspace().empty("dyn.level_columns", cols.shape, np.complex128)
    buf[...] = cols
    return buf.view(np.float64).reshape(cols.shape + (2,))


class SpectralDynamicalCore:
    """The atmosphere dynamics engine: owns the transform, vertical grid, stepping."""

    def __init__(self, transform: SpectralTransform, vgrid: VerticalGrid,
                 dt: float = 1800.0, robert: float = 0.04,
                 rotation_factor: float = 1.0):
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        self.tr = transform
        self.vg = vgrid
        self.dt = float(dt)
        # A python float never decides a result dtype (a NumPy scalar would
        # upcast float32/complex64 fields).
        self.robert = float(robert)
        # CCM2 R15 recommended del^4 coefficient scales with resolution
        # (Williamson et al. 1995); tuned so the smallest retained scale
        # damps with an e-folding of ~3 hours.
        nmax = transform.trunc.mmax + transform.trunc.nk - 1
        k4_scale = (nmax * (nmax + 1) / transform.radius**2) ** 2
        self.k4 = float(1.0 / (3.0 * 3600.0 * k4_scale))

        # Coriolis parameter as a grid field; f also enters the vorticity
        # equation through the nonlinear terms only (f itself is Y_1^0).
        # ``rotation_factor`` scales the planetary rotation (1 = Earth;
        # multiplying by exactly 1.0 is bitwise neutral).
        self.rotation_factor = float(rotation_factor)
        self.f_grid = (2.0 * (OMEGA * self.rotation_factor)
                       * transform.mu[:, None]
                       * np.ones((1, transform.nlon))
                       ).astype(transform.policy.float_dtype, copy=False)

        # Semi-implicit solver tables: one (L x L) inverse per total wavenumber.
        self._m_matrix = vgrid.semi_implicit_matrix()
        self._build_implicit_inverses()

    # ------------------------------------------------------------------
    def _build_implicit_inverses(self) -> None:
        """Everything that depends on ``dt``: rebuilt whenever it changes."""
        L = self.vg.nlev
        n_max = self.tr.trunc.mmax + self.tr.trunc.nk - 1
        eye = np.eye(L)
        dt = self.dt
        inv = np.empty((n_max + 1, L, L))
        for n in range(n_max + 1):
            b = n * (n + 1) / self.tr.radius**2
            inv[n] = np.linalg.inv(eye + dt * dt * b * self._m_matrix)
        # Total wavenumber of each (m, k) slot, and each slot's inverse:
        # the (nm, nk, L, L) stack the solve multiplies from the left.
        self._n_of_slot = self.tr.trunc.n_values()
        self._inv = inv[self._n_of_slot]
        # del^4 over the leapfrog interval, applied implicitly to new fields.
        self._hyper_denom = self.tr.damping_denominator(self.k4, 2.0 * dt)

    # ------------------------------------------------------------------
    # state construction
    # ------------------------------------------------------------------
    def initial_state(self, kind: str = "isothermal_rest", seed: int = 0,
                      noise_amplitude: float = 1e-8) -> AtmosphereState:
        """Build an initial state.

        ``isothermal_rest``: T = T_ref, no motion, uniform ps, plus optional
        rotational noise to break symmetry.  ``zonal_jet``: balanced
        midlatitude jets for dynamics tests.
        """
        L = self.vg.nlev
        nm, nk = self.tr.spec_shape
        cdt = self.tr.policy.complex_dtype
        fdt = self.tr.policy.float_dtype
        zero = np.zeros((L, nm, nk), dtype=cdt)
        state = AtmosphereState(
            vort=zero.copy(), div=zero.copy(), temp=zero.copy(),
            lnps=np.zeros((nm, nk), dtype=cdt),
            q=np.zeros((L, self.tr.nlat, self.tr.nlon), dtype=fdt))
        if kind == "isothermal_rest":
            if noise_amplitude > 0:
                rng = np.random.default_rng(seed)
                noise = (rng.normal(size=state.vort.shape)
                         + 1j * rng.normal(size=state.vort.shape)) * noise_amplitude
                noise[:, 0, :] = noise[:, 0, :].real
                state.vort += noise
        elif kind == "zonal_jet":
            # u = u0 sin^2(2 lat)-style jets via zonal vorticity coefficients.
            u0 = 20.0
            u = u0 * np.sin(2.0 * self.tr.lats) ** 2 * np.sign(self.tr.lats)
            ugrid = np.repeat(u[:, None], self.tr.nlon, axis=1)
            state.vort[:], state.div[:] = self.tr.vortdiv_from_uv(
                ugrid, np.zeros_like(ugrid))
        else:
            raise ValueError(f"unknown initial state kind {kind!r}")
        return state

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def diagnose(self, state: AtmosphereState) -> GridDiagnostics:
        """Synthesize the grid fields the physics and coupler read.

        Accepts serial states ((L, nm, nk) spectral fields) and ensemble
        states with a member axis after the level axis ((L, E, nm, nk));
        grid diagnostics then carry the member axis in the same slot.
        """
        fdt = self.tr.policy.float_dtype
        # Whole-(level[, member]) stacks: one transform call per field
        # (leading axes are matmul broadcast axes, so each slice gets the
        # GEMMs of its own serial call).  The returned grids are views of
        # per-call-fresh inverse-FFT outputs, so they escape into
        # GridDiagnostics safely.
        u, v = self.tr.uv_from_vortdiv(state.vort, state.div)
        tg = self.tr.synthesize(state.temp) + self.vg.t_ref
        ps = P0 * np.exp(self.tr.synthesize(state.lnps))
        pressure = self.vg.sigma.reshape((-1,) + (1,) * ps.ndim) * ps[None]
        phi = self.vg.geopotential(tg).astype(fdt, copy=False)
        return GridDiagnostics(u=u, v=v, temp=tg, ps=ps, pressure=pressure,
                               geopotential=phi)

    def _dynamics_grid(self, state: AtmosphereState) -> tuple:
        """The grid fields the nonlinear terms read: ``(u, v, T, zeta, D,
        (d/dx, d/dy) ln ps, v . grad ln ps, omega/p)``, in ``diagnose``'s
        layout and by its expressions."""
        fdt = self.tr.policy.float_dtype
        u, v = self.tr.uv_from_vortdiv(state.vort, state.div)
        tg, zg, dg = self.tr.synthesize_many(state.temp, state.vort, state.div)
        tg = tg + self.vg.t_ref
        px, py = self.tr.gradient(state.lnps)
        vgradp = u * px[None] + v * py[None]
        wop = self.vg.omega_over_p(dg, vgradp).astype(fdt, copy=False)
        return u, v, tg, zg, dg, (px, py), vgradp, wop

    # ------------------------------------------------------------------
    # tendency evaluation (the transform-method nonlinear terms)
    # ------------------------------------------------------------------
    def _nonlinear_tendencies(self, state: AtmosphereState):
        """Explicit (nonlinear) spectral tendencies N_zeta, N_D, N_T, N_pi.

        Returns also the grid winds, which the moisture transport reuses.
        """
        tr, vg = self.tr, self.vg
        with profile_section("atmosphere.rediagnose"):
            u, v, temp, vort, div, (px, py), vgradp, wop = \
                self._dynamics_grid(state)
        tprime = temp - vg.t_ref

        # Continuity: nonlinear part only (the -dsig.D part goes implicit).
        dsig = vg.dsigma.reshape((-1,) + (1,) * (vgradp.ndim - 1))
        npi_grid = -np.sum(dsig * vgradp, axis=0)
        n_pi = tr.analyze(npi_grid)

        sigdot = vg.sigma_dot(div, vgradp)
        du_dsig = vg.vertical_advection(sigdot, u)
        dv_dsig = vg.vertical_advection(sigdot, v)
        dt_dsig = vg.vertical_advection(sigdot, temp)

        absvort = vort + self.f_grid[None]
        fu = absvort * v - du_dsig - RD * tprime * px[None]
        fv = -absvort * u - dv_dsig - RD * tprime * py[None]

        ws = get_workspace()
        # Thermodynamic: advective form + full energy conversion, minus the
        # linear part that the implicit tau matrix will handle.
        # Linearized omega/p keeps only the divergence part:
        wop_lin = vg.omega_over_p(div, ws.zeros_like("dyn.wop_zero", vgradp))
        heating = KAPPA * temp * wop - KAPPA * vg.t_ref * wop_lin

        # Whole-(level[, member]) stacks: one transform call per term,
        # bitwise identical per slice to a per-level loop.
        n_vort, dt_all = tr.vortdiv_from_uv(fu, fv)
        energy = 0.5 * (u ** 2 + v ** 2)
        n_div = dt_all - tr.laplacian(tr.analyze(energy))
        tx, ty = tr.gradient(state.temp)
        adv_t = -(u * tx + v * ty)
        n_temp = tr.analyze(adv_t - dt_dsig + heating)
        return n_vort, n_div, n_temp, n_pi, (u, v)

    # ------------------------------------------------------------------
    # time stepping
    # ------------------------------------------------------------------
    def step(self, prev: AtmosphereState, curr: AtmosphereState
             ) -> tuple[AtmosphereState, AtmosphereState]:
        """One leapfrog step: (t-dt, t) -> (filtered t, t+dt).

        Returns the new (prev, curr) pair; the returned prev is the
        Robert-Asselin-filtered center state.
        """
        dt = self.dt
        with profile_section("atmosphere.nonlinear"):
            n_vort, n_div, n_temp, n_pi, (u, v) = \
                self._nonlinear_tendencies(curr)

        new_vort = prev.vort + 2.0 * dt * n_vort

        with profile_section("atmosphere.implicit"):
            new_div, new_temp, new_lnps = self._implicit_update(
                prev, n_div, n_temp, n_pi)

        # Mixed-precision leakage guard: the float64 implicit solver tables
        # upcast the update under a float32 policy; pin state dtype here.
        cdt = self.tr.policy.complex_dtype
        new_div = new_div.astype(cdt, copy=False)
        new_temp = new_temp.astype(cdt, copy=False)
        new_lnps = new_lnps.astype(cdt, copy=False)

        # del^4 hyperdiffusion, applied implicitly to the new fields.
        with profile_section("atmosphere.hyperdiffusion"):
            for field in (new_vort, new_div, new_temp):
                self._hyperdiffuse(field)

        # Semi-Lagrangian moisture transport on the grid.
        with profile_section("atmosphere.semilag"):
            new_q = advect_semilagrangian(self.tr, u, v, prev.q, 2.0 * dt)

        new = AtmosphereState(new_vort, new_div, new_temp, new_lnps, new_q,
                              time=curr.time + dt)
        # Robert-Asselin filter on every field of the center state (whose
        # time it keeps); only the filtered sums allocate.
        filtered = tree_map(
            lambda c, p, n: robert_filter(p, c, n, self.robert), curr, prev, new)
        return filtered, new

    @staticmethod
    def _dsig_dot(dsig: np.ndarray, field: np.ndarray) -> np.ndarray:
        """Contract the level axis of ``field`` ((L, ...)) with ``dsig`` ((L,))."""
        return np.matmul(dsig, _level_columns(field)).view(np.complex128)[..., 0]

    def _hyperdiffuse(self, spec3: np.ndarray) -> np.ndarray:
        # Every caller passes a freshly built new-time field, so the
        # division can land in place (same op, no temporary).
        return np.divide(spec3, self._hyper_denom, out=spec3)

    def _implicit_update(self, prev: AtmosphereState, n_div, n_temp, n_pi):
        """Semi-implicit solve for divergence, then back-substitute T and lnps."""
        dt = self.dt
        vg, tr = self.vg, self.tr
        g_mat = vg.hydrostatic_matrix()
        tau = vg.energy_conversion_matrix()
        dsig = vg.dsigma
        m_mat = self._m_matrix

        t_star = prev.temp + dt * n_temp                  # (L, nm, nk)
        pi_star = prev.lnps + dt * n_pi                   # (nm, nk)
        # RHS: (I - dt^2 b M) D^- + 2 dt N_D + 2 dt b [G t* + R Tref pi*]
        gt = np.tensordot(g_mat, t_star, axes=(1, 0))
        lin = gt + RD * vg.t_ref * pi_star[None]

        n_vals = self._n_of_slot                          # (nm, nk)
        b = n_vals * (n_vals + 1) / tr.radius**2          # (nm, nk)

        md_prev = np.tensordot(m_mat, prev.div, axes=(1, 0))
        rhs = prev.div + 2.0 * dt * n_div \
            + 2.0 * dt * b[None] * lin \
            - dt * dt * b[None] * md_prev

        # Solve (I + dt^2 b M) D+ = rhs: each slot's inverse times its
        # column of levels, one stacked real matmul.
        new_div = np.empty_like(prev.div)
        new_div[...] = np.moveaxis(
            np.matmul(self._inv, _level_columns(rhs)
                      ).view(np.complex128)[..., 0], -1, 0)

        dbar = 0.5 * (new_div + prev.div)
        new_temp = prev.temp + 2.0 * dt * n_temp \
            - 2.0 * dt * np.tensordot(tau, dbar, axes=(1, 0))
        new_lnps = prev.lnps + 2.0 * dt * n_pi \
            - 2.0 * dt * self._dsig_dot(dsig, dbar)
        return new_div, new_temp, new_lnps

    # ------------------------------------------------------------------
    def run(self, state: AtmosphereState, nsteps: int,
            forcing=None) -> AtmosphereState:
        """Integrate ``nsteps`` leapfrog steps from ``state`` (cold start).

        ``forcing(core, prev, curr) -> None`` may mutate ``curr`` in place
        between steps (used by tests for e.g. Held-Suarez-style relaxation).
        """
        prev = state
        curr = self._forward_start(state)
        for _ in range(nsteps):
            if forcing is not None:
                forcing(self, prev, curr)
            prev, curr = self.step(prev, curr)
        return curr

    def _forward_start(self, state: AtmosphereState) -> AtmosphereState:
        """Half-step Euler start to prime the leapfrog."""
        saved_dt = self.dt
        try:
            self.dt = 0.5 * saved_dt
            self._build_implicit_inverses()
            _, half = self.step(state, state)
        finally:
            self.dt = saved_dt
            self._build_implicit_inverses()
        half.time = state.time + saved_dt
        return half

    # ------------------------------------------------------------------
    # budgets used by tests and diagnostics
    # ------------------------------------------------------------------
    def global_mass(self, state: AtmosphereState):
        """Area-mean surface pressure (Pa): conserved by adiabatic dynamics.

        Like :meth:`total_energy`, a float for a serial state and one value
        per member, ``(nens,)``, for a batched one.
        """
        return self.tr.global_mean(P0 * np.exp(self.tr.synthesize(state.lnps)))

    def total_energy(self, state: AtmosphereState):
        """Column-integrated total (kinetic + internal) energy per unit area."""
        d = self.diagnose(state)
        ke = 0.5 * (d.u**2 + d.v**2)
        ie = CP * d.temp
        col = np.tensordot(self.vg.dsigma, ke + ie, axes=(0, 0)) * d.ps / GRAVITY
        return self.tr.global_mean(col)
