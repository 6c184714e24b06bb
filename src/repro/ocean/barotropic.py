"""The split, artificially slowed barotropic (free-surface) subsystem.

Two of the paper's three ocean speedup techniques live here:

1. *Slowed free surface* — "the free surface is explicitly represented, but
   its dynamics are artificially slowed, an approach which has been shown to
   make little difference to the internal motions" (Tobis 1996; Tobis &
   Anderson 1997).  The whole barotropic momentum tendency is divided by
   ``gamma = 1/slow_factor**2``: every *steady* balance (geostrophy, Sverdrup,
   the equilibrium sea surface height) is exactly unchanged, but the mode's
   adjustment — the external gravity wave — propagates ``slow_factor`` times
   slower, relaxing the CFL limit by the same factor.  This is the essential
   trick: barotropic adjustment takes hours in nature and days in the slowed
   model, both negligible against the decadal dynamics of interest.

2. *Mode splitting* — "the still relatively fast ... free surface is modeled
   as a separate two-dimensional system coupled to the internal ocean in a
   way that correctly reproduces the free surface while allowing a much
   longer time step in the internal ocean" (Killworth et al. 1991).  The 2-D
   system runs once per long step, after the baroclinic pass, as one
   subcycle of its own short steps covering the whole long step, driven by
   the time-mean depth-averaged forcing ``gx, gy`` that pass handed over.

The scheme is forward-backward (eta first, then velocities using the new
eta), the standard choice for explicit free-surface stepping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ocean.grid import OceanGrid
from repro.ocean.operators import Stencil, row_plane
from repro.perf.profiler import profiled
from repro.util.constants import GRAVITY


@dataclass
class BarotropicParams:
    slow_factor: float = 0.1       # external wave speed multiplier (the "slowing")
    bottom_drag: float = 3.0e-6    # s^-1 linear drag (~4 day spin-down)
    cfl_safety: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.slow_factor <= 1.0:
            raise ValueError(f"slow_factor must be in (0, 1], got {self.slow_factor}")

    @property
    def gamma(self) -> float:
        """Inertia multiplier of the barotropic mode (1 = no slowing)."""
        return 1.0 / self.slow_factor**2


class BarotropicSolver:
    """Explicit 2-D free-surface solver on the ocean A-grid."""

    def __init__(self, grid: OceanGrid, depth: np.ndarray, mask: np.ndarray,
                 params: BarotropicParams = BarotropicParams()):
        self.grid = grid
        self.depth = np.where(mask, np.maximum(depth, 10.0),
                              0.0).astype(grid.policy.float_dtype, copy=False)
        self.mask = mask
        self.stencil = Stencil.of(mask, grid.dx, grid.dy)
        self.dry = ~mask
        self.params = params
        c = np.sqrt(GRAVITY * max(self.depth.max(), 1.0)) * params.slow_factor
        dmin = min(grid.dx.min(), grid.dy.min())
        self.dt_max = params.cfl_safety * dmin / max(c, 1e-6) / np.sqrt(2.0)

    def n_substeps(self, dt_outer: float) -> int:
        """Number of barotropic substeps needed to cover ``dt_outer`` stably."""
        return max(1, int(np.ceil(dt_outer / self.dt_max)))

    @profiled("ocean.barotropic")
    def step(self, eta: np.ndarray, ubar: np.ndarray, vbar: np.ndarray,
             gx: np.ndarray, gy: np.ndarray, dt_outer: float
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
        """Advance (eta, ubar, vbar) by ``dt_outer`` via stable substeps.

        ``gx, gy`` are the depth-averaged accelerations (m/s^2) from the 3-D
        model (wind stress, depth-mean pressure-gradient and Coriolis
        residuals), held constant across the subcycle.

        Returns new fields (the inputs are not written) and the number of
        substeps taken.  The subcycle runs in place on three buffers
        allocated once per call, in the inputs' common dtype; the
        operations and their order are those of the expression each
        comment states.
        """
        n = self.n_substeps(dt_outer)
        dt = dt_outer / n
        gamma = self.params.gamma
        dt_slow = dt / gamma            # the slowed momentum time increment
        dt_drag = dt * self.params.bottom_drag
        st = self.stencil
        # The rotation factors are constant across the subcycle: hoisted,
        # as (ny, nx) planes.
        nx = self.grid.nx
        cosf, sinf = (row_plane(rot(self.grid.f * dt_slow), nx)
                      for rot in (np.cos, np.sin))
        dtype = np.result_type(eta, ubar, vbar, gx, gy, self.depth, cosf)
        eta, ubar, vbar = (np.array(a, dtype=dtype) for a in (eta, ubar, vbar))
        # Depth-weighted velocities, then (spent) the rotated ones; scratch.
        hu, hv, tmp = (np.empty_like(ubar) for _ in range(3))
        for _ in range(n):
            # Forward step of the surface (flux form: globally conservative):
            # eta = where(mask, eta - dt * div(depth * ubar, depth * vbar), 0).
            np.multiply(self.depth, ubar, out=hu)
            np.multiply(self.depth, vbar, out=hv)
            div = st.flux_divergence(hu, hv)
            div *= dt
            np.subtract(eta, div, out=eta)
            np.copyto(eta, 0.0, where=self.dry)
            # Backward step of velocity with the *new* eta (forward-backward).
            # Every momentum term advances with dt/gamma: steady balances are
            # untouched, the adjustment dynamics run gamma times slower.
            detax = st.ddx(eta)
            detay = st.ddy(eta)
            # Exact Coriolis rotation keeps the (slowed) inertial mode
            # neutral: u_rot = ubar cosf + vbar sinf,
            # v_rot = (-ubar) sinf + vbar cosf = vbar cosf - ubar sinf.
            u_rot, v_rot = hu, hv
            np.multiply(ubar, cosf, out=u_rot)
            np.multiply(vbar, sinf, out=tmp)
            u_rot += tmp
            np.multiply(vbar, cosf, out=v_rot)
            np.multiply(ubar, sinf, out=tmp)
            v_rot -= tmp
            # Wave dynamics and forcing run in slowed time; bottom friction
            # stays at the physical rate so transients spin down on the real
            # frictional time scale instead of gamma times slower:
            # vel = where(mask, rot + dt_slow * (-g * deta + g_forcing)
            #                   - (dt * drag) * rot, 0).
            for vel, rot, deta, g in ((ubar, u_rot, detax, gx),
                                      (vbar, v_rot, detay, gy)):
                deta *= -GRAVITY
                deta += g
                deta *= dt_slow
                deta += rot
                rot *= dt_drag
                np.subtract(deta, rot, out=vel)
                np.copyto(vel, 0.0, where=self.dry)
        return eta, ubar, vbar, n

    def mean_sea_level(self, eta: np.ndarray) -> float:
        """Area-weighted mean of eta over ocean (conserved by stepping)."""
        areas = self.grid.cell_areas()
        w = np.where(self.mask, areas, 0.0)
        return float(np.sum(eta * w) / np.sum(w))
