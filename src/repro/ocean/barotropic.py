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
from repro.ocean.operators import Stencil
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

        Returns the new fields and the number of substeps taken.
        """
        n = self.n_substeps(dt_outer)
        dt = dt_outer / n
        gamma = self.params.gamma
        dt_slow = dt / gamma            # the slowed momentum time increment
        drag = self.params.bottom_drag
        m = self.mask
        st = self.stencil
        f = self.grid.f
        # The rotation factors are constant across the subcycle; hoist them.
        cosf = np.cos(f * dt_slow)
        sinf = np.sin(f * dt_slow)
        for _ in range(n):
            # Forward step of the surface (flux form: globally conservative).
            div = st.flux_divergence(self.depth * ubar, self.depth * vbar)
            eta = np.where(m, eta - dt * div, 0.0)
            # Backward step of velocity with the *new* eta (forward-backward).
            # Every momentum term advances with dt/gamma: steady balances are
            # untouched, the adjustment dynamics run gamma times slower.
            detax = st.ddx(eta)
            detay = st.ddy(eta)
            # Exact Coriolis rotation keeps the (slowed) inertial mode neutral.
            u_rot = ubar * cosf + vbar * sinf
            v_rot = -ubar * sinf + vbar * cosf
            # Wave dynamics and forcing run in slowed time; bottom friction
            # stays at the physical rate so transients spin down on the real
            # frictional time scale instead of gamma times slower.
            ubar = u_rot + dt_slow * (-GRAVITY * detax + gx) - dt * drag * u_rot
            vbar = v_rot + dt_slow * (-GRAVITY * detay + gy) - dt * drag * v_rot
            ubar = np.where(m, ubar, 0.0)
            vbar = np.where(m, vbar, 0.0)
        return eta, ubar, vbar, n

    def mean_sea_level(self, eta: np.ndarray) -> float:
        """Area-weighted mean of eta over ocean (conserved by stepping)."""
        areas = self.grid.cell_areas()
        w = np.where(self.mask, areas, 0.0)
        return float(np.sum(eta * w) / np.sum(w))
