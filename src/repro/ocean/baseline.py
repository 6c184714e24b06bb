"""Conventional ocean baseline: FOAM's speedups disabled (ablation reference).

The paper claims FOAM's ocean needs ~10x fewer floating-point operations per
simulated time than "other state-of-the-art ocean models".  This baseline
quantifies that statement: the same physics, but

* the free surface is **not** slowed (full gravity-wave speed), and
* there is **no** mode splitting or subcycling — *everything*, 3-D fields
  included, advances together at the shortest stable step, the way a naive
  explicit free-surface primitive-equation code must.

The op-count ratio baseline/FOAM is experiment E9's headline number.
"""

from __future__ import annotations

import numpy as np

from repro.ocean.barotropic import BarotropicParams
from repro.ocean.grid import OceanGrid
from repro.ocean.model import OceanForcing, OceanModel, OceanParams, OceanState


class ConventionalOceanModel(OceanModel):
    """Same equations as :class:`OceanModel`, single-rate unslowed stepping."""

    def __init__(self, grid: OceanGrid, land_mask=None, depth=None,
                 params: OceanParams | None = None):
        params = params or OceanParams()
        # Disable the slowing; the barotropic CFL then sets the global step.
        params.barotropic = BarotropicParams(
            slow_factor=1.0,
            bottom_drag=params.barotropic.bottom_drag,
            cfl_safety=params.barotropic.cfl_safety)
        super().__init__(grid, land_mask, depth, params)
        # The unsplit model's single step: the barotropic CFL limit.
        self.dt_single = self.baro.dt_max

    def steps_per_long(self) -> int:
        """How many single-rate steps cover one FOAM long step."""
        return max(1, int(np.ceil(self.params.dt_long / self.dt_single)))

    def step(self, state: OceanState, forcing: OceanForcing) -> OceanState:
        """March the whole model at the barotropic CFL step (no splitting).

        Physics outcome matches the split model closely (it solves the same
        equations); the point is the *cost*: every 3-D term is evaluated at
        the 2-D system's tiny step.
        """
        n = self.steps_per_long()
        # Evaluate every term (3-D advection, dissipation, mixing, pressure
        # gradients) n times instead of FOAM's 1 (slow) / n_internal (fast)
        # split.  We reuse the split infrastructure with dt_long shrunk and
        # subcycling turned off so the physics stays identical.
        saved = (self.params.dt_long, self.params.n_internal)
        self.params.dt_long = saved[0] / n
        self.params.n_internal = 1
        try:
            for _ in range(n):
                state = super().step(state, forcing)
        finally:
            self.params.dt_long, self.params.n_internal = saved
        return state
