"""Slab (mixed-layer) ocean: a motionless heat reservoir under the coupler.

The classic cheap lower boundary for atmosphere-focused experiments: the
ocean is a fixed-depth mixed layer whose temperature integrates the net
surface heat flux, with the paper's -1.92 C clamp (sea-ice formation takes
over below it).  No currents, no barotropic mode, no tracer transport — one
:meth:`step` costs a handful of 2-D array operations, so slab scenarios run
an order of magnitude faster than the full triple-rate ocean.

:class:`SlabOceanModel` subclasses :class:`~repro.ocean.model.OceanModel`
and keeps its full state/diagnostic interface (same ``OceanState`` shapes,
``sst``, KE/heat-content diagnostics, masks), so the coupler, the batched
ensemble driver, and the concurrent rank pools all drive it unchanged —
``FoamConfig(ocean_mode="slab")`` is the only switch.
"""

from __future__ import annotations

import numpy as np

from repro.ocean.model import OceanForcing, OceanModel, OceanState
from repro.perf.profiler import profiled
from repro.util.constants import CP_SEAWATER, RHO_SEAWATER


class SlabOceanModel(OceanModel):
    """A mixed-layer-only ocean with the OceanModel interface."""

    def __init__(self, *args, mixed_layer_depth: float = 50.0, **kwargs):
        super().__init__(*args, **kwargs)
        if mixed_layer_depth <= 0:
            raise ValueError(f"mixed_layer_depth must be positive, "
                             f"got {mixed_layer_depth}")
        self.mixed_layer_depth = float(mixed_layer_depth)
        # Effective heat-capacity depth per column: the mixed layer, but
        # never deeper than the water column itself (shelves).
        fdt = self.policy.float_dtype
        self._h_eff = np.where(
            self.mask2d,
            np.minimum(self.depth, self.mixed_layer_depth),
            1.0).astype(fdt, copy=False)

    # ------------------------------------------------------------------
    @profiled("ocean.step")
    def step(self, state: OceanState, forcing: OceanForcing) -> OceanState:
        """One coupling interval of the mixed-layer heat budget.

        dT/dt = Q_net / (rho c_p h); freshwater only dilutes surface
        salinity (virtual salt flux), velocities and the free surface stay
        identically zero.  Supports ensemble-batched forcing via the same
        leading-axis broadcasting as the full model.
        """
        s = state.copy()
        dt = self.params.dt_long
        heat_cap = RHO_SEAWATER * CP_SEAWATER * self._h_eff
        t0 = s.temp[0] + forcing.heat_flux * dt / heat_cap
        s.temp[0] = np.where(self.mask2d,
                             np.maximum(t0, self.params.sst_clamp), 0.0)
        salt_in = (-forcing.freshwater * self.params.reference_salinity
                   / RHO_SEAWATER)
        s.salt[0] = np.where(self.mask2d,
                             s.salt[0] + salt_in * dt / self._h_eff, 0.0)
        s.time = state.time + dt
        self.op_count += 10 * self._n2      # a few 2-D passes over the surface
        return s
