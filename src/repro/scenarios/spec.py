"""Declarative scenario specs: one object describes a whole world.

ExoPlaSim-style world building for the FOAM reproduction: a
:class:`Scenario` holds the small set of physical knobs that distinguish
one climate from another — solar constant, CO2, rotation rate, land-sea
mask, ocean representation and initialization — and maps them onto a
:class:`~repro.core.config.FoamConfig` delta.  Everything downstream
(serial runs, batched ensembles, concurrent rank pools) consumes the
config, so a scenario built here runs in every execution mode unchanged.

A scenario with all-default knobs builds *exactly* the model a plain
``FoamModel(config)`` would: the layer adds no silent drift (regression-
pinned bitwise in ``tests/test_scenarios.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.config import FoamConfig, named_config, test_config
from repro.core.foam import FoamModel, FoamState
from repro.util.constants import SOLAR_CONSTANT


@dataclass(frozen=True)
class Scenario:
    """A named world: physical knobs plus bookkeeping.

    Every knob defaults to the paper's Earth; a scenario is the sparse set
    of deviations.  ``config_overrides`` passes any further
    :class:`FoamConfig` field (resolution, time steps, seeds) verbatim.
    """

    name: str
    description: str
    # --- physical knobs (mirror the FoamConfig scenario fields) --------
    solar_constant: float = SOLAR_CONSTANT
    co2_ppmv: float = 355.0
    rotation_factor: float = 1.0
    subsolar_lon_deg: float | None = None
    topography: str = "world"
    ocean_mode: str = "full"
    mixed_layer_depth: float = 50.0
    ocean_init: str = "rest_stratified"
    initial_ice_thickness: float = 0.0
    config_overrides: dict = field(default_factory=dict)
    #: Free-form labels ("idealized", "exoplanet", "paleo") for listings.
    tags: tuple[str, ...] = ()

    # ------------------------------------------------------------------
    def config(self, base: FoamConfig | str | None = None) -> FoamConfig:
        """The scenario's :class:`FoamConfig` on a chosen base resolution.

        ``base`` may be a config instance, a name
        :func:`~repro.core.config.named_config` knows ("test", "small",
        "paper"), or None (test size — the resolution the regression
        climatologies are pinned at).
        """
        if base is None:
            base = test_config()
        elif isinstance(base, str):
            base = named_config(base)
        knobs = dict(
            solar_constant=self.solar_constant,
            co2_ppmv=self.co2_ppmv,
            rotation_factor=self.rotation_factor,
            subsolar_lon_deg=self.subsolar_lon_deg,
            topography=self.topography,
            ocean_mode=self.ocean_mode,
            mixed_layer_depth=self.mixed_layer_depth,
            ocean_init=self.ocean_init,
            initial_ice_thickness=self.initial_ice_thickness,
        )
        knobs.update(self.config_overrides)
        return dataclasses.replace(base, **knobs)

    def build(self, base: FoamConfig | str | None = None
              ) -> tuple[FoamModel, FoamState]:
        """Construct the fully-initialized world: (model, initial state)."""
        model = FoamModel(self.config(base))
        return model, model.initial_state()

    # ------------------------------------------------------------------
    def knob_summary(self) -> dict:
        """The non-default physical knobs, for listings and --json output."""
        ref = Scenario(name="", description="")
        out = {}
        for f in dataclasses.fields(self):
            if f.name in ("name", "description", "tags", "config_overrides"):
                continue
            value = getattr(self, f.name)
            if value != getattr(ref, f.name):
                out[f.name] = value
        if self.config_overrides:
            out["config_overrides"] = dict(self.config_overrides)
        return out
