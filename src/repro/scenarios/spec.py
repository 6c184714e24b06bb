"""Declarative scenario specs: one object describes a whole world.

ExoPlaSim-style world building for the FOAM reproduction: a
:class:`Scenario` names the small set of physical knobs that distinguish
one climate from another — solar constant, CO2, rotation rate, land-sea
mask, ocean representation and initialization — as a
:class:`~repro.core.config.FoamConfig` delta.  Everything downstream
(serial runs, batched ensembles, concurrent rank pools) consumes the
config, so a scenario built here runs in every execution mode unchanged.

A scenario with no knobs builds *exactly* the model a plain
``FoamModel(config)`` would: the layer adds no silent drift (regression-
pinned bitwise in ``tests/test_scenarios.py``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from repro.core.config import FoamConfig, named_config, test_config
from repro.core.foam import FoamModel, FoamState

_CONFIG_FIELDS = frozenset(f.name for f in dataclasses.fields(FoamConfig))


@dataclass(frozen=True)
class Scenario:
    """A named world: a sparse :class:`FoamConfig` delta plus bookkeeping.

    ``knobs`` maps :class:`FoamConfig` field names to values; every field
    it leaves out keeps its :class:`FoamConfig` default (the paper's
    Earth).  Physical knobs (``solar_constant``, ``topography``,
    ``ocean_mode`` ...) are the usual content, but any field — resolution,
    time steps, seeds — may be set.
    """

    name: str
    description: str
    knobs: dict = field(default_factory=dict)
    #: Free-form labels ("idealized", "exoplanet", "paleo") for listings.
    tags: tuple[str, ...] = ()

    def __post_init__(self):
        unknown = set(self.knobs) - _CONFIG_FIELDS
        if unknown:
            raise ValueError(f"scenario {self.name!r}: unknown FoamConfig "
                             f"fields {sorted(unknown)}")

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
        return dataclasses.replace(base, **self.knobs)

    def build(self, base: FoamConfig | str | None = None
              ) -> tuple[FoamModel, FoamState]:
        """Construct the fully-initialized world: (model, initial state)."""
        model = FoamModel(self.config(base))
        return model, model.initial_state()
