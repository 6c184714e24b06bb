"""Scenario world-builder: declarative worlds over the coupled FOAM core.

One :class:`Scenario` call configures a whole planet — solar constant,
CO2, rotation, land-sea mask, ocean representation, initialization — as a
:class:`~repro.core.config.FoamConfig` delta that every execution layer
(serial, batched ensemble, concurrent rank pools) runs unchanged.

``python -m repro.scenarios`` is the CLI; ``scenario_climatology`` reduces
a run to the scalar diagnostics the per-scenario CI regression matrix pins.
"""

from repro.scenarios.climatology import (
    GOLDEN_DAYS,
    TOLERANCES,
    ClimatologyObserver,
    compare_climatology,
    scenario_climatology,
    state_metrics,
)
from repro.scenarios.registry import (
    all_scenarios,
    get_scenario,
    register,
    scenario_names,
)
from repro.scenarios.spec import Scenario

__all__ = [
    "Scenario",
    "register", "get_scenario", "scenario_names", "all_scenarios",
    "scenario_climatology", "state_metrics", "compare_climatology",
    "ClimatologyObserver", "GOLDEN_DAYS", "TOLERANCES",
]
