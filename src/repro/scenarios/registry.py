"""The scenario registry: the worlds this model ships with.

Each entry is a :class:`~repro.scenarios.spec.Scenario` — a declarative
bundle of physical knobs (``FoamConfig`` fields).  ``register`` accepts user-defined scenarios at
runtime; the built-ins below cover the idealized-climate canon (aquaplanet,
snowball, doubled CO2, slab ocean, tidally locked exoplanet, Pangaea-style
paleo world) plus the paper's Earth as ``control``.

Every registered scenario is held to a committed golden climatology
(``tests/data/scenario_climatology.json``) in CI — adding a world here
means regenerating the goldens (``python -m repro.scenarios golden``) so
the new world joins the regression matrix.
"""

from __future__ import annotations

from repro.scenarios.spec import Scenario
from repro.util.constants import SOLAR_CONSTANT

_REGISTRY: dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (name-keyed); returns it for chaining."""
    if not scenario.name:
        raise ValueError("scenario needs a non-empty name")
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a registered scenario by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown scenario {name!r}; "
                         f"registered: {scenario_names()}") from None


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> list[Scenario]:
    """All registered scenarios, name-sorted."""
    return [_REGISTRY[n] for n in scenario_names()]


# ----------------------------------------------------------------------
# built-in worlds
# ----------------------------------------------------------------------
register(Scenario(
    name="control",
    description="The paper's Earth: world topography, full ocean, "
                "present-day solar constant and CO2.",
    tags=("earth", "reference")))

register(Scenario(
    name="aquaplanet",
    description="All-ocean planet at uniform depth; the cleanest "
                "baseline for perturbation experiments.",
    knobs={"topography": "aquaplanet"},
    tags=("idealized",)))

register(Scenario(
    name="snowball",
    description="Snowball initiation: faint-sun insolation (94%), a cold "
                "unstratified ocean, and 1 m of sea ice everywhere — the "
                "high-albedo frozen branch of the hysteresis.",
    knobs={"solar_constant": 0.94 * SOLAR_CONSTANT,
           "topography": "aquaplanet",
           "ocean_init": "cold_uniform",
           "initial_ice_thickness": 1.0},
    tags=("idealized", "paleo")))

register(Scenario(
    name="doubled_co2",
    description="The classic sensitivity experiment: the aquaplanet "
                "baseline under doubled CO2 (710 ppmv).",
    knobs={"co2_ppmv": 710.0, "topography": "aquaplanet"},
    tags=("idealized", "forcing")))

register(Scenario(
    name="slab_ocean",
    description="World topography over a motionless 50 m mixed-layer "
                "(slab) ocean: the fast lower boundary for "
                "atmosphere-focused studies.",
    knobs={"ocean_mode": "slab"},
    tags=("earth", "fast")))

register(Scenario(
    name="tidally_locked",
    description="Tidally locked slow rotator: 16x slower spin with the "
                "sun fixed over longitude 180 on an aquaplanet — "
                "permanent day and night hemispheres.",
    knobs={"rotation_factor": 1.0 / 16.0,
           "subsolar_lon_deg": 180.0,
           "topography": "aquaplanet"},
    tags=("exoplanet",)))

register(Scenario(
    name="paleo",
    description="Pangaea-style supercontinent with a Tethys embayment in "
                "a circumglobal Panthalassa ocean.",
    knobs={"topography": "paleo"},
    tags=("paleo",)))
