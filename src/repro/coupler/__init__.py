"""The FOAM coupler: overlap-grid fluxes, land surface, hydrology, rivers, ice.

Paper section "The FOAM Coupler": an independent piece of code linking the
pre-existing atmosphere and ocean models, modeling the land surface and the
air-sea interface, and closing the hydrological cycle through a parallel
river model.
"""

from repro.coupler.coupler import (
    OCEAN_ALBEDO,
    CouplerState,
    FluxCoupler,
)
from repro.coupler.hydrology import (
    HydrologyState,
    snow_melt_rate,
    snowfall_partition,
    step_hydrology,
    wetness_factor,
)
from repro.coupler.land import (
    N_SOIL_LAYERS,
    N_SOIL_TYPES,
    SOIL_TYPES,
    LandModel,
    LandState,
    soil_types_from_latitude,
)
from repro.coupler.overlap import OverlapGrid, cell_edges_from_centers, lon_edges_uniform
from repro.coupler.river import (
    NEIGHBORS,
    RiverModel,
    derive_flow_directions,
    distance_to_ocean,
)
from repro.coupler.seaice import SeaIceModel, SeaIceState

__all__ = [
    "OverlapGrid", "cell_edges_from_centers", "lon_edges_uniform",
    "LandModel", "LandState", "N_SOIL_LAYERS", "N_SOIL_TYPES", "SOIL_TYPES",
    "soil_types_from_latitude",
    "HydrologyState", "snow_melt_rate", "snowfall_partition", "step_hydrology",
    "wetness_factor",
    "NEIGHBORS", "RiverModel", "derive_flow_directions", "distance_to_ocean",
    "SeaIceModel", "SeaIceState",
    "CouplerState", "FluxCoupler", "OCEAN_ALBEDO",
]
