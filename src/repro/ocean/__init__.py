"""The FOAM ocean: fast z-coordinate model with triple-rate time stepping.

Paper section "The FOAM Ocean Model": an unstaggered 128x128 Mercator grid,
16 stretched z levels, Pacanowski-Philander mixing with a steepened
Richardson dependence, del^4 dissipation, a polar Fourier filter, and three
speedup techniques — slowed free surface, barotropic/baroclinic splitting,
and multi-rate subcycling — claimed to make it "the most computationally
efficient ocean model in existence".
"""

from repro.ocean.barotropic import BarotropicParams, BarotropicSolver
from repro.ocean.baseline import ConventionalOceanModel
from repro.ocean.eos import buoyancy_frequency_sq, density_anomaly
from repro.ocean.filters import polar_filter_factors
from repro.ocean.grid import (
    OceanGrid,
    aquaplanet_topography,
    mercator_latitudes,
    stretched_depths,
    world_topography,
)
from repro.ocean.mixing import (
    PPMixingParams,
    convective_adjustment,
    mix_column_implicit,
    pp_viscosity,
    richardson_number,
)
from repro.ocean.model import OceanForcing, OceanModel, OceanParams, OceanState

__all__ = [
    "OceanGrid", "aquaplanet_topography", "mercator_latitudes",
    "stretched_depths", "world_topography",
    "buoyancy_frequency_sq", "density_anomaly",
    "PPMixingParams", "convective_adjustment", "mix_column_implicit",
    "pp_viscosity", "richardson_number",
    "BarotropicParams", "BarotropicSolver",
    "polar_filter_factors",
    "OceanForcing", "OceanModel", "OceanParams", "OceanState",
    "ConventionalOceanModel",
]
