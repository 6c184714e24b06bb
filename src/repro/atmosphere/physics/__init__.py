"""CCM2/CCM3-lineage column physics for the FOAM atmosphere."""

from repro.atmosphere.physics.boundary_layer import (
    BoundaryLayerParams,
    boundary_layer_tendencies,
    diagnose_pbl_height,
    solve_tridiagonal,
)
from repro.atmosphere.physics.convection import (
    ConvectionParams,
    compute_cape,
    hack_shallow,
    zhang_mcfarlane_deep,
)
from repro.atmosphere.physics.driver import (
    PhysicsSuite,
    PhysicsTendencies,
    RadiationState,
    SurfaceState,
)
from repro.atmosphere.physics.radiation import (
    RadiationParams,
    diagnose_cloud_fraction,
    longwave,
    shortwave,
    solar_zenith_cos,
)
from repro.atmosphere.physics.stratiform import (
    StratiformParams,
    saturation_adjustment,
    stratiform_tendencies,
)
from repro.atmosphere.physics.surface_flux import (
    SurfaceFluxParams,
    bulk_fluxes,
    ocean_fluxes,
    ocean_roughness,
)

__all__ = [
    "RadiationParams", "diagnose_cloud_fraction",
    "longwave", "shortwave", "solar_zenith_cos",
    "ConvectionParams", "compute_cape", "hack_shallow", "zhang_mcfarlane_deep",
    "StratiformParams", "saturation_adjustment", "stratiform_tendencies",
    "BoundaryLayerParams", "boundary_layer_tendencies", "diagnose_pbl_height",
    "solve_tridiagonal",
    "SurfaceFluxParams", "bulk_fluxes", "ocean_fluxes", "ocean_roughness",
    "PhysicsSuite", "PhysicsTendencies", "RadiationState", "SurfaceState",
]
