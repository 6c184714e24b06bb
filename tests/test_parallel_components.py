"""Decomposed == serial: the correctness property of the parallel substrate."""

import numpy as np
import pytest

from repro.atmosphere.physics import PhysicsSuite, SurfaceState
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.ocean import OceanGrid, world_topography
from repro.ocean.operators import biharmonic, laplacian
from repro.parallel.components import (
    parallel_biharmonic,
    parallel_laplacian,
    parallel_physics,
    parallel_spectral_analysis,
)
from repro.util.thermo import saturation_mixing_ratio
from tests.helpers import column_surface_fluxes

pytestmark = pytest.mark.parallel


@pytest.fixture(scope="module")
def column_setup():
    L, nlat, nlon = 6, 12, 16
    rng = np.random.default_rng(0)
    lats = np.deg2rad(np.linspace(-70, 70, nlat))
    lons = np.linspace(0, 2 * np.pi, nlon, endpoint=False)
    sigma_half = np.linspace(0.0, 1.0, L + 1)
    dsigma = np.diff(sigma_half)
    sigma = 0.5 * (sigma_half[:-1] + sigma_half[1:])
    ps = np.full((nlat, nlon), 1.0e5)
    pressure = sigma[:, None, None] * ps[None]
    temp = np.broadcast_to(288.0 - 55.0 * (1.0 - sigma[:, None, None]),
                           (L, nlat, nlon)).copy()
    temp += rng.normal(scale=2.0, size=temp.shape)
    q = 0.7 * saturation_mixing_ratio(temp, pressure)
    u = rng.normal(scale=5.0, size=temp.shape)
    v = rng.normal(scale=5.0, size=temp.shape)
    geop = np.zeros_like(temp)
    for l in range(L - 2, -1, -1):
        geop[l] = geop[l + 1] + 287.0 * temp[l] * np.log(pressure[l + 1]
                                                         / pressure[l])
    surface = SurfaceState(
        t_sfc=290.0 + rng.normal(scale=3.0, size=(nlat, nlon)),
        albedo=np.full((nlat, nlon), 0.1))
    fluxes = column_surface_fluxes(temp, q, u, v, ps, surface.t_sfc,
                                   ocean=rng.random((nlat, nlon)) > 0.4)
    return dict(temp=temp, q=q, u=u, v=v, pressure=pressure, ps=ps,
                geopotential=geop, dsigma=dsigma, surface=surface,
                dt=1800.0, time=0.0, lats=lats, lons=lons,
                external_fluxes=fluxes)


@pytest.mark.parametrize("nranks", [1, 2, 4])
def test_parallel_physics_matches_serial(column_setup, nranks):
    """Column physics decomposed by latitude band is bit-identical to serial."""
    serial = PhysicsSuite().compute(**column_setup)
    par = parallel_physics(nranks, **column_setup)
    np.testing.assert_array_equal(par["dtdt"], serial.dtdt)
    np.testing.assert_array_equal(par["dqdt"], serial.dqdt)
    np.testing.assert_array_equal(
        par["precip"], serial.precip_conv + serial.precip_strat)


def test_physics_needs_no_communication(column_setup):
    """The paper's claim: vertical-column physics exchanges no messages."""
    par = parallel_physics(3, **column_setup)
    assert par["physics_messages"] == [0, 0, 0]


@pytest.mark.parametrize("py,px", [(1, 2), (2, 2), (2, 3), (4, 1)])
def test_parallel_laplacian_matches_serial(py, px):
    g = OceanGrid(nx=24, ny=24, nlev=2)
    land, _ = world_topography(g)
    mask = ~land
    rng = np.random.default_rng(1)
    field = np.where(mask, rng.normal(size=(24, 24)), 0.0)
    serial = laplacian(field, g.dx, g.dy, mask)
    par = parallel_laplacian(py, px, field, g, mask)
    np.testing.assert_allclose(par, serial, atol=1e-14)


def test_parallel_biharmonic_matches_serial():
    g = OceanGrid(nx=16, ny=16, nlev=2)
    land, _ = world_topography(g)
    mask = ~land
    rng = np.random.default_rng(2)
    field = np.where(mask, rng.normal(size=(16, 16)), 0.0)
    serial = biharmonic(field, g.dx, g.dy, mask)
    par = parallel_biharmonic(2, 2, field, g, mask)
    np.testing.assert_allclose(par, serial, atol=1e-10)


@pytest.mark.parametrize("nranks", [1, 2, 4, 5])
def test_parallel_spectral_analysis_matches_serial(nranks):
    tr = SpectralTransform(nlat=20, nlon=32, trunc=Truncation(8))
    rng = np.random.default_rng(3)
    spec = rng.normal(size=tr.spec_shape) + 1j * rng.normal(size=tr.spec_shape)
    spec[0, :] = spec[0, :].real
    grid = tr.synthesize(spec)
    serial = tr.analyze(grid)
    par = parallel_spectral_analysis(nranks, tr, grid)
    np.testing.assert_allclose(par, serial, atol=1e-13)
