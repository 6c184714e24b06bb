"""Tests for the ocean grid, topography generator, and equation of state."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ocean import (
    OceanGrid,
    aquaplanet_topography,
    density_anomaly,
    mercator_latitudes,
    stretched_depths,
    world_topography,
)
from repro.ocean.eos import buoyancy_frequency_sq
from repro.util.constants import RHO_SEAWATER


# ------------------------------------------------------------- Mercator grid
def test_mercator_latitudes_symmetric_and_bounded():
    lats = mercator_latitudes(64, lat_max_deg=72.0)
    np.testing.assert_allclose(lats, -lats[::-1], atol=1e-14)
    assert np.degrees(lats).max() == pytest.approx(72.0)


def test_mercator_property_constant_aspect_ratio():
    """The defining Mercator property: dx/dy is the same at every latitude
    (the grid is conformal — locally the same shape everywhere)."""
    g = OceanGrid(nx=64, ny=64)
    ratio = g.dx[2:-2] / g.dy[2:-2]
    np.testing.assert_allclose(ratio, ratio.mean(), rtol=0.02)


def test_grid_rejects_tiny():
    with pytest.raises(ValueError):
        OceanGrid(nx=2, ny=32)
    with pytest.raises(ValueError):
        mercator_latitudes(2)


def test_paper_resolution_is_about_1p4_by_2p8_degrees():
    """Paper: 128 x 128 Mercator ~ 1.4 deg lat x 2.8 deg lon."""
    g = OceanGrid(nx=128, ny=128)
    dlon = 360.0 / 128
    assert dlon == pytest.approx(2.8125)
    dlat_equator = np.degrees(np.diff(g.lats))[64]
    assert 1.0 < dlat_equator < 1.8


# ------------------------------------------------------------- depths
def test_stretched_depths_monotone_and_total():
    z = stretched_depths(16, total_depth=5000.0)
    assert z[0] == 0.0
    assert z[-1] == pytest.approx(5000.0)
    assert np.all(np.diff(z) > 0)
    # Surface-refined: first layer much thinner than last.
    assert (z[1] - z[0]) < 0.1 * (z[-1] - z[-2])


def test_stretched_depths_validation():
    with pytest.raises(ValueError):
        stretched_depths(1)
    with pytest.raises(ValueError):
        stretched_depths(10, total_depth=100.0, surface_layer=50.0)


# ------------------------------------------------------------- topography
@pytest.mark.parametrize("nx,ny", [(32, 32), (64, 64), (128, 128)])
def test_world_topography_basin_topology(nx, ny):
    """The generator guarantees the paper's hand-tuned basin topology."""
    g = OceanGrid(nx=nx, ny=ny)
    land, depth = world_topography(g)
    lat, lon = g.lat_degrees, g.lon_degrees

    def ocean_frac(lat_lo, lat_hi, lon_lo, lon_hi):
        jm = (lat >= lat_lo) & (lat <= lat_hi)
        im = (lon >= lon_lo) & (lon <= lon_hi)
        sub = ~land[np.ix_(jm, im)]
        return sub.mean() if sub.size else 1.0

    assert ocean_frac(-60, -50, 285, 305) > 0.9     # Drake Passage open
    assert ocean_frac(-15, 5, 60, 90) > 0.9         # Indian Ocean open
    assert ocean_frac(20, 40, 180, 220) > 0.9       # mid-Pacific open
    assert ocean_frac(-50, -45, 0, 360) > 0.8       # Southern Ocean ring
    # The continents exist.
    assert land.mean() > 0.15
    assert ocean_frac(30, 60, 245, 280) < 0.3       # North America solid
    # Depth is zero exactly on land, positive elsewhere.
    assert np.all(depth[land] == 0.0)
    assert np.all(depth[~land] > 0.0)


def test_world_topography_has_shelves():
    g = OceanGrid(nx=64, ny=64)
    land, depth = world_topography(g)
    vals = np.unique(depth[~land])
    assert len(vals) >= 2          # shelf + deep at least
    assert vals.min() < 0.5 * vals.max()


def test_aquaplanet_all_ocean():
    g = OceanGrid(nx=16, ny=16, nlev=4)
    land, depth = aquaplanet_topography(g)
    assert not land.any()
    assert np.all(depth > 0)


# ------------------------------------------------------------- EOS
def test_density_reference_point():
    assert density_anomaly(10.0, 35.0, 0.0) == pytest.approx(0.0)


def test_density_decreases_with_temperature():
    t = np.linspace(-2, 30, 50)
    rho = density_anomaly(t, 35.0)
    assert np.all(np.diff(rho) < 0)


def test_density_increases_with_salinity_and_depth():
    assert density_anomaly(10.0, 36.0) > density_anomaly(10.0, 35.0)
    assert density_anomaly(10.0, 35.0, 4000.0) > density_anomaly(10.0, 35.0, 0.0)


def test_thermal_expansion_grows_with_temperature():
    """The EOS nonlinearity: warm water expands more per degree."""
    def expansion(t):               # -d(rho)/dT by a centred difference
        return density_anomaly(t - 0.5, 35.0) - density_anomaly(t + 0.5, 35.0)

    assert expansion(25.0) > expansion(5.0) > 0.0


@settings(max_examples=50, deadline=None)
@given(t=st.floats(-2.0, 32.0), s=st.floats(30.0, 40.0))
def test_density_in_oceanographic_range(t, s):
    rho = RHO_SEAWATER + density_anomaly(t, s)
    assert 1015.0 < rho < 1035.0


def test_buoyancy_frequency_positive_for_stable_column():
    z = np.array([10.0, 50.0, 200.0, 1000.0])
    temp = np.array([20.0, 15.0, 8.0, 3.0])[:, None]
    salt = np.full((4, 1), 35.0)
    n2 = buoyancy_frequency_sq(temp, salt, z)
    assert np.all(n2 > 0)


def test_buoyancy_frequency_negative_when_inverted():
    z = np.array([10.0, 50.0])
    temp = np.array([[5.0], [20.0]])  # warm below cold: unstable
    salt = np.full((2, 1), 35.0)
    n2 = buoyancy_frequency_sq(temp, salt, z)
    assert np.all(n2 < 0)
