"""Direct tests of the FluxCoupler: surface blending, overlap fluxes, rivers."""

import numpy as np
import pytest

from repro.atmosphere.spectral import gaussian_latitudes
from repro.coupler import FluxCoupler
from repro.ocean import OceanGrid, world_topography


@pytest.fixture(scope="module")
def setup():
    mu, _ = gaussian_latitudes(16)
    atm_lats = np.arcsin(mu)
    g = OceanGrid(nx=24, ny=24, nlev=4)
    land, depth = world_topography(g)
    coupler = FluxCoupler(atm_lats, 24, g.lats, 24, land)
    return coupler, g, land


def make_atm_fields(nlat=16, nlon=24, seed=0):
    rng = np.random.default_rng(seed)
    return dict(
        t_air=285.0 + rng.normal(scale=5.0, size=(nlat, nlon)),
        q_air=np.full((nlat, nlon), 0.008),
        u_air=rng.normal(scale=6.0, size=(nlat, nlon)),
        v_air=rng.normal(scale=6.0, size=(nlat, nlon)),
        ps=np.full((nlat, nlon), 1.0e5))


def make_sst(g, land):
    sst = 26.0 * np.cos(g.lats[:, None]) ** 2 * np.ones((1, g.nx)) - 1.0
    return np.where(land, np.nan, sst)


def test_atm_land_mask_follows_ocean_fractions(setup):
    coupler, g, land = setup
    # Global land fraction is comparable on both grids.
    atm_frac = coupler.atm_land_mask.mean()
    ocn_frac = land.mean()
    assert abs(atm_frac - ocn_frac) < 0.20
    # Ocean fraction is a true area fraction in [0, 1].
    assert coupler.atm_ocean_frac.min() >= 0.0
    assert coupler.atm_ocean_frac.max() <= 1.0 + 1e-12


def test_surface_state_blends_sanely(setup):
    coupler, g, land = setup
    state = coupler.initial_state()
    sst = make_sst(g, land)
    surf = coupler.surface_state_for_atm(state, sst)
    assert surf.t_sfc.shape == (16, 24)
    assert np.all(np.isfinite(surf.t_sfc))
    assert 200.0 < surf.t_sfc.min() and surf.t_sfc.max() < 320.0
    # Albedo physically bounded; wetness 1 over pure-ocean columns.
    assert np.all((surf.albedo > 0.0) & (surf.albedo < 0.95))
    pure_ocean = coupler.atm_ocean_frac > 0.999
    if pure_ocean.any():
        np.testing.assert_allclose(surf.wetness[pure_ocean], 1.0)


def test_turbulent_fluxes_shapes_and_signs(setup):
    coupler, g, land = setup
    state = coupler.initial_state()
    out = coupler.turbulent_fluxes(state, sst_celsius=make_sst(g, land),
                                   **make_atm_fields())
    atm = out["atm"]
    assert atm["shf"].shape == (16, 24)
    assert out["ocn_taux"].shape == (g.ny, g.nx)
    # Evaporation from the ocean is upward on balance (dew over the coldest
    # water under warm air is physical and allowed).
    ocean = ~land
    assert np.mean(out["ocn_evap"][ocean] > 0) > 0.5
    assert np.sum(out["ocn_evap"][ocean]) > 0.0
    # Stress over land cells of the ocean grid is zero (water-only average).
    assert np.all(out["ocn_taux"][land] == 0.0)


def test_flux_conservation_through_overlap(setup):
    """The energy the atmosphere hands over equals what the surfaces get."""
    coupler, g, land = setup
    state = coupler.initial_state()
    out = coupler.turbulent_fluxes(state, sst_celsius=make_sst(g, land),
                                   **make_atm_fields(seed=3))
    ov = coupler.overlap
    # Total SHF integrated over the overlap grid vs the atm-grid average.
    total_overlap = ov.integrate(out["overlap"]["shf"])
    total_atm = ov.integrate_atm(out["atm"]["shf"])
    np.testing.assert_allclose(total_atm, total_overlap, rtol=1e-12)


def test_ice_changes_the_fluxes(setup):
    coupler, g, land = setup
    state = coupler.initial_state()
    fields = make_atm_fields(seed=4)
    sst = make_sst(g, land)
    base = coupler.turbulent_fluxes(state, sst_celsius=sst, **fields)
    # Freeze the high-latitude ocean.
    icy = state.ice
    icy.thickness[:] = np.where((np.abs(np.degrees(g.lats))[:, None] > 55)
                                & ~land, 1.0, 0.0)
    frozen = coupler.turbulent_fluxes(state, sst_celsius=sst, **fields)
    # Ice shields the stress (divided by 15) somewhere.
    high = np.abs(np.degrees(g.lats)) > 60
    stress_base = np.abs(base["ocn_taux"][high]).sum()
    stress_frozen = np.abs(frozen["ocn_taux"][high]).sum()
    assert stress_frozen < stress_base
    icy.thickness[:] = 0.0   # restore shared fixture


def test_discharge_mapping_conserves_mass(setup):
    coupler, g, land = setup
    rng = np.random.default_rng(5)
    # Put discharge on atm-grid coastal ocean cells.
    discharge_atm = np.where(~coupler.atm_land_mask,
                             rng.uniform(0, 1e-4, (16, 24)), 0.0)
    mapped = coupler.discharge_to_ocean_grid(discharge_atm)
    total_in = float(np.sum(discharge_atm * coupler.atm_cell_areas))
    total_out = coupler.overlap.integrate_ocn(mapped)
    np.testing.assert_allclose(total_out, total_in, rtol=1e-10)
    assert np.all(mapped >= 0.0)


def test_step_land_and_rivers_closes_books(setup):
    coupler, g, land = setup
    state = coupler.initial_state()
    nlat, nlon = 16, 24
    warm = np.full((nlat, nlon), 288.0)
    precip = np.where(coupler.atm_land_mask, 3e-4, 1e-4)
    new_state, discharge, diags = coupler.step_land_and_rivers(
        state, precip=precip, evap=np.full((nlat, nlon), 2e-5),
        t_low1=warm, t_low2=warm,
        net_land_flux=np.full((nlat, nlon), 30.0), dt=1800.0)
    assert diags.precip_total > 0
    assert diags.runoff_total >= 0
    assert new_state.time == state.time + 1800.0
    assert np.all(new_state.hydrology.soil_moisture <= 0.15 + 1e-12)
    # Land warms under the positive flux.
    landm = coupler.atm_land_mask
    assert np.all(new_state.land.soil_temp[0][landm]
                  >= state.land.soil_temp[0][landm])


def test_river_volume_none_means_empty_rivers(setup):
    """``river_volume=None`` routes from empty storage, serial and batched
    alike -- never from what another trajectory left in the kernel."""
    import dataclasses

    coupler, g, land = setup
    nlat, nlon = 16, 24
    warm = np.full((nlat, nlon), 288.0)
    inputs = dict(precip=np.where(coupler.atm_land_mask, 3e-4, 1e-4),
                  evap=np.full((nlat, nlon), 2e-5), t_low1=warm, t_low2=warm,
                  net_land_flux=np.full((nlat, nlon), 30.0), dt=1800.0)
    # Saturated soil, so the very first step produces runoff.
    state = coupler.initial_state()
    state.hydrology.soil_moisture[...] = 0.15
    bare = dataclasses.replace(state, river_volume=None)
    first, discharge1, _ = coupler.step_land_and_rivers(bare, **inputs)
    assert first.river_volume.sum() > 0          # the kernel now holds water
    again, discharge2, _ = coupler.step_land_and_rivers(bare, **inputs)
    np.testing.assert_array_equal(discharge2, discharge1)
    np.testing.assert_array_equal(again.river_volume, first.river_volume)
    zeros, discharge0, _ = coupler.step_land_and_rivers(
        dataclasses.replace(state, river_volume=np.zeros((nlat, nlon))),
        **inputs)
    np.testing.assert_array_equal(discharge0, discharge1)
    np.testing.assert_array_equal(zeros.river_volume, first.river_volume)


def test_sea_ice_step_freshwater_bookkeeping(setup):
    coupler, g, land = setup
    state = coupler.initial_state()
    sst = np.where(land, np.nan, -1.92)          # everything at the clamp
    new_state, fw = coupler.step_sea_ice(
        state, sst_celsius=sst,
        ocean_heat_loss=np.full((g.ny, g.nx), 400.0),
        t_air_on_ocn=np.full((g.ny, g.nx), 260.0),
        dt=6 * 3600.0)
    # Persistent clamp-level heat loss eventually builds ice somewhere.
    for _ in range(100):
        new_state, fw = coupler.step_sea_ice(
            new_state, sst_celsius=sst,
            ocean_heat_loss=np.full((g.ny, g.nx), 400.0),
            t_air_on_ocn=np.full((g.ny, g.nx), 260.0),
            dt=6 * 3600.0)
    assert new_state.ice.mask.sum() > 0
    assert np.all(fw[land] == 0.0)
