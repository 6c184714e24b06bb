"""Tests for the land model, bucket hydrology, river routing, and sea ice."""

import numpy as np
import pytest

from repro.coupler import (
    HydrologyState,
    LandModel,
    LandState,
    RiverModel,
    SeaIceModel,
    SeaIceState,
    NEIGHBORS,
    derive_flow_directions,
    distance_to_ocean,
    snowfall_partition,
    soil_types_from_latitude,
    step_hydrology,
    wetness_factor,
)
from repro.coupler.seaice import SEAICE_MIN_THICKNESS
from repro.util.constants import (
    RHO_WATER,
    SEAICE_STRESS_DIVISOR,
    SOIL_MOISTURE_CAPACITY,
)
from tests.oracles import (
    derive_flow_directions_ref,
    distance_to_ocean_ref,
    routing_ref,
)


# ------------------------------------------------------------- land model
def test_soil_type_map_structure():
    lat = np.linspace(-85, 85, 40)
    t = soil_types_from_latitude(lat, 16)
    assert t.min() >= 0 and t.max() <= 4
    assert (t[np.abs(lat) >= 70] == 4).all()          # polar land ice
    assert (t[(np.abs(lat) > 16) & (np.abs(lat) < 34)] != 4).all()


def test_land_model_rejects_bad_types():
    with pytest.raises(ValueError):
        LandModel(np.array([[0, 7]]))


def test_land_ice_brighter_than_forest():
    lm = LandModel(np.array([[2, 4]]))
    alb = lm.albedo()
    assert alb[0, 1] > 2 * alb[0, 0]


def test_snow_brightens_surface():
    lm = LandModel(np.array([[2]]))
    bare = lm.albedo(np.array([[0.0]]))
    snowy = lm.albedo(np.array([[0.5]]))
    assert snowy[0, 0] > bare[0, 0] + 0.3


def test_soil_diffusion_warms_top_layer_under_positive_flux():
    lm = LandModel(np.zeros((2, 2), dtype=int))
    st = LandState.isothermal(2, 2, 280.0)
    out = lm.step(st, np.full((2, 2), 100.0), dt=3600.0)
    assert np.all(out.soil_temp[0] > 280.0)
    assert np.all(out.soil_temp[-1] == pytest.approx(280.0, abs=0.2))


def test_soil_diffusion_relaxes_gradient():
    lm = LandModel(np.zeros((1, 1), dtype=int))
    st = LandState(np.array([300.0, 280.0, 280.0, 280.0]).reshape(4, 1, 1))
    out = st
    for _ in range(400):
        out = lm.step(out, np.zeros((1, 1)), dt=3600.0)
    spread = out.soil_temp.max() - out.soil_temp.min()
    assert spread < 5.0


# ------------------------------------------------------------- hydrology
def test_wetness_ramp_and_saturation():
    st = HydrologyState(
        soil_moisture=np.array([[0.0, 0.05, 0.1125, 0.15]]),
        snow_depth=np.zeros((1, 4)))
    dw = wetness_factor(st)
    assert dw[0, 0] == 0.0
    assert dw[0, 1] == pytest.approx(0.05 / (0.75 * 0.15))
    assert dw[0, 2] == pytest.approx(1.0)
    assert dw[0, 3] == 1.0


def test_wetness_is_one_over_snow_and_ice():
    st = HydrologyState(soil_moisture=np.zeros((1, 2)),
                        snow_depth=np.array([[0.1, 0.0]]))
    dw = wetness_factor(st, land_ice=np.array([[False, True]]))
    assert dw[0, 0] == 1.0 and dw[0, 1] == 1.0


def test_snowfall_requires_all_three_levels_cold():
    """Paper rule: snow iff ground AND lowest two atm levels below freezing."""
    t = np.array([[270.0]])
    warm = np.array([[275.0]])
    assert snowfall_partition(None, t, t, t)[0, 0] == 1.0
    assert snowfall_partition(None, warm, t, t)[0, 0] == 0.0
    assert snowfall_partition(None, t, warm, t)[0, 0] == 0.0
    assert snowfall_partition(None, t, t, warm)[0, 0] == 0.0


def test_bucket_overflow_becomes_runoff():
    st = HydrologyState(soil_moisture=np.full((1, 1), 0.14),
                        snow_depth=np.zeros((1, 1)))
    dt = 3600.0
    heavy_rain = np.full((1, 1), 0.05 / dt * RHO_WATER)  # 5 cm per step
    warm = np.full((1, 1), 290.0)
    new, runoff = step_hydrology(
        st, precip=heavy_rain, evaporation=np.zeros((1, 1)),
        ground_temp=warm, t_low1=warm, t_low2=warm,
        melt_energy=np.zeros((1, 1)), dt=dt, land_mask=np.ones((1, 1), bool))
    assert new.soil_moisture[0, 0] == pytest.approx(SOIL_MOISTURE_CAPACITY)
    expect_runoff = (0.14 + 0.05 - 0.15) * RHO_WATER / dt
    assert runoff[0, 0] == pytest.approx(expect_runoff)


def test_hydrology_water_budget_closes():
    """d(storage) = P - E - runoff exactly."""
    rng = np.random.default_rng(0)
    st = HydrologyState(soil_moisture=rng.uniform(0, 0.15, (4, 4)),
                        snow_depth=rng.uniform(0, 0.3, (4, 4)))
    dt = 1800.0
    precip = rng.uniform(0, 2e-4, (4, 4))
    evap = rng.uniform(0, 5e-5, (4, 4))
    cold = np.full((4, 4), 268.0)
    new, runoff = step_hydrology(
        st, precip=precip, evaporation=evap, ground_temp=cold,
        t_low1=cold, t_low2=cold, melt_energy=np.zeros((4, 4)),
        dt=dt, land_mask=np.ones((4, 4), bool))
    storage0 = (st.soil_moisture + st.snow_depth) * RHO_WATER
    storage1 = (new.soil_moisture + new.snow_depth) * RHO_WATER
    np.testing.assert_allclose(storage1 - storage0,
                               dt * (precip - evap - runoff), atol=1e-9)


def test_deep_snow_sheds_to_river():
    """Snow beyond 1 m liquid equivalent runs off (ice-sheet equilibrium)."""
    st = HydrologyState(soil_moisture=np.zeros((1, 1)),
                        snow_depth=np.full((1, 1), 0.999))
    dt = 3600.0
    cold = np.full((1, 1), 260.0)
    snowstorm = np.full((1, 1), 0.01 / dt * RHO_WATER)
    new, runoff = step_hydrology(
        st, precip=snowstorm, evaporation=np.zeros((1, 1)),
        ground_temp=cold, t_low1=cold, t_low2=cold,
        melt_energy=np.zeros((1, 1)), dt=dt, land_mask=np.ones((1, 1), bool))
    assert new.snow_depth[0, 0] == pytest.approx(1.0)
    assert runoff[0, 0] > 0


# ------------------------------------------------------------- river model
def make_island(ny=9, nx=12):
    land = np.zeros((ny, nx), dtype=bool)
    land[3:7, 4:9] = True
    return land


def test_distance_to_ocean_zero_on_water():
    land = make_island()
    d = distance_to_ocean(land)
    assert (d[~land] == 0).all()
    assert (d[land] >= 1).all()
    # Center of the island is farthest.
    assert d[5, 6] >= d[3, 4]


def test_flow_directions_point_downhill():
    land = make_island()
    d = distance_to_ocean(land)
    dirs = derive_flow_directions(land)
    ny, nx = land.shape
    for j in range(ny):
        for i in range(nx):
            if land[j, i] and dirs[j, i] >= 0:
                dj, di = NEIGHBORS[dirs[j, i]]
                assert d[j + dj, (i + di) % nx] < d[j, i]


def test_river_conserves_water():
    land = make_island()
    areas = np.full(land.shape, 1e10)
    spacing = np.full(land.shape[0], 2e5)
    rm = RiverModel(land, areas, spacing)
    dt = 6 * 3600.0
    runoff = np.where(land, 1e-4, 0.0)
    delivered = 0.0
    added = 0.0
    volume = np.zeros(land.shape)
    for _ in range(50):
        out, volume = rm.step(volume, runoff, dt)
        delivered += float(np.sum(out * areas)) * dt
        added += float(np.sum(runoff * np.where(land, areas, 0.0))) * dt
    stored = float(volume.sum()) * 1000.0   # m^3 -> kg
    np.testing.assert_allclose(added, delivered + stored, rtol=1e-10)


def test_river_delivers_to_coastal_ocean_only():
    land = make_island()
    areas = np.full(land.shape, 1e10)
    spacing = np.full(land.shape[0], 2e5)
    rm = RiverModel(land, areas, spacing)
    out = volume = np.zeros(land.shape)
    for _ in range(30):
        out, volume = rm.step(volume, np.where(land, 1e-4, 0.0), 6 * 3600.0)
    assert np.all(out[land] == 0.0)
    assert out.sum() > 0
    # Mouths hug the coastline: every delivery cell touches land.
    mouths = np.argwhere(out > 0)
    for j, i in mouths:
        neighborhood = land[max(0, j - 1):j + 2, max(0, i - 1):i + 2]
        assert neighborhood.any()


def test_river_finite_delay():
    """Water takes d/u per cell: discharge ramps up over multiple steps."""
    land = make_island()
    areas = np.full(land.shape, 1e10)
    spacing = np.full(land.shape[0], 3e5)
    rm = RiverModel(land, areas, spacing)
    dt = 6 * 3600.0
    runoff = np.where(land, 1e-4, 0.0)
    first, volume = rm.step(np.zeros(land.shape), runoff, dt)
    for _ in range(60):
        last, volume = rm.step(volume, runoff, dt)
    assert last.sum() > 2 * max(first.sum(), 1e-30)


def _assert_network_matches_loops(rm: RiverModel, seed: int) -> None:
    """``rm``'s distance, directions and destinations equal the per-cell
    loops' bit for bit (same values, same dtype)."""
    for got, want in ((distance_to_ocean(rm.land),
                       distance_to_ocean_ref(rm.land)),
                      (rm.direction, derive_flow_directions_ref(rm.land, seed)),
                      (rm.dest_j, routing_ref(rm.direction)[0]),
                      (rm.dest_i, routing_ref(rm.direction)[1])):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("size", ["test", "small", "paper"])
@pytest.mark.parametrize("topography", ["world", "aquaplanet", "paleo"])
def test_river_network_matches_the_cell_loops(topography, size):
    """The coupler's own river network on every world and resolution."""
    from repro.atmosphere.spectral import gaussian_latitudes
    from repro.core.config import named_config
    from repro.coupler import FluxCoupler
    from repro.ocean.grid import OceanGrid, topography_by_name

    cfg = named_config(size)
    grid = OceanGrid(nx=cfg.ocn_nx, ny=cfg.ocn_ny, nlev=cfg.ocn_nlev)
    land, _ = topography_by_name(topography)(grid)
    coupler = FluxCoupler(np.arcsin(gaussian_latitudes(cfg.atm_nlat)[0]),
                          cfg.atm_nlon, grid.lats, cfg.ocn_nx, land,
                          rng_seed=cfg.seed + 7)
    _assert_network_matches_loops(coupler.river, cfg.seed + 7)


def test_river_network_matches_the_cell_loops_on_random_masks():
    """120 random masks and seeds: thin and one-column grids, all-land
    grids (every cell a pit), all-ocean grids, and cells with up to 8 tied
    downhill neighbors."""
    ties = pits = 0
    for k in range(120):
        rng = np.random.default_rng(k)
        ny, nx = int(rng.integers(1, 17)), int(rng.integers(1, 21))
        land = rng.random((ny, nx)) < rng.uniform(0.0, 1.0)
        if k % 10 == 0:
            land[:] = k % 20 == 0
        rm = RiverModel(land, np.full(land.shape, 1e10),
                        np.full(ny, 2e5), rng_seed=k)
        _assert_network_matches_loops(rm, k)
        pits += int((land & (rm.direction < 0)).sum())
        d = distance_to_ocean(land)
        for j, i in np.argwhere(land & (d > 1)):
            lower = [d[j + dj, (i + di) % nx] for dj, di in NEIGHBORS
                     if 0 <= j + dj < ny]
            ties += lower.count(min(lower)) > 1
        assert np.array_equal(rm.dest_j, routing_ref(rm.direction)[0])
        assert np.array_equal(rm.dest_i, routing_ref(rm.direction)[1])
    assert ties > 100 and pits > 100


# ------------------------------------------------------------- sea ice
def test_ice_forms_at_clamp_under_heat_loss():
    model = SeaIceModel()
    st = SeaIceState.ice_free(2, 2)
    ocean = np.ones((2, 2), dtype=bool)
    sst = np.full((2, 2), 271.23)          # at the clamp
    loss = np.full((2, 2), 200.0)
    cold_air = np.full((2, 2), 260.0)
    fw_total = np.zeros((2, 2))
    for _ in range(200):
        st, fw = model.step(st, sst=sst, ocean_heat_loss=loss,
                            air_temp=cold_air, ocean_mask=ocean, dt=6 * 3600.0)
        fw_total += fw
    assert np.all(st.mask)
    assert np.all(fw_total < 0)           # water left the ocean on formation


def test_no_ice_in_warm_water():
    model = SeaIceModel()
    st = SeaIceState.ice_free(1, 1)
    st, fw = model.step(st, sst=np.array([[290.0]]),
                        ocean_heat_loss=np.array([[300.0]]),
                        air_temp=np.array([[280.0]]),
                        ocean_mask=np.ones((1, 1), bool), dt=21600.0)
    assert st.thickness[0, 0] == 0.0
    assert fw[0, 0] == 0.0


def test_ice_melts_under_warm_air_and_returns_freshwater():
    model = SeaIceModel()
    st = SeaIceState(thickness=np.full((1, 1), 0.3),
                     surface_temp=np.full((1, 1), 265.0))
    warm_air = np.array([[285.0]])
    fw_sum = 0.0
    for _ in range(600):
        st, fw = model.step(st, sst=np.array([[272.0]]),
                            ocean_heat_loss=np.array([[0.0]]),
                            air_temp=warm_air,
                            ocean_mask=np.ones((1, 1), bool), dt=21600.0)
        fw_sum += fw[0, 0]
    assert st.thickness[0, 0] < SEAICE_MIN_THICKNESS
    assert fw_sum > 0


def test_stress_divided_by_fifteen():
    taux = np.array([[0.15, 0.15]])
    tauy = np.array([[0.3, 0.3]])
    ice = np.array([[True, False]])
    tx, ty = SeaIceModel.stress_to_ocean(taux, tauy, ice)
    assert tx[0, 0] == pytest.approx(0.15 / SEAICE_STRESS_DIVISOR)
    assert tx[0, 1] == 0.15
    assert ty[0, 0] == pytest.approx(0.3 / SEAICE_STRESS_DIVISOR)
