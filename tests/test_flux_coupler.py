"""Direct tests of the FluxCoupler: surface blending, overlap fluxes, rivers."""

import dataclasses

import numpy as np
import pytest

from repro.atmosphere.physics.surface_flux import (
    SurfaceFluxParams,
    bulk_fluxes,
    ocean_fluxes,
    ocean_roughness,
)
from repro.atmosphere.spectral import gaussian_latitudes
from repro.coupler import FluxCoupler
from repro.coupler.coupler import FLUX_KEYS, OCEAN_ALBEDO
from repro.ocean import OceanGrid, world_topography
from repro.util.constants import T_FREEZE_SEA
from repro.util.tree import tree_leaves, tree_map
from tests import oracles as K


def _coupler(dtype=None):
    mu, _ = gaussian_latitudes(16)
    g = OceanGrid(nx=24, ny=24, nlev=4)
    land, _depth = world_topography(g)
    return FluxCoupler(np.arcsin(mu), 24, g.lats, 24, land, dtype=dtype), g, land


@pytest.fixture(scope="module")
def setup():
    return _coupler()


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
    # Albedo physically bounded, open ocean's over pure-ocean columns (the
    # initial state is ice-free).
    assert np.all((surf.albedo > 0.0) & (surf.albedo < 0.95))
    pure_ocean = coupler.atm_ocean_frac > 0.999
    if pure_ocean.any():
        np.testing.assert_allclose(surf.albedo[pure_ocean], OCEAN_ALBEDO)
    # The physics reads two surface fields; the fluxes are the coupler's.
    assert [f.name for f in dataclasses.fields(surf)] == ["t_sfc", "albedo"]


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
    new_state, discharge = coupler.step_land_and_rivers(
        state, precip=precip, evap=np.full((nlat, nlon), 2e-5),
        t_low1=warm, t_low2=warm,
        net_land_flux=np.full((nlat, nlon), 30.0), dt=1800.0)
    assert np.all(discharge >= 0)
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
    first, discharge1 = coupler.step_land_and_rivers(bare, **inputs)
    assert first.river_volume.sum() > 0          # the kernel now holds water
    again, discharge2 = coupler.step_land_and_rivers(bare, **inputs)
    np.testing.assert_array_equal(discharge2, discharge1)
    np.testing.assert_array_equal(again.river_volume, first.river_volume)
    zeros, discharge0 = coupler.step_land_and_rivers(
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


# ---------------------------------------------------------------------------
# the planned exchange == the whole-grid oracle, bitwise
# ---------------------------------------------------------------------------
def _inputs(g, land, dtype, seed=0):
    """Atmosphere fields and SST as a run of that precision hands them over
    (the coupler's own state stays float64 either way)."""
    fields = {k: v.astype(dtype) for k, v in make_atm_fields(seed=seed).items()}
    rng = np.random.default_rng(100 + seed)
    sst = make_sst(g, land) + rng.normal(scale=1.5, size=land.shape)
    return fields, sst.astype(dtype)


def _state(coupler, g, land, ice: str, seed=0):
    """A coupler state with noisy land / hydrology / ice-skin fields and ice
    nowhere (``free``), poleward of 55 degrees (``polar``) or on every ocean
    cell (``snowball``)."""
    rng = np.random.default_rng(200 + seed)
    state = coupler.initial_state()
    icy = {"free": np.zeros_like(land),
           "polar": (np.abs(np.degrees(g.lats))[:, None] > 55) & ~land,
           "snowball": ~land}[ice]
    state.ice.thickness[...] = np.where(icy, 1.0, 0.0)
    state.ice.surface_temp[...] = np.where(
        icy, 255.0 + rng.normal(scale=6.0, size=land.shape), T_FREEZE_SEA)
    shape = state.land.soil_temp.shape[-2:]
    state.land.soil_temp[0] += rng.normal(scale=8.0, size=shape)
    state.hydrology.soil_moisture[...] = rng.uniform(0.0, 0.15, shape)
    state.hydrology.snow_depth[...] = np.where(rng.random(shape) < 0.2,
                                               0.01, 0.0)
    return state


def _assert_matches_oracle(coupler, state, fields, sst):
    got = coupler.turbulent_fluxes(state, sst_celsius=sst, **fields)
    want = K.turbulent_fluxes_ref(coupler, state, sst_celsius=sst, **fields)
    for part in ("atm", "overlap"):
        assert tuple(got[part]) == FLUX_KEYS
        want[part] = {k: want[part][k] for k in FLUX_KEYS}
    got_leaves, want_leaves = dict(tree_leaves(got)), dict(tree_leaves(want))
    assert got_leaves.keys() == want_leaves.keys()
    for path, leaf in got_leaves.items():
        assert K.bitwise(leaf, want_leaves[path]), path
    return got


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("ice", ["free", "polar", "snowball"])
def test_planned_exchange_matches_whole_grid_oracle(ice, dtype):
    coupler, g, land = _coupler(dtype)
    fields, sst = _inputs(g, land, dtype)
    out = _assert_matches_oracle(coupler, _state(coupler, g, land, ice),
                                 fields, sst)
    assert out["atm"]["shf"].dtype == np.float64
    assert np.isfinite(out["ocn_evap"]).all()


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_signed_zero_winds_and_nan_sst(dtype):
    """Calm air as ``-0.0`` (stress of either zero sign on every cell class)
    under a land-NaN SST exactly as ``OceanModel.sst`` returns it."""
    coupler, g, land = _coupler(dtype)
    fields, sst = _inputs(g, land, dtype)
    assert np.isnan(sst[land]).all() and land.any()
    fields["u_air"][::2] = -0.0
    fields["v_air"][:, ::3] = -0.0
    fields["u_air"][5:9] = -0.0
    fields["v_air"][5:9] = -0.0
    out = _assert_matches_oracle(coupler, _state(coupler, g, land, "polar"),
                                 fields, sst)
    assert np.signbit(out["overlap"]["taux"]).any()


def test_exchange_plan_follows_the_ice_mask():
    """One coupler, the ice edge moving and moving back: the plan is rebuilt
    when the mask's content changes and reused while it does not — a new
    skin temperature, or another state object with the same mask, is not a
    change."""
    coupler, g, land = _coupler("float64")
    fields, sst = _inputs(g, land, "float64")
    free, polar = (_state(coupler, g, land, ice) for ice in ("free", "polar"))
    assert (coupler.plans_built, coupler.plan_requests) == (0, 0)
    built = []
    for state in (free, free, polar, _state(coupler, g, land, "polar", seed=1),
                  polar, free, free):
        _assert_matches_oracle(coupler, state, fields, sst)
        built.append(coupler.plans_built)
    assert built == [1, 1, 2, 2, 2, 3, 3]
    assert coupler.plan_requests == 7
    # An in-place edit of the state is seen too: the key is a stored copy.
    free.ice.thickness[...] = polar.ice.thickness
    _assert_matches_oracle(coupler, free, fields, sst)
    assert coupler.plans_built == 4


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_member_batch_with_different_ice_masks(dtype):
    """Three members, three ice masks, three SSTs: one batched call equals
    the oracle and, per member, the serial call; the member shape is part
    of the plan's key, so serial and batched calls may alternate."""
    coupler, g, land = _coupler(dtype)
    kinds = ("free", "polar", "snowball")
    states = [_state(coupler, g, land, ice, seed=e)
              for e, ice in enumerate(kinds)]
    inputs = [_inputs(g, land, dtype, seed=e) for e in range(3)]

    def stack(*members):
        return tree_map(lambda *a: np.stack(a, axis=-3), *members)

    batch = _assert_matches_oracle(
        coupler, stack(*states), stack(*(f for f, _ in inputs)),
        stack(*(sst for _, sst in inputs)))
    for e, (state, (fields, sst)) in enumerate(zip(states, inputs)):
        serial = _assert_matches_oracle(coupler, state, fields, sst)
        for (path, leaf), (_, member) in zip(
                tree_leaves(serial),
                tree_leaves(tree_map(lambda a: a[e], batch))):
            assert K.bitwise(leaf, member), (e, path)
    with pytest.raises(ValueError, match="member axes"):
        coupler.turbulent_fluxes(states[0], sst_celsius=inputs[0][1],
                                 **stack(*(f for f, _ in inputs)))


def test_surface_temperature_is_the_coupled_surface_t_sfc():
    """The skin temperature's one owner gives ``surface_state_for_atm``'s
    ``t_sfc`` byte for byte, serial and for three members — and the batched
    call gives each member its serial bytes."""
    coupler, g, land = _coupler("float64")
    states = [_state(coupler, g, land, ice, seed=e)
              for e, ice in enumerate(("free", "polar", "snowball"))]
    ssts = [_inputs(g, land, "float64", seed=e)[1] for e in range(3)]
    batch = tree_map(lambda *a: np.stack(a, axis=-3), *states)
    batch_sst = np.stack(ssts)
    for state, sst in [(states[0], ssts[0]), (batch, batch_sst)]:
        got = coupler.surface_temperature(state, sst)
        want = coupler.surface_state_for_atm(state, sst).t_sfc
        assert got.shape == want.shape and K.bitwise(got, want)
    batched = coupler.surface_temperature(batch, batch_sst)
    assert batched.shape == (3, 16, 24)
    for e in range(3):
        assert K.bitwise(batched[e],
                         coupler.surface_temperature(states[e], ssts[e]))


@pytest.mark.parametrize("lead", [(), (3,)])
def test_water_only_regrid_matches_whole_grid_oracle(lead):
    """Radiation, rain and river mouths go to the ocean through the water
    cells only: dropping the dry cells' ``+0.0`` terms changes no bit, with
    negative zeros and both signs in the field."""
    coupler, g, land = _coupler("float64")
    rng = np.random.default_rng(9)
    for dtype in (np.float64, np.float32):
        field = rng.normal(size=lead + (16, 24)).astype(dtype)
        field[..., ::3, :] = -0.0
        field[..., 1::3, ::2] = 0.0
        got = coupler.water_flux_to_ocean(field)
        assert K.bitwise(got, K.water_to_ocn_ref(coupler, field))
        assert not np.signbit(got[got == 0.0]).any()
        assert np.all(got[..., land] == 0.0)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_shared_stability_is_the_three_evaluation_form(dtype):
    """``ocean_fluxes`` evaluates the Louis function once and shares it with
    the roughness iteration and the bulk body: the same bytes as evaluating
    it three times; ``bulk_fluxes`` keeps its nine-key contract."""
    rng = np.random.default_rng(11)
    n = 4001
    t_air = (285.0 + rng.normal(scale=8.0, size=n)).astype(dtype)
    sst = (286.0 + rng.normal(scale=8.0, size=n)).astype(dtype)
    q_air = rng.uniform(0.0, 0.02, n).astype(dtype)
    u = rng.normal(scale=8.0, size=n).astype(dtype)
    v = rng.normal(scale=8.0, size=n).astype(dtype)
    u[:50] = v[:50] = 0.0                    # under the gustiness floor
    ps = rng.uniform(9.5e4, 1.03e5, n).astype(dtype)
    p = SurfaceFluxParams()
    got = ocean_fluxes(t_air, q_air, u, v, ps, sst, p)
    want = K.ocean_fluxes_ref(t_air, q_air, u, v, ps, sst, p)
    assert got.keys() == want.keys() and len(got) == 9
    assert all(K.bitwise(got[k], want[k]) for k in got)
    z0 = rng.uniform(1e-4, 0.5, n)
    wet = rng.uniform(0.0, 1.0, n)
    got = bulk_fluxes(t_air, q_air, u, v, ps, sst, z0, wet, p)
    want = K.bulk_fluxes_ref(t_air, q_air, u, v, ps, sst, z0, wet, p)
    assert got.keys() == want.keys() and len(got) == 9
    assert all(K.bitwise(got[k], want[k]) for k in got)
    wind = np.sqrt(u**2 + v**2)
    assert K.bitwise(ocean_roughness(wind, got["rib"], p),
                     K.ocean_roughness_ref(wind, got["rib"], p))
