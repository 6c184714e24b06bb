"""Integration tests for the FOAM ocean model and its baseline."""

import dataclasses

import numpy as np
import pytest

from repro.ocean import model as ocean_model
from repro.ocean import (
    BarotropicParams,
    BarotropicSolver,
    ConventionalOceanModel,
    OceanForcing,
    OceanGrid,
    OceanModel,
    aquaplanet_topography,
    world_topography,
)
from repro.util.tree import tree_map
from tests.oracles import barotropic_step_ref, bitwise


@pytest.fixture(scope="module")
def aqua():
    g = OceanGrid(nx=24, ny=24, nlev=6)
    land, depth = aquaplanet_topography(g)
    return OceanModel(g, land, depth)


@pytest.fixture(scope="module")
def world():
    g = OceanGrid(nx=32, ny=32, nlev=8)
    land, depth = world_topography(g)
    return OceanModel(g, land, depth)


def wind(model):
    g = model.grid
    tx = 0.1 * np.sin(2 * g.lats[:, None]) * np.ones((1, g.nx)) * model.mask2d
    return OceanForcing(tx, np.zeros_like(tx),
                        np.zeros((g.ny, g.nx)), np.zeros((g.ny, g.nx)))


# ------------------------------------------------------------- barotropic
def test_barotropic_params_validation():
    with pytest.raises(ValueError):
        BarotropicParams(slow_factor=0.0)
    with pytest.raises(ValueError):
        BarotropicParams(slow_factor=1.5)


def test_slowing_relaxes_cfl_by_slow_factor():
    g = OceanGrid(nx=24, ny=24, nlev=4)
    land, depth = aquaplanet_topography(g)
    mask = ~land
    fast = BarotropicSolver(g, depth, mask, BarotropicParams(slow_factor=1.0))
    slow = BarotropicSolver(g, depth, mask, BarotropicParams(slow_factor=0.1))
    assert slow.dt_max == pytest.approx(10.0 * fast.dt_max)
    assert slow.n_substeps(6 * 3600.0) < fast.n_substeps(6 * 3600.0)


def test_barotropic_conserves_volume():
    """Mean sea level is exactly conserved by the flux-form eta step."""
    g = OceanGrid(nx=24, ny=24, nlev=4)
    land, depth = world_topography(g)
    solver = BarotropicSolver(g, depth, ~land)
    rng = np.random.default_rng(0)
    eta = np.where(~land, rng.normal(scale=0.1, size=(24, 24)), 0.0)
    ubar = np.where(~land, rng.normal(scale=0.05, size=(24, 24)), 0.0)
    vbar = np.where(~land, rng.normal(scale=0.05, size=(24, 24)), 0.0)
    zero = np.zeros((24, 24))
    msl0 = solver.mean_sea_level(eta)
    for _ in range(5):
        eta, ubar, vbar, _ = solver.step(eta, ubar, vbar, zero, zero, 6 * 3600.0)
    assert solver.mean_sea_level(eta) == pytest.approx(msl0, abs=1e-12)
    assert np.all(np.isfinite(eta))


def test_barotropic_geostrophic_adjustment_bounded():
    """An eta bump radiates (slowed) gravity waves and stays bounded."""
    g = OceanGrid(nx=24, ny=24, nlev=4)
    land, depth = aquaplanet_topography(g)
    solver = BarotropicSolver(g, depth, ~land)
    eta = np.zeros((24, 24))
    eta[12, 12] = 1.0
    ubar = np.zeros_like(eta)
    vbar = np.zeros_like(eta)
    zero = np.zeros_like(eta)
    for _ in range(40):
        eta, ubar, vbar, _ = solver.step(eta, ubar, vbar, zero, zero, 3600.0)
    assert np.abs(eta).max() <= 1.0 + 1e-9
    assert np.all(np.isfinite(ubar))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("nens", [0, 3], ids=["serial", "members"])
@pytest.mark.parametrize("topography", [world_topography, aquaplanet_topography],
                         ids=["world", "aquaplanet"])
def test_barotropic_step_matches_allocating_oracle(topography, nens, dtype):
    """The in-place subcycle is the allocate-per-operation loop, bit for
    bit, -0.0 included; it leaves its inputs alone."""
    g = OceanGrid(nx=32, ny=24, nlev=4, dtype=dtype)
    land, depth = topography(g)
    solver = BarotropicSolver(g, depth, ~land)
    rng = np.random.default_rng(2)
    shape = (nens,) * bool(nens) + (g.ny, g.nx)

    def field(scale):
        f = np.where(~land, rng.normal(scale=scale, size=shape), 0.0)
        f[rng.random(shape) < 0.1] = -0.0
        return f.astype(g.policy.float_dtype)
    args = [field(s) for s in (0.1, 0.05, 0.05, 1e-6, 1e-6)]
    before = [a.copy() for a in args]
    for dt_outer in (6 * 3600.0, 24 * 3600.0):
        got = solver.step(*args, dt_outer)
        want = barotropic_step_ref(solver, *args, dt_outer)
        assert got[3] == want[3] > 1
        for a, b in zip(got[:3], want[:3]):
            assert a.dtype == b.dtype == np.dtype(dtype) and a.shape == shape
            assert bitwise(a, b)
    for a, b in zip(args, before):
        assert bitwise(a, b)


# ------------------------------------------------------------- ocean model
def test_initial_state_masked_and_warm_tropics(world):
    st = world.initial_state()
    sst = world.sst(st)
    j_eq = world.grid.ny // 2
    j_hi = world.grid.ny - 2
    assert np.nanmean(sst[j_eq]) > 15.0
    assert np.nanmean(sst[j_hi]) < 8.0
    assert np.all(st.temp[~world.mask3d] == 0.0)
    with pytest.raises(ValueError):
        world.initial_state("el_nino")


def test_rest_unforced_stays_calm(aqua):
    st = aqua.initial_state()
    f = OceanForcing.zeros(aqua.grid.ny, aqua.grid.nx)
    out = aqua.run(st, 20, f)
    u, v = aqua.total_velocity(out)
    assert np.abs(u).max() < 0.5
    assert np.all(np.isfinite(out.temp))


def test_wind_driven_spinup_produces_circulation(world):
    st = world.initial_state()
    out = world.run(st, 80, wind(world))
    u, v = world.total_velocity(out)
    assert 0.01 < np.abs(u).max() < 5.0
    ke = world.total_kinetic_energy(out)
    assert ke > 0


def test_tracer_means_nearly_conserved_unforced(aqua):
    st = aqua.initial_state()
    t0 = aqua.mean_temperature(st)
    s0 = aqua.mean_salinity(st)
    out = aqua.run(st, 40, OceanForcing.zeros(aqua.grid.ny, aqua.grid.nx))
    assert abs(aqua.mean_temperature(out) - t0) < 0.05
    assert abs(aqua.mean_salinity(out) - s0) < 0.01


def test_heat_flux_warms_ocean(aqua):
    """Heated run ends warmer than an otherwise identical control run."""
    g = aqua.grid
    f_warm = OceanForcing(np.zeros((g.ny, g.nx)), np.zeros((g.ny, g.nx)),
                          np.full((g.ny, g.nx), 200.0), np.zeros((g.ny, g.nx)))
    out_warm = aqua.run(aqua.initial_state(), 20, f_warm)
    out_ctrl = aqua.run(aqua.initial_state(), 20,
                        OceanForcing.zeros(g.ny, g.nx))
    assert aqua.mean_temperature(out_warm) > aqua.mean_temperature(out_ctrl)


def test_freshwater_freshens_surface(aqua):
    st = aqua.initial_state()
    g = aqua.grid
    f = OceanForcing(np.zeros((g.ny, g.nx)), np.zeros((g.ny, g.nx)),
                     np.zeros((g.ny, g.nx)), np.full((g.ny, g.nx), 1e-4))
    s0 = float(np.mean(st.salt[0]))
    out = aqua.run(st, 20, f)
    assert float(np.mean(out.salt[0])) < s0


def test_sst_clamp_enforced(world):
    """Surface temperature never falls below the paper's -1.92 C."""
    st = world.initial_state()
    g = world.grid
    # Brutal cooling everywhere.
    f = OceanForcing(np.zeros((g.ny, g.nx)), np.zeros((g.ny, g.nx)),
                     np.full((g.ny, g.nx), -800.0), np.zeros((g.ny, g.nx)))
    out = world.run(st, 30, f)
    assert np.nanmin(world.sst(out)) >= -1.92 - 1e-9


def test_world_run_one_season_stable(world):
    st = world.initial_state()
    g = world.grid
    tx = 0.1 * np.sin(2 * g.lats[:, None]) * np.ones((1, g.nx)) * world.mask2d
    q = (60.0 * np.cos(g.lats[:, None]) ** 2 - 30.0) * np.ones((1, g.nx)) * world.mask2d
    f = OceanForcing(tx, np.zeros_like(tx), q, np.zeros((g.ny, g.nx)))
    out = world.run(st, 360, f)   # 90 days
    u, v = world.total_velocity(out)
    for arr in (u, v, out.temp, out.salt, out.eta):
        assert np.all(np.isfinite(arr))
    assert np.abs(u).max() < 5.0


def test_op_count_increases(world):
    st = world.initial_state()
    c0 = world.op_count
    world.step(st, wind(world))
    assert world.op_count > c0


def test_op_count_counts_the_barotropic_substeps_taken(aqua):
    """The step runs one barotropic subcycle over the whole long step, not
    one per internal step: on this grid 4 substeps, not 6 x 1."""
    p = aqua.params
    n = aqua.baro.n_substeps(p.dt_long)
    assert n != p.n_internal * aqua.baro.n_substeps(p.dt_long / p.n_internal)
    n3, n2 = int(aqua.mask3d.sum()), int(aqua.mask2d.sum())
    c0 = aqua.op_count
    aqua.step(aqua.initial_state(), wind(aqua))
    assert aqua.op_count - c0 == (250 * n3 + p.n_internal * 60 * n3
                                  + n * 30 * n2)


# ------------------------------------------------------------- baseline
def test_conventional_baseline_needs_many_more_steps():
    """The ablation core: FOAM's techniques cut ops/simulated-time ~10x."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    land, depth = world_topography(g)
    foam = OceanModel(g, land, depth)
    conv = ConventionalOceanModel(g, land, depth)
    n = conv.steps_per_long()
    assert n > 5   # unsplit model must take many small steps per 6h

    foam.op_count = 0
    conv.op_count = 0
    st_f = foam.initial_state()
    st_c = conv.initial_state()
    f = OceanForcing.zeros(g.ny, g.nx)
    foam.step(st_f, f)
    conv.step(st_c, f)
    ratio = conv.op_count / foam.op_count
    assert ratio > 3.0   # order-of-magnitude class advantage


def test_conventional_baseline_physics_comparable():
    """Same equations: short unforced runs agree between FOAM and baseline."""
    g = OceanGrid(nx=24, ny=24, nlev=5)
    land, depth = aquaplanet_topography(g)
    foam = OceanModel(g, land, depth)
    conv = ConventionalOceanModel(g, land, depth)
    f = OceanForcing.zeros(g.ny, g.nx)
    out_f = foam.run(foam.initial_state(), 4, f)
    out_c = conv.run(conv.initial_state(), 4, f)
    # Temperature fields stay close (same physics, different step sizes).
    diff = np.abs(out_f.temp - out_c.temp).max()
    assert diff < 0.5


# ------------------------------------------------------------- dtype
def test_default_forcing_keeps_every_leaf_dtype():
    """``run`` without a forcing must not promote a float32 run: the default
    zero forcing carries the grid's dtype, so eta / ubar / vbar stay single."""
    g = OceanGrid(nx=24, ny=24, nlev=5, dtype="float32")
    model = OceanModel(g, *world_topography(g))
    out = model.run(model.initial_state(), 2)
    leaves = {f.name: getattr(out, f.name) for f in dataclasses.fields(out)}
    arrays = {k: v for k, v in leaves.items() if isinstance(v, np.ndarray)}
    assert len(arrays) == 7
    assert {k: v.dtype for k, v in arrays.items()} == dict.fromkeys(
        arrays, np.dtype(np.float32))


# ------------------------------------------------------------- wet box, row blocks
def _whole_grid(mask3d):
    return mask3d.shape[0], 0, mask3d.shape[1]


def _shelf_topography(grid):
    """Two all-land rows at *each* wall, the floor two levels up, scattered
    islands and three column depths in between."""
    rng = np.random.default_rng(11)
    land = rng.random((grid.ny, grid.nx)) < 0.2
    land[:2] = land[-2:] = True
    floors = grid.z_half[[2, grid.nlev - 3, grid.nlev - 2]]
    depth = np.where(land, 0.0, rng.choice(floors, size=land.shape))
    return land, depth


def _channel_topography(grid):
    """One wet row, one wet level: the box must still hold two rows."""
    land = np.ones((grid.ny, grid.nx), dtype=bool)
    land[grid.ny - 1, 2:-2] = False
    return land, np.where(land, 0.0, float(grid.z_half[1]))


def _boxed_and_whole(cls, grid, topography):
    """(model on its wet box, the same model made to use the whole grid)."""
    land, depth = topography(grid)
    boxed = cls(grid, land, depth)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ocean_model, "_wet_box", _whole_grid)
        whole = cls(grid, land, depth)
    assert whole.box.index == np.s_[:grid.nlev, ..., 0:grid.ny, :]
    return boxed, whole


def _members(state, forcing, nens):
    """``nens`` members of (state, forcing), each nudged differently."""
    scale = 1.0 + 0.05 * np.arange(nens)
    fdt = state.temp.dtype

    def stack(a, axis):
        shape = [1] * (a.ndim + 1)
        shape[axis] = nens
        return (np.stack([a] * nens, axis=axis)
                * scale.reshape(shape)).astype(fdt)
    state = tree_map(lambda a: stack(a, 1 if a.ndim == 3 else 0), state)
    return state, tree_map(lambda a: stack(a, 0), forcing)


def _forcing(model, seed=5):
    """Wind bands, tropics-in / poles-out heat, fresh water: all non-zero."""
    g = model.grid
    rng = np.random.default_rng(seed)
    lat = g.lats[:, None]
    noise = rng.normal(size=(4, g.ny, g.nx))
    fields = (-0.08 * np.cos(3 * lat) * np.cos(lat) + 0.01 * noise[0],
              0.005 * noise[1],
              40.0 * (np.cos(lat) ** 2 - 0.6) + 5.0 * noise[2],
              1e-5 * noise[3])
    return OceanForcing(*(f.astype(g.policy.float_dtype) for f in fields))


def _assert_states_bitwise(a, b):
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        assert bitwise(x, y) if isinstance(x, np.ndarray) else x == y, f.name


BOX_CASES = {
    # name: (topography, (nx, ny, nlev), the box is smaller than the grid)
    "world": (world_topography, (32, 32, 8), True),
    "aquaplanet": (aquaplanet_topography, (24, 24, 6), False),
    "shelf": (_shelf_topography, (16, 20, 7), True),
    "channel": (_channel_topography, (16, 12, 4), True),
}


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("nens", [0, 3], ids=["serial", "members"])
@pytest.mark.parametrize("case", BOX_CASES)
def test_wet_box_step_equals_whole_grid_step(case, nens, dtype):
    """The step on the wet box is the whole-grid step, bit for bit."""
    topography, (nx, ny, nlev), smaller = BOX_CASES[case]
    g = OceanGrid(nx=nx, ny=ny, nlev=nlev, dtype=dtype)
    boxed, whole = _boxed_and_whole(OceanModel, g, topography)
    assert (boxed.box.index != whole.box.index) == smaller
    if case == "shelf":
        assert boxed.box.index == np.s_[:nlev - 2, ..., 2:ny - 2, :]
    state, forcing = boxed.initial_state(), _forcing(boxed)
    if nens:
        state, forcing = _members(state, forcing, nens)
    a, b = state, state
    for _ in range(3):
        a, b = boxed.step(a, forcing), whole.step(b, forcing)
    _assert_states_bitwise(a, b)
    assert a.temp.dtype == np.dtype(dtype)
    assert np.abs(a.u).max() > 0.0 or case == "channel"


def test_wet_box_step_from_negative_zero_velocities():
    """A column whose wet products are all -0.0 is the one place the dry
    levels the box leaves out (which add +0.0 to the depth-mean sums) could
    show: start from velocities of -0.0 everywhere."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    boxed, whole = _boxed_and_whole(OceanModel, g, world_topography)
    state = boxed.initial_state()
    for name in ("u", "v", "ubar", "vbar"):
        getattr(state, name)[...] = -0.0
    forcing = _forcing(boxed)
    forcing.tauy[...] = 0.0
    a, b = state, state
    for _ in range(3):
        a, b = boxed.step(a, forcing), whole.step(b, forcing)
    _assert_states_bitwise(a, b)


def test_conventional_baseline_on_wet_box_equals_whole_grid():
    """The baseline rewrites ``dt_long`` / ``n_internal`` around every inner
    step: nothing the box hoists may depend on them."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    boxed, whole = _boxed_and_whole(ConventionalOceanModel, g, world_topography)
    assert boxed.box.index != whole.box.index and boxed.steps_per_long() > 5
    state, forcing = boxed.initial_state(), _forcing(boxed)
    _assert_states_bitwise(boxed.step(state, forcing), whole.step(state, forcing))


@pytest.mark.parametrize("nens", [0, 3], ids=["serial", "members"])
@pytest.mark.parametrize("cls", [OceanModel, ConventionalOceanModel])
def test_write_back_dry_cells_are_positive_zero(cls, nens):
    """The write-back masks nothing after the polar filter: every dry cell
    of u, v, T and S the step hands the filter must already be +0.0 (sign
    bit clear), even from a state whose dry cells are all -0.0."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    model = cls(g, *world_topography(g))
    state, forcing = model.initial_state(), _forcing(model)
    if nens:
        state, forcing = _members(state, forcing, nens)
    dry = np.broadcast_to(~ocean_model._lift(model.mask3d, state.u),
                          state.u.shape)
    for name in ("u", "v", "temp", "salt"):
        np.copyto(getattr(state, name), -0.0, where=dry)
    plan, seen = model.filter3d, []

    def recorded(field):
        seen.append(field.copy())
        return plan(field)
    model.filter3d = recorded
    out = model.step(state, forcing)
    inner_steps = 1 if cls is OceanModel else model.steps_per_long()
    assert len(seen) == 4 * inner_steps
    for f3 in seen + [out.u, out.v, out.temp, out.salt]:
        assert np.all(f3[dry] == 0.0) and not np.signbit(f3[dry]).any()


@pytest.mark.parametrize("nens", [0, 3], ids=["serial", "members"])
def test_internal_loop_is_bitwise_for_any_row_blocking(nens, monkeypatch):
    """One row per block, a block size that does not divide the rows, and
    one block for everything: the same bits."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    model = OceanModel(g, *world_topography(g))
    state, forcing = model.initial_state(), _forcing(model)
    if nens:
        state, forcing = _members(state, forcing, nens)
    kw, nyb = model.box.mask3d.shape[:2]
    per_row = kw * max(nens, 1) * g.nx
    assert nyb % 5 and nyb > 5
    got = []
    for elements in (1, 5 * per_row, 10**9):
        monkeypatch.setattr(ocean_model, "_BLOCK_ELEMENTS", elements)
        got.append(model.step(model.step(state, forcing), forcing))
    _assert_states_bitwise(got[0], got[1])
    _assert_states_bitwise(got[0], got[2])
