"""Integration tests for the coupled FOAM model (repro.core)."""

import copy

import numpy as np
import pytest

from repro.core import (
    EnsembleConfig,
    FoamConfig,
    FoamEnsemble,
    FoamModel,
    HistoryWriter,
    load_checkpoint,
    load_history,
    paper_config,
    save_restart,
)
from repro.core import test_config as tiny_config
from repro.runs import HistoryObserver
from repro.scenarios import ClimatologyObserver
from tests.helpers import assert_trees_identical


@pytest.fixture(scope="module")
def model():
    return FoamModel(tiny_config())


@pytest.fixture(scope="module")
def spun_up(model):
    """A 3-day coupled run shared by several assertions."""
    st = model.initial_state()
    return model.run_days(st, 3.0)


def test_config_validation():
    with pytest.raises(ValueError):
        FoamConfig(atm_dt=1700.0)      # does not divide 6 h


def test_paper_config_matches_paper():
    cfg = paper_config()
    assert cfg.atm_mmax == 15          # R15
    assert (cfg.atm_nlat, cfg.atm_nlon) == (40, 48)
    assert cfg.atm_nlev == 18
    assert cfg.atm_dt == 1800.0        # 30-minute step
    assert (cfg.ocn_nx, cfg.ocn_ny, cfg.ocn_nlev) == (128, 128, 16)
    assert cfg.atm_steps_per_coupling == 12   # ocean called 4x/day
    assert cfg.radiation_interval == 43200.0  # radiation 2x/day


def test_one_coupled_day_finite(model):
    st = model.initial_state()
    st = model.run_days(st, 1.0)
    d = model.dycore.diagnose(st.atm_curr)
    assert np.all(np.isfinite(d.u))
    assert np.all(np.isfinite(st.ocean.temp))
    assert 180.0 < d.temp.min() and d.temp.max() < 350.0


def test_multiday_run_stays_physical(spun_up, model):
    d = model.dycore.diagnose(spun_up.atm_curr)
    assert np.abs(d.u).max() < 150.0
    sst = model.ocean.sst(spun_up.ocean)
    assert -2.0 <= np.nanmin(sst) and np.nanmax(sst) < 45.0
    assert spun_up.atm_curr.q.min() >= 0.0
    assert spun_up.atm_curr.q.max() < 0.05


def test_ocean_called_on_schedule(model):
    st = model.initial_state()
    t0 = st.ocean.time
    st = model.run_days(st, 1.0)
    # 4 ocean calls per day at the 6 h coupling interval.
    assert st.ocean.time - t0 == pytest.approx(86400.0)


def test_transform_calls_per_coupled_step(monkeypatch):
    """One coupled step makes 13 outermost transform calls and diagnoses
    grad(ln ps) once: only the dynamics' grid pass reads it (physics'
    ``diagnose`` builds neither it nor zeta and D).

    The methods are wrapped as instance attributes, the way the ledger
    (``benchmarks/e2e/workloads.py``) wraps them for
    ``atmosphere.spectral_calls``: a transform called by a transform
    (``synthesize`` -> ``synthesize_many``) counts once.
    """
    model = FoamModel(tiny_config())
    state = model.initial_state()
    outermost, depth, gradient_ndims = [], [0], []

    def wrap(name):
        original = getattr(model.transform, name)

        def traced(*args):
            if depth[0] == 0:
                outermost.append(name)
            if name == "gradient":
                gradient_ndims.append(args[0].ndim)
            depth[0] += 1
            try:
                return original(*args)
            finally:
                depth[0] -= 1
        monkeypatch.setattr(model.transform, name, traced)

    for name in ("analyze", "synthesize", "synthesize_many",
                 "uv_from_vortdiv", "vortdiv_from_uv", "gradient"):
        wrap(name)
    model.coupled_step(state)
    assert len(outermost) == 13, outermost
    assert gradient_ndims.count(2) == 1, gradient_ndims


def test_sst_feels_the_atmosphere(model):
    """Coupling does something: SST pattern changes vs an uncoupled ocean."""
    st = model.initial_state()
    sst0 = np.nan_to_num(model.ocean.sst(st.ocean))
    st = model.run_days(st, 3.0)
    sst1 = np.nan_to_num(model.ocean.sst(st.ocean))
    assert np.abs(sst1 - sst0).max() > 0.05


def test_diagnostics_accumulate(model, tmp_path):
    """Watching a run is an observer reading the state: daily SST (and the
    step's rain) through ``run_days(observers=...)`` and ``load_history``."""
    daily = HistoryObserver(HistoryWriter(tmp_path), fields=("sst", "precip"),
                            interval_steps=round(86400.0 / model.config.atm_dt))
    model.run_days(model.initial_state(), 2.0, observers=(daily,))
    history = load_history(daily.writer.files_written)
    assert history["time"].tolist() == [0.0, 86400.0, 172800.0]
    assert history["sst"].mean(axis=0).shape == (model.ocean_grid.ny,
                                                 model.ocean_grid.nx)
    assert history["precip"].shape == (3, model.config.atm_nlat,
                                       model.config.atm_nlon)


def test_diagnostics_error_when_empty(model):
    """The one accumulating observer refuses to report on no steps."""
    with pytest.raises(RuntimeError, match="no steps observed"):
        ClimatologyObserver(model).metrics(model.initial_state())


def test_water_inventory_reservoirs(model, spun_up):
    inv = model.global_water_inventory(spun_up)
    assert set(inv) == {"atmosphere", "soil", "snow", "rivers"}
    assert inv["atmosphere"] > 0
    assert inv["soil"] > 0
    assert all(v >= 0 for v in inv.values())


def test_water_inventory_reads_rivers_from_the_state(model, spun_up):
    """River storage is the *state's*, not whatever the routing kernel
    (a member of the model object) was last left holding."""
    import dataclasses

    volume = np.zeros_like(spun_up.coupler.river_volume)
    volume[3, 5], volume[7, 2] = 1500.0, 670.0          # m^3
    state = dataclasses.replace(spun_up, coupler=dataclasses.replace(
        spun_up.coupler, river_volume=volume))
    rivers = model.global_water_inventory(state)["rivers"]
    assert isinstance(rivers, float)
    assert rivers == pytest.approx(2.17e6)               # kg
    none = dataclasses.replace(spun_up, coupler=dataclasses.replace(
        spun_up.coupler, river_volume=None))
    assert model.global_water_inventory(none)["rivers"] == 0.0
    # A batched state reports one figure per member.
    from repro.core import stack_members
    batched = stack_members([state, spun_up, state])
    inventory = model.global_water_inventory(batched)
    assert all(v.shape == (3,) for v in inventory.values())
    assert inventory["soil"][1] == model.global_water_inventory(spun_up)["soil"]
    per_member = inventory["rivers"]
    assert per_member[0] == per_member[2] == rivers
    assert per_member[1] == model.global_water_inventory(spun_up)["rivers"]


def test_restart_roundtrip(tmp_path, model, spun_up):
    """Restart files reproduce the state bit-exactly."""
    p = save_restart(tmp_path / "restart.npz", spun_up)
    back = load_checkpoint(p)[0]
    np.testing.assert_array_equal(back.atm_curr.vort, spun_up.atm_curr.vort)
    np.testing.assert_array_equal(back.ocean.temp, spun_up.ocean.temp)
    np.testing.assert_array_equal(back.coupler.hydrology.soil_moisture,
                                  spun_up.coupler.hydrology.soil_moisture)
    assert back.time == spun_up.time


def test_restart_continues_identically(tmp_path):
    """run(0.3 day) -> restart -> run(1 day) is bit-exact vs running through.

    0.3 day is 7 steps here: one step into a forcing window and seven into
    a radiation interval.  The resumed leg runs on a second, fresh model —
    everything it needs is in the file.
    """
    model = FoamModel(tiny_config())
    st_a = model.run_days(model.initial_state(), 0.3)
    assert st_a.coupler.forcing_steps == 1 and st_a.radiation.time == 0.0
    st_b = load_checkpoint(save_restart(tmp_path / "mid.npz", st_a))[0]
    out_a = model.run_days(st_a, 1.0)
    out_b = FoamModel(tiny_config()).run_days(st_b, 1.0)
    assert_trees_identical(out_b, out_a, "restart at step 7")


def test_run_days_steps_as_a_run_plan_does():
    """``run_days`` counts its steps as ``RunPlan(days=...)`` does: a
    fraction of a step rounds, but to no fewer than one."""
    from repro.runs import RunPlan

    model = FoamModel(tiny_config())
    state = model.initial_state()
    dt = model.config.atm_dt
    for days in (0.01, 0.5 * dt / 86400.0, 0.125, 0.3):
        nsteps = RunPlan(config=model.config, days=days).total_steps()
        assert nsteps >= 1
        assert model.run_days(state, days).time == state.time + nsteps * dt, days


def test_model_object_carries_no_trajectory():
    """One model object, any number of trajectories: nothing a step reads
    is left on it by an earlier run (0.75 day ends mid radiation interval,
    3 steps end mid forcing window)."""
    model = FoamModel(tiny_config())
    first = model.run_days(model.initial_state(), 0.75)
    again = model.run_days(model.initial_state(), 0.75)
    assert_trees_identical(again, first, "second run on the same model")
    model.run_days(model.initial_state(), 0.125)        # 3 steps
    after = model.run_days(model.initial_state(), 1.0)
    fresh = FoamModel(tiny_config())
    assert_trees_identical(after, fresh.run_days(fresh.initial_state(), 1.0),
                           "used model vs fresh model")


@pytest.mark.parametrize("nens", [1, 3])
def test_coupled_step_does_not_mutate_its_input(nens):
    """``coupled_step(state) -> state`` writes into nothing it was given: an
    in-place forcing sum, river volume or radiation array would show in the
    input's leaves.  Thirteen steps cover a part-full window with handed-in
    radiation (most), a window's last step (6, 12) and a radiation step (13).
    """
    if nens == 1:
        model = FoamModel(tiny_config())
        state = model.initial_state()
    else:
        ens = FoamEnsemble(EnsembleConfig(nens=nens, base=tiny_config(),
                                          ic_perturbation=1e-8))
        model, state = ens.model, ens.initial_state()
    for step in range(1, 14):
        before = copy.deepcopy(state)
        after = model.coupled_step(state)
        assert_trees_identical(state, before, f"input of step {step}")
        state = after
    assert state.radiation.time == 12 * 3600.0
    assert state.coupler.forcing_steps == 1


def test_history_writer_roundtrip(tmp_path):
    from repro.core import HistoryWriter, load_history

    w = HistoryWriter(tmp_path, prefix="h")
    rng = np.random.default_rng(0)
    f1 = rng.normal(size=(4, 5))
    f2 = rng.normal(size=(4, 5))
    w.record(0.0, sst=f1)
    w.record(86400.0, sst=f2)
    path = w.flush()
    data = load_history(path)
    np.testing.assert_array_equal(data["sst"][0], f1)
    np.testing.assert_array_equal(data["time"], [0.0, 86400.0])
    assert w.flush() is None


def test_history_writer_rejects_inconsistent_fields(tmp_path):
    from repro.core import HistoryWriter

    w = HistoryWriter(tmp_path)
    w.record(0.0, sst=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        w.record(1.0, ice=np.zeros((2, 2)))
