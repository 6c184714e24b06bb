"""Concurrent coupled execution: equivalence, overlap, and prediction.

The requirements these encode (ISSUE 5): the pool-split driver
(``repro.parallel.coupled``) must reproduce the serial float64 trajectory
*bitwise* over multiple simulated days — same exchange epochs, same
operation order; the per-rank spans must sum into one coherent profile
in the caller; every rank must start from an empty scratch arena; a
mis-tagged coupler exchange with two active pools must be diagnosed as a
deadlock naming both pools' waiting ranks; and the calibrated
event-simulator prediction must track the functional pool-split speedup.
"""

import time

import numpy as np
import pytest

from repro.core import FoamModel
from repro.core import test_config as tiny_config
from repro.parallel import DeadlockError, run_ranks
from repro.parallel.coupled import (
    TAG_ATM_STATE,
    TAG_FORCING,
    TAG_SST,
    TAG_SURFACE,
    PoolLayout,
    run_concurrent_coupled,
)
from repro.perf.costmodel import (
    AtmosphereCost,
    OceanCost,
    calibrate_from_profile,
)
from repro.perf.eventsim import (
    atmosphere_parallel_efficiency,
    predict_concurrent_speedup,
)
from repro.perf.profiler import (
    disable_profiling,
    enable_profiling,
    take_profile,
)
from tests.helpers import assert_trees_identical

pytestmark = pytest.mark.parallel

# Two simulated days plus three extra steps, so the coupler's forcing
# window is part-full at the end (forcing_steps == 3): equivalence must
# hold for partial windows too, not just at coupling boundaries.
NSTEPS = 51
LAYOUT = PoolLayout(n_atm=2)


@pytest.fixture(scope="module")
def cfg():
    return tiny_config()


@pytest.fixture(scope="module")
def serial(cfg):
    """Profiled serial reference run of NSTEPS coupled steps."""
    model = FoamModel(cfg)
    state = model.initial_state()
    enable_profiling().reset()
    try:
        for _ in range(NSTEPS):
            state = model.coupled_step(state)
    finally:
        disable_profiling()
    return {"model": model, "state": state,
            "profile": take_profile(label="serial",
                                    meta={"dtype": cfg.dtype_policy.name})}


@pytest.fixture(scope="module")
def concurrent_run(cfg, serial):
    """The same NSTEPS on disjoint pools (2 atm + 1 coupler + 1 ocean), each
    rank a fork of the model the serial run has already stepped; profiled
    the one way there is: enable, run, take what the ranks sent home.
    Returns ``(result, profile)``."""
    model = serial["model"]
    enable_profiling().reset()
    try:
        result = run_concurrent_coupled(model, model.initial_state(), NSTEPS,
                                        LAYOUT)
    finally:
        disable_profiling()
    return result, take_profile(label="2+1+1 pool",
                                meta={"dtype": cfg.dtype_policy.name})


@pytest.fixture(scope="module")
def concurrent(concurrent_run):
    return concurrent_run[0]


def _assert_bitwise(a, b, label):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, f"{label}: dtype {a.dtype} != {b.dtype}"
    assert np.array_equal(a, b, equal_nan=True), \
        f"{label}: max |diff| = {np.nanmax(np.abs(a - b))}"


def test_layout_roles():
    lay = PoolLayout(n_atm=3)
    assert lay.world_size == 5
    assert lay.atm_ranks == (0, 1, 2)
    assert lay.cpl_rank == 3
    assert lay.ocn_rank == 4
    assert [lay.role_of(r) for r in range(5)] == \
        ["atm", "atm", "atm", "cpl", "ocn"]
    for outside in (-1, 5):
        with pytest.raises(ValueError):
            lay.role_of(outside)
    with pytest.raises(ValueError):
        PoolLayout(n_atm=0)


def test_atmosphere_trajectory_bitwise(serial, concurrent):
    s, c = serial["state"], concurrent.state
    assert c.time == s.time
    for which in ("atm_prev", "atm_curr"):
        sa, ca = getattr(s, which), getattr(c, which)
        for f in ("vort", "div", "temp", "lnps", "q"):
            _assert_bitwise(getattr(ca, f), getattr(sa, f), f"{which}.{f}")


def test_ocean_trajectory_bitwise(serial, concurrent):
    s, c = serial["state"].ocean, concurrent.state.ocean
    for f in ("u", "v", "temp", "salt", "eta", "ubar", "vbar"):
        _assert_bitwise(getattr(c, f), getattr(s, f), f"ocean.{f}")
    # The SST the coupler last held is the final ocean call's (NaN on land).
    sst = serial["model"].ocean.sst(s)
    _assert_bitwise(concurrent.sst, sst, "sst")


def test_coupler_state_and_accumulators_bitwise(serial, concurrent):
    s, c = serial["state"].coupler, concurrent.state.coupler
    # Mid-window forcing sum: 51 = 8 * 6 + 3 steps accumulated.
    assert c.forcing_steps == s.forcing_steps == 3
    # Every leaf: land, hydrology, ice, rivers, the window, and the last
    # step's rain and evaporation (filled from the payloads on the coupler
    # rank), which have evolved away from their zero start.
    assert_trees_identical(c, s, "coupler")
    assert s.evap.any() and c.precip.shape == c.evap.shape == s.evap.shape


def test_radiation_state_bitwise(serial, concurrent):
    """Every atmosphere rank holds the full-grid radiation; the leader's
    comes home (51 steps: last computed at step 48, applied since)."""
    assert_trees_identical(concurrent.state.radiation,
                           serial["state"].radiation, "radiation")
    assert concurrent.state.radiation.time == 48 * 3600.0


def test_trajectory_allclose_acceptance(serial, concurrent):
    """The acceptance wording: allclose at 1e-12 (bitwise implies it)."""
    s, c = serial["state"], concurrent.state
    for f in ("vort", "div", "temp", "lnps"):
        assert np.allclose(getattr(c.atm_curr, f), getattr(s.atm_curr, f),
                           rtol=1e-12, atol=1e-12)
    sst = serial["model"].ocean.sst(s.ocean)
    assert np.allclose(np.nan_to_num(concurrent.sst), np.nan_to_num(sst),
                       rtol=1e-12, atol=1e-12)
    for f in ("taux", "tauy", "heat_flux", "freshwater"):
        assert np.allclose(getattr(c.coupler.forcing_sum, f),
                           getattr(s.coupler.forcing_sum, f),
                           rtol=1e-12, atol=1e-12)


def test_merged_profile_structure(concurrent_run):
    result, merged = concurrent_run
    # Both atmosphere ranks run dynamics every step (replicated spectral).
    assert merged.calls("atmosphere.dynamics") == LAYOUT.n_atm * NSTEPS
    assert merged.calls("atmosphere.physics") == LAYOUT.n_atm * NSTEPS
    assert merged.calls("ocean.step") == NSTEPS // 6
    assert merged.calls("coupler.merge_surface") == NSTEPS
    # The ranks drive the phases, never the serial step that composes them.
    assert merged.calls("runs.coupled_step") == 0
    assert set(merged.layer_seconds()) == {"atmosphere", "coupler", "ocean"}
    # Spans are summed over ranks that ran side by side; the run's wall is
    # the slowest rank's, a max and not a sum.
    assert len(result.rank_walls) == LAYOUT.world_size
    assert result.wall_seconds == max(result.rank_walls)
    assert not hasattr(result, "profile")


def test_overlap_accounting(concurrent):
    assert concurrent.ocean_busy_seconds > 0.0
    assert 0.0 <= concurrent.overlap_seconds <= concurrent.ocean_busy_seconds
    assert 0.0 <= concurrent.hidden_fraction <= 1.0
    # The ocean rank spends most of the run waiting for forcing windows.
    assert concurrent.waits.get("forcing", 0.0) > 0.0


def test_workspace_arenas_disjoint(serial, concurrent):
    """Each rank process reports its own arena, emptied at fork: only the
    counters come back (never the buffers), and every buffer a rank holds
    is one it allocated itself — none inherited from the caller, whose
    arena the serial run has already warmed."""
    stats = concurrent.ws_stats
    assert [st["rank"] for st in stats] == list(range(LAYOUT.world_size))
    assert [st["role"] for st in stats] == ["atm", "atm", "cpl", "ocn"]
    for st in stats:
        assert st["misses"] == st["buffers"] > 0
        assert st["hits"] > 0 and st["nbytes"] > 0
    assert not hasattr(concurrent, "workspaces")


def test_calibration_infers_the_atmosphere_rank_count(serial, concurrent_run):
    """One calibrator for both: the rank count is in the profile (dynamics
    calls per merged surface), so radiation — band-decomposed, summed over
    ranks — is scaled by it without being told."""
    for profile, n_atm in ((serial["profile"], 1),
                           (concurrent_run[1], LAYOUT.n_atm)):
        assert (profile.calls("atmosphere.dynamics")
                // profile.calls("coupler.merge_surface")) == n_atm
        costs = calibrate_from_profile(profile)
        rad = profile["atmosphere.radiation"]
        assert (costs.radiation_step_seconds - costs.step_seconds
                == pytest.approx(rad.inclusive * n_atm / rad.calls))
        assert costs.dynamics_seconds == pytest.approx(
            profile["atmosphere.dynamics"].per_call)


def _costs_from_spans(profile) -> dict:
    """The per-step costs a profile holds, read off its spans by name."""
    steps = profile.calls("coupler.merge_surface")
    n_atm = profile.calls("atmosphere.dynamics") // steps
    layers = profile.layer_seconds()
    rad = profile["atmosphere.radiation"]
    step = (layers["atmosphere"] - rad.inclusive) / steps
    return {"step_seconds": step,
            "radiation_step_seconds": step + rad.inclusive * n_atm / rad.calls,
            "coupler_seconds": layers["coupler"] / steps,
            "coupler_exposed_seconds":
                profile["coupler.merge_surface"].inclusive / steps,
            "ocean_call_seconds": layers["ocean"] / profile.calls("ocean.step"),
            "dynamics_seconds": profile["atmosphere.dynamics"].per_call}


def test_eventsim_prediction_tracks_functional(serial, concurrent_run, cfg):
    """The prediction is the two profiles' spans and nothing else, checked
    without a clock: every cost the simulator used is the value of the span
    of that name, and both simulated walls are made of those costs.  (The
    functional speedup is a wall-clock ratio of two runs: it is printed by
    ``examples/concurrent_coupled.py`` and measured by the ledger.)"""
    serial_spans = _costs_from_spans(serial["profile"])
    spans = _costs_from_spans(concurrent_run[1])
    atm = AtmosphereCost(nlat=cfg.atm_nlat, nlon=cfg.atm_nlon,
                         nlev=cfg.atm_nlev, mmax=cfg.atm_mmax, dt=cfg.atm_dt)
    ocn = OceanCost(nx=cfg.ocn_nx, ny=cfg.ocn_ny, nlev=cfg.ocn_nlev,
                    dt_long=cfg.ocean_coupling_interval)
    pred = predict_concurrent_speedup(
        calibrate_from_profile(serial["profile"]),
        calibrate_from_profile(concurrent_run[1]), LAYOUT.n_atm,
        atm=atm, ocn=ocn)

    used = dict(pred["per_step_costs"])
    window = spans.pop("dynamics_seconds")
    assert used.pop("overlap_seconds") == window
    assert used == {**spans, "transpose_seconds": 0.0, "schedule": "sync",
                    "source": "2+1+1 pool"}

    nsteps = atm.steps_per_day()
    ncalls = nsteps // cfg.atm_steps_per_coupling
    serial_wall = ((nsteps - 2) * serial_spans["step_seconds"]
                   + 2 * serial_spans["radiation_step_seconds"]
                   + nsteps * serial_spans["coupler_seconds"]
                   + ncalls * serial_spans["ocean_call_seconds"])
    assert pred["serial_wall_seconds"] == pytest.approx(serial_wall, rel=1e-12)
    # Each atmosphere rank runs its share of every step, then the exposed
    # coupler slice; the ocean call minus the dynamics window stalls it at
    # each boundary, and the last call drains whole.  (A step's share is
    # at least the dynamics window, so the ocean never falls further
    # behind.)
    ranks = LAYOUT.n_atm * atmosphere_parallel_efficiency(LAYOUT.n_atm,
                                                          atm.nlat)
    stall = max(0.0, spans["ocean_call_seconds"] - window)
    concurrent_wall = ((nsteps - 2) * spans["step_seconds"] / ranks
                       + 2 * spans["radiation_step_seconds"] / ranks
                       + nsteps * spans["coupler_exposed_seconds"]
                       + (ncalls - 1) * stall + spans["ocean_call_seconds"])
    assert pred["concurrent_wall_seconds"] == pytest.approx(concurrent_wall,
                                                            rel=1e-12)
    assert pred["speedup"] == (pred["serial_wall_seconds"]
                               / pred["concurrent_wall_seconds"])


def test_mistagged_coupler_exchange_deadlocks_both_pools():
    """A wrong-tag FORCING send wedges both pools; the report names them."""
    layout = PoolLayout(n_atm=2)

    def worker(comm):
        role = layout.role_of(comm.rank)
        if role == "atm":
            # Both atmosphere ranks wait for a surface that never comes.
            return comm.recv(layout.cpl_rank, TAG_SURFACE)
        if role == "cpl":
            # Mis-tagged: the forcing goes out under TAG_SST, so the ocean
            # (waiting on TAG_FORCING) never matches it.
            comm.send({"taux": np.zeros(3)}, layout.ocn_rank, TAG_SST)
            return comm.recv(layout.atm_ranks[0], TAG_ATM_STATE)
        return comm.recv(layout.cpl_rank, TAG_FORCING)

    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(layout.world_size, worker, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"deadlock diagnosis took {elapsed:.1f}s"

    report = excinfo.value.report
    # Every rank of both pools (and the coupler) is named as blocked.
    assert {b.rank for b in report.blocked} == {0, 1, 2, 3}
    by_rank = {b.rank: b for b in report.blocked}
    for r in layout.atm_ranks:
        assert by_rank[r].peer == layout.cpl_rank
        assert by_rank[r].tag == TAG_SURFACE
    assert by_rank[layout.ocn_rank].peer == layout.cpl_rank
    assert by_rank[layout.ocn_rank].tag == TAG_FORCING


def test_one_leg_sends_point_to_point_and_one_barrier(cfg, concurrent):
    """A 6-step 1 + 1 + 1 leg is 21 exchange sends — per step the state
    and the physics to the coupler and the surface back, then the initial
    SST, one forcing window and its SST — plus the 4 of the barrier that
    starts the rank walls together.  No other collective runs: the pool
    has no communicator of its own, and atmosphere ranks swap their bands
    point to point (the 2 + 1 + 1 run sends under the same two labels)."""
    model = FoamModel(cfg)
    leg = run_concurrent_coupled(model, model.initial_state(), 6,
                                 PoolLayout(n_atm=1))
    assert sum(s.msgs_sent for s in leg.comm_stats) == 25
    assert sum(s.op_msgs.get("barrier", 0) for s in leg.comm_stats) == 4
    for result in (leg, concurrent):
        assert set().union(*(s.op_msgs for s in result.comm_stats)) == {
            "send", "barrier"}


def test_rejects_more_atm_ranks_than_latitudes(cfg):
    with pytest.raises(ValueError):
        run_concurrent_coupled(FoamModel(cfg), None, 1,
                               PoolLayout(n_atm=cfg.atm_nlat + 1))


def test_only_the_atmosphere_leader_sends_the_state_home(cfg, monkeypatch):
    """The spectral state is replicated on every atmosphere rank and the
    caller reads the leader's: the other ranks return their bookkeeping,
    no state array — and the assembled state is still the serial one."""
    from repro.parallel import coupled
    from repro.util.tree import tree_leaves

    results = []

    def spy(*args, **kwargs):
        results.extend(run_ranks(*args, **kwargs))
        return results

    monkeypatch.setattr(coupled, "run_ranks", spy)
    model = FoamModel(cfg)
    out = run_concurrent_coupled(model, model.initial_state(), 3, LAYOUT)
    state = model.initial_state()
    for _ in range(3):
        state = model.coupled_step(state)
    assert_trees_identical(out.state, state)

    leader, other = (results[r] for r in LAYOUT.atm_ranks)
    assert {"atm_prev", "atm_curr", "radiation", "time"} <= leader.keys()
    assert other.keys() == {"rank", "role", "wall", "waits", "ws_stats", "stats"}
    assert not any(isinstance(leaf, np.ndarray) for _, leaf in tree_leaves(other))
