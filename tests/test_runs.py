"""The run-harness contract: plans, keys, and bitwise resume everywhere.

The headline test matrix: ``run(N days)`` is bitwise float64-identical to
``run(k) -> checkpoint -> load -> run(N-k)`` across serial ==
ensemble-member == concurrent rank pools, including resuming a serial
checkpoint onto the rank pools — at any step ``k``, not only where a
forcing window and a radiation interval happen to end.  That equivalence
is what makes :meth:`RunPlan.run_key` a valid cache key for every
execution path.
"""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import FoamConfig
from repro.core.config import test_config as _test_config
from repro.core.history import (
    CHECKPOINT_FORMAT_VERSION,
    load_checkpoint,
    load_history,
)
from repro.runs import (
    RUN_MODES,
    CheckpointSpec,
    HistorySpec,
    RunHarness,
    RunPlan,
)
from tests.helpers import assert_trees_identical

DAYS = 1.0          # total run length; checkpoint taken halfway
CKPT_DAYS = 0.5

# The any-step matrix: 30 steps at test size compute radiation at steps 0,
# 12 and 24 and call the ocean after steps 6, 12, 18, 24 and 30, so the
# checkpoints 1 ... 29 meet every position in both cadences.
N_STEPS = 30
STEP_DAYS = 1.0 / 24.0          # one step of the test configuration
ANY_DAYS = N_STEPS * STEP_DAYS


def _halfway_checkpoint(result):
    """The checkpoint a run wrote at the CKPT_DAYS boundary."""
    cfg = result.plan.resolved_config()
    step = int(round(CKPT_DAYS * 86400.0 / cfg.atm_dt))
    for p in result.checkpoints:
        if p.stem.endswith(f"{step:08d}"):
            return p
    raise AssertionError(
        f"no checkpoint at step {step} among {result.checkpoints}")


@pytest.fixture(scope="module")
def serial_baseline():
    """One straight serial run of the reference plan, shared module-wide."""
    harness = RunHarness(RunPlan(days=DAYS))
    return harness.run()


@pytest.fixture(scope="module")
def serial_checkpointed(tmp_path_factory):
    """The same run with a halfway checkpoint streamed out."""
    td = tmp_path_factory.mktemp("ckpt_serial")
    harness = RunHarness(RunPlan(
        days=DAYS, checkpoint=CheckpointSpec(str(td),
                                             interval_days=CKPT_DAYS)))
    return harness.run()


def _checkpointed_every_step(directory, **plan_kwargs):
    """One continuous run of N_STEPS writing a checkpoint after every step;
    ``result.checkpoints[k - 1]`` is the state after step ``k``."""
    result = RunHarness(RunPlan(
        days=ANY_DAYS, checkpoint=CheckpointSpec(str(directory),
                                                 interval_days=STEP_DAYS),
        **plan_kwargs)).run()
    assert [p.name for p in result.checkpoints] == [
        f"ckpt_{k:08d}.npz" for k in range(1, N_STEPS + 1)]
    return result


@pytest.fixture(scope="module")
def serial_every_step(tmp_path_factory):
    return _checkpointed_every_step(tmp_path_factory.mktemp("every_serial"))


# ----------------------------------------------------------------------
class TestContentHash:
    def test_is_sha256_hex(self):
        h = _test_config().content_hash()
        assert len(h) == 64
        int(h, 16)      # hex-parsable

    def test_pinned(self):
        # A format bump or a new state leaf is not configuration: the hash
        # every checkpoint is stamped with has not moved since PR 22.
        assert _test_config().content_hash() == (
            "17f6e08aa4824c41c68d21da8424998e0450e0b981c191ce2dad9f67e1a7275b")

    def test_stable_across_key_ordering(self):
        cfg = _test_config()
        shuffled = dict(reversed(list(cfg.to_dict().items())))
        assert FoamConfig.from_dict(shuffled).content_hash() \
            == cfg.content_hash()

    def test_changes_with_any_knob(self):
        cfg = _test_config()
        assert dataclasses.replace(cfg, seed=cfg.seed + 1).content_hash() \
            != cfg.content_hash()

    def test_from_dict_rejects_unknown_fields(self):
        payload = _test_config().to_dict()
        payload["not_a_knob"] = 1.0
        with pytest.raises((ValueError, TypeError)):
            FoamConfig.from_dict(payload)

    def test_hashes_no_execution_only_keys(self):
        # The hash (and so the run key and checkpoint stamp) covers
        # result-determining knobs only: how the arithmetic is executed is
        # not configuration, and a stale dict that still says so is refused.
        payload = _test_config().to_dict()
        assert "backend" not in payload
        payload["backend"] = "numpy"
        with pytest.raises(ValueError, match="unknown FoamConfig fields"):
            FoamConfig.from_dict(payload)


class TestRunKey:
    def test_mode_invariant(self):
        # One cache entry serves every execution path: the key covers the
        # result-determining inputs only, never how they are computed.
        serial = RunPlan(days=DAYS)
        concurrent = RunPlan(days=DAYS, mode="concurrent", n_atm=3)
        assert serial.run_key() == concurrent.run_key() == (
            "b63f602f3722919e05e46f3eefb9ba323152c6519e21e4dfcc3bf1009c99fc5d")
        assert RunPlan(days=DAYS, scenario="aquaplanet", mode="ensemble",
                       nens=3, ic_perturbation=1e-8).run_key() == (
            "e4ff10ce562e762cfbf8fbf7534dc503ce1fb61fae0edf08211b1ce30b782df7")

    def test_output_cadences_do_not_change_key(self, tmp_path):
        plain = RunPlan(days=DAYS)
        instrumented = RunPlan(
            days=DAYS,
            history=HistorySpec(str(tmp_path / "h")),
            checkpoint=CheckpointSpec(str(tmp_path / "c")))
        assert plain.run_key() == instrumented.run_key()

    def test_result_determining_inputs_change_key(self):
        base = RunPlan(days=DAYS)
        assert RunPlan(days=2 * DAYS).run_key() != base.run_key()
        assert RunPlan(days=DAYS, mode="ensemble", nens=3,
                       ic_perturbation=1e-8).run_key() != base.run_key()
        assert RunPlan(days=DAYS,
                       scenario="aquaplanet").run_key() != base.run_key()


class TestPlanValidation:
    def test_modes(self):
        assert RUN_MODES == ("serial", "ensemble", "concurrent")
        with pytest.raises(ValueError):
            RunPlan(mode="turbo")

    def test_rejects_nonpositive_days(self):
        with pytest.raises(ValueError):
            RunPlan(days=0.0)

    def test_nens_requires_ensemble_mode(self):
        with pytest.raises(ValueError):
            RunPlan(nens=3)

    def test_ic_perturbation_requires_ensemble_mode(self):
        # Only the ensemble perturbs its members; anywhere else the
        # amplitude changed the run key and nothing else.
        for mode in ("serial", "concurrent"):
            with pytest.raises(ValueError, match="ic_perturbation"):
                RunPlan(days=STEP_DAYS, mode=mode, ic_perturbation=1e-6)

    def test_substrate_requires_concurrent_mode(self):
        # The selector is gone: forked processes are the only transport.
        # The field survives for the frozen ledger workload's "process".
        for mode in ("serial", "concurrent"):
            with pytest.raises(ValueError, match="selector was removed"):
                RunPlan(mode=mode, substrate="thread")
        assert RunPlan(mode="concurrent", substrate="process").substrate \
            == "process"

    def test_one_ocean_rank(self):
        # A pool has one ocean rank; the field survives for the frozen
        # ledger workload's n_ocn=1.
        for n_ocn in (0, 2):
            with pytest.raises(ValueError, match="one ocean rank"):
                RunPlan(mode="concurrent", n_ocn=n_ocn)
        assert RunPlan(mode="concurrent", n_ocn=1).n_ocn == 1

    def test_checkpoint_cadence_is_any_whole_step(self, tmp_path):
        cfg = _test_config()
        # 0.25 day = 6 steps at test size (a coupling boundary inside a
        # radiation interval) and a single step: both are cadences.
        spec = CheckpointSpec(str(tmp_path), interval_days=0.25)
        assert spec.interval_steps(cfg) == 6
        assert CheckpointSpec(str(tmp_path),
                              interval_days=STEP_DAYS).interval_steps(cfg) == 1
        result = RunHarness(RunPlan(days=0.5, checkpoint=spec)).run()
        assert [p.name for p in result.checkpoints] == [
            "ckpt_00000006.npz", "ckpt_00000012.npz"]

    def test_resume_refuses_config_mismatch(self, serial_checkpointed):
        ckpt = _halfway_checkpoint(serial_checkpointed)
        other = dataclasses.replace(_test_config(), seed=99)
        harness = RunHarness(RunPlan(config=other, days=DAYS))
        with pytest.raises(ValueError, match="different[\\s\\S]*configuration"):
            harness.run(resume_from=ckpt)

    def test_resume_refuses_nens_mismatch(self, serial_checkpointed):
        ckpt = _halfway_checkpoint(serial_checkpointed)
        harness = RunHarness(RunPlan(days=DAYS, mode="ensemble", nens=3,
                                     ic_perturbation=1e-8))
        with pytest.raises(ValueError, match="nens"):
            harness.run(resume_from=ckpt)

    @pytest.mark.parametrize("written, resumed", [("float32", "float64"),
                                                  ("float64", "float32")])
    def test_resume_refuses_the_other_precision(self, tmp_path, monkeypatch,
                                                written, resumed):
        # ``dtype=None`` hashes alike whichever precision FOAM_DTYPE
        # selects, so the config hash lets this checkpoint through.
        monkeypatch.setenv("FOAM_DTYPE", written)
        ckpt = RunHarness(RunPlan(
            days=STEP_DAYS, checkpoint=CheckpointSpec(
                str(tmp_path), interval_days=STEP_DAYS))).run().checkpoints[0]
        monkeypatch.setenv("FOAM_DTYPE", resumed)
        harness = RunHarness(RunPlan(days=2 * STEP_DAYS))
        with pytest.raises(ValueError, match=f"{written}[\\s\\S]*{resumed}"):
            harness.run(resume_from=ckpt)

    def test_resume_beyond_plan_duration_raises(self, serial_checkpointed):
        ckpt = _halfway_checkpoint(serial_checkpointed)
        harness = RunHarness(RunPlan(days=0.25))
        with pytest.raises(ValueError, match="already"):
            harness.run(resume_from=ckpt)


# ----------------------------------------------------------------------
class TestSerialResume:
    def test_checkpointing_does_not_perturb_the_run(
            self, serial_baseline, serial_checkpointed):
        assert_trees_identical(serial_checkpointed.state, serial_baseline.state,
                        "checkpointed vs plain")

    def test_resume_is_bitwise(self, serial_baseline, serial_checkpointed):
        ckpt = _halfway_checkpoint(serial_checkpointed)
        resumed = RunHarness(RunPlan(days=DAYS)).run(resume_from=ckpt)
        assert resumed.start_step > 0
        assert resumed.steps + resumed.start_step \
            == serial_baseline.steps
        assert_trees_identical(resumed.state, serial_baseline.state,
                        "serial resume")

    def test_checkpoint_is_stamped(self, serial_checkpointed):
        ckpt = _halfway_checkpoint(serial_checkpointed)
        state, meta = load_checkpoint(ckpt)
        cfg = serial_checkpointed.plan.resolved_config()
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert meta["config_hash"] == cfg.content_hash()
        assert FoamConfig.from_dict(meta["config"]) == cfg
        assert meta["run_key"] == serial_checkpointed.run_key
        assert meta["mode"] == "serial"
        assert meta["step"] * cfg.atm_dt == pytest.approx(state.time)


class TestAnyStepResume:
    """``run(N) == run(k) -> checkpoint -> fresh harness -> run(N - k)`` on
    every leaf, for every ``k``: the file is the whole trajectory so far."""

    NENS = 3

    @pytest.mark.parametrize("k", range(1, N_STEPS))
    def test_serial_resume_at_every_step(self, serial_every_step, k):
        resumed = RunHarness(RunPlan(days=ANY_DAYS)).run(
            resume_from=serial_every_step.checkpoints[k - 1])
        assert (resumed.start_step, resumed.steps) == (k, N_STEPS - k)
        assert_trees_identical(resumed.state, serial_every_step.state,
                               f"serial resume at step {k}")
        # Every leaf: the last step's rain and evaporation ride the tree.
        assert resumed.state.coupler.evap.any()

    @pytest.fixture(scope="class")
    def ensemble_every_step(self, tmp_path_factory):
        return _checkpointed_every_step(
            tmp_path_factory.mktemp("every_ensemble"), mode="ensemble",
            nens=self.NENS, ic_perturbation=1e-8)

    @settings(max_examples=5, deadline=None)
    @given(k=st.integers(1, N_STEPS - 1))
    def test_ensemble_resume_at_drawn_steps(self, ensemble_every_step, k):
        resumed = RunHarness(RunPlan(
            days=ANY_DAYS, mode="ensemble", nens=self.NENS,
            ic_perturbation=1e-8)).run(
                resume_from=ensemble_every_step.checkpoints[k - 1])
        assert_trees_identical(resumed.state, ensemble_every_step.state,
                               f"ensemble resume at step {k}")


class TestEnsembleResume:
    NENS = 3

    def _plan(self, tmp_path=None):
        kw = {}
        if tmp_path is not None:
            kw["checkpoint"] = CheckpointSpec(str(tmp_path),
                                              interval_days=CKPT_DAYS)
        return RunPlan(days=DAYS, mode="ensemble", nens=self.NENS,
                       ic_perturbation=1e-8, **kw)

    def test_resume_is_bitwise_for_every_member(self, tmp_path):
        straight = RunHarness(self._plan()).run()
        ckpted = RunHarness(self._plan(tmp_path)).run()
        assert_trees_identical(ckpted.state, straight.state,
                        "ensemble checkpointed vs plain")
        ckpt = _halfway_checkpoint(ckpted)
        harness = RunHarness(self._plan())
        resumed = harness.run(resume_from=ckpt)
        # batched arrays carry the member axis, so bitwise equality of the
        # stacked state is bitwise equality of every member at once
        assert_trees_identical(resumed.state, straight.state, "ensemble resume")
        for e in range(self.NENS):
            got = harness.ensemble.member_state(resumed.state, e)
            want = harness.ensemble.member_state(straight.state, e)
            assert_trees_identical(got, want, f"member {e}")


@pytest.mark.parallel
class TestConcurrentResume:
    """Rank-pool legs of the matrix (forked rank processes)."""

    def _plan(self, tmp_path=None):
        kw = {}
        if tmp_path is not None:
            kw["checkpoint"] = CheckpointSpec(str(tmp_path),
                                              interval_days=CKPT_DAYS)
        return RunPlan(days=DAYS, mode="concurrent", **kw)

    def test_concurrent_matches_serial(self, serial_baseline):
        result = RunHarness(self._plan()).run()
        assert_trees_identical(result.state, serial_baseline.state,
                        "concurrent vs serial")

    def test_concurrent_resume_is_bitwise(self, serial_baseline, tmp_path):
        ckpted = RunHarness(self._plan(tmp_path)).run()
        assert_trees_identical(ckpted.state, serial_baseline.state,
                        "segmented concurrent vs serial")
        ckpt = _halfway_checkpoint(ckpted)
        resumed = RunHarness(self._plan()).run(resume_from=ckpt)
        assert_trees_identical(resumed.state, serial_baseline.state,
                        "concurrent resume")

    def test_serial_checkpoint_resumes_on_concurrent_substrate(
            self, serial_baseline, serial_checkpointed):
        # The cross-mode leg: a checkpoint written by the serial path
        # finishes bitwise-identically on the rank pools.
        ckpt = _halfway_checkpoint(serial_checkpointed)
        resumed = RunHarness(self._plan()).run(resume_from=ckpt)
        assert_trees_identical(resumed.state, serial_baseline.state,
                        "serial ckpt -> concurrent resume")

    @pytest.mark.parametrize("k", [
        3,      # part-way through the first window, before any ocean call
        14,     # past two ocean calls and the second radiation call
    ])
    def test_serial_checkpoint_resumes_off_boundary(
            self, serial_every_step, k):
        resumed = RunHarness(RunPlan(days=ANY_DAYS, mode="concurrent")).run(
            resume_from=serial_every_step.checkpoints[k - 1])
        assert resumed.start_step == k
        assert_trees_identical(resumed.state, serial_every_step.state,
                               f"serial ckpt at step {k} -> 2+1+1 pool")

    def test_pool_segments_anywhere(self, serial_every_step, tmp_path):
        # A 5-step history cadence cuts the pool run into six legs whose
        # seams fall inside windows and radiation intervals.
        result = RunHarness(RunPlan(
            days=ANY_DAYS, mode="concurrent", history=HistorySpec(
                str(tmp_path), interval_days=5 * STEP_DAYS,
                fields=("sst",)))).run()
        assert [seg.nsteps for seg in result.concurrent] == [5] * 6
        assert_trees_identical(result.state, serial_every_step.state,
                               "pool in 5-step legs vs serial")


# ----------------------------------------------------------------------
class TestHarnessHistory:
    def test_serial_history_schedule_and_rolling_flush(self, tmp_path):
        plan = RunPlan(days=DAYS, history=HistorySpec(
            str(tmp_path), interval_days=0.25, flush_every=2,
            fields=("sst", "eta")))
        result = RunHarness(plan).run()
        # 24 steps, cadence 6: snapshots at steps 0, 6, 12, 18, 24
        assert len(result.history_files) == 3      # 2 + 2 + 1 snapshots
        data = load_history(result.history_files)
        assert data["time"].shape == (5,)
        assert np.array_equal(data["time"],
                              np.arange(5) * 0.25 * 86400.0)
        assert data["sst"].shape[0] == 5
        assert data["sst"].dtype == np.float64

    def test_observer_and_spec_share_one_default_field_list(self, tmp_path):
        """A bare ``HistoryObserver`` records what a bare ``HistorySpec``
        asks for (the observer's own default lacked ``precip`` at PR 23)."""
        from repro.core.history import HistoryWriter
        from repro.runs.observers import HistoryObserver

        observer = HistoryObserver(HistoryWriter(str(tmp_path)), 1)
        assert observer.fields == HistorySpec(str(tmp_path)).fields
        assert "precip" in observer.fields

    def test_ensemble_history_carries_member_axis(self, tmp_path):
        nens = 3
        plan = RunPlan(days=0.5, mode="ensemble", nens=nens,
                       ic_perturbation=1e-8,
                       history=HistorySpec(str(tmp_path),
                                           interval_days=0.25,
                                           fields=("sst", "ice_thickness")))
        harness = RunHarness(plan)
        result = harness.run()
        data = load_history(result.history_files)
        model = harness.model
        ny, nx = model.ocean.grid.ny, model.ocean.grid.nx
        assert data["sst"].shape == (3, nens, ny, nx)
        assert data["ice_thickness"].shape == (3, nens, ny, nx)

    def test_resumed_history_continues_the_schedule(self, tmp_path):
        spec = HistorySpec(str(tmp_path / "resumed"), interval_days=0.25,
                           fields=("sst",))
        ck = CheckpointSpec(str(tmp_path / "ck"), interval_days=CKPT_DAYS)
        first = RunHarness(RunPlan(days=CKPT_DAYS, history=spec,
                                   checkpoint=ck)).run()
        second = RunHarness(RunPlan(days=DAYS, history=spec)).run(
            resume_from=first.checkpoints[-1])
        combined = load_history(first.history_files + second.history_files)

        straight = RunHarness(RunPlan(days=DAYS, history=HistorySpec(
            str(tmp_path / "straight"), interval_days=0.25,
            fields=("sst",)))).run()
        want = load_history(straight.history_files)
        # same snapshot schedule, same numbers: the resumed run's history
        # is indistinguishable from the straight-through run's
        assert np.array_equal(combined["time"], want["time"])
        assert np.array_equal(combined["sst"], want["sst"])


# ----------------------------------------------------------------- health
class TestNonFiniteState:
    """A non-finite leaf stops ``drive_steps`` at the next coupling
    boundary with one error that says where it is."""

    @staticmethod
    def _poisoned(nens, value):
        """A state whose ocean temperature holds ``value`` at one wet cell
        (level 2, lat 5, lon 7) of the last member."""
        from repro.core.ensemble import EnsembleConfig, FoamEnsemble
        from repro.core.foam import FoamModel
        if nens:
            ens = FoamEnsemble(EnsembleConfig(nens=nens, base=_test_config()))
            model, state = ens.model, ens.initial_state()
        else:
            model = FoamModel(_test_config())
            state = model.initial_state()
        assert model.ocean.mask3d[2, 5, 7]
        state.ocean.temp[(2,) + (nens - 1,) * bool(nens) + (5, 7)] = value
        return model, state

    @pytest.mark.parametrize("nens", [0, 3], ids=["serial", "members"])
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_check_names_leaf_member_cell_step_and_time(self, nens, value):
        from repro.runs import NonFiniteStateError
        from repro.runs.health import check_finite
        _, state = self._poisoned(nens, value)
        with pytest.raises(NonFiniteStateError) as info:
            check_finite(state, 17)
        err = info.value
        assert (err.path, err.index, err.step, err.n_bad) == (
            "ocean.temp", (2, 5, 7), 17, 1)
        assert err.member == (nens - 1 if nens else None)
        assert "ocean.temp" in str(err) and "step 17" in str(err)

    def test_finite_state_and_overflowing_sums_pass(self):
        from repro.runs.health import check_finite
        _, state = self._poisoned(0, 0.0)
        check_finite(state, 0)
        big = np.finfo(state.ocean.salt.dtype).max
        state.ocean.salt[...] = big            # the sum overflows, no cell does
        check_finite(state, 0)

    def test_drive_steps_raises_at_the_first_coupling_boundary(self):
        from repro.runs import NonFiniteStateError, drive_steps
        model, state = self._poisoned(0, np.nan)
        every = model.config.atm_steps_per_coupling
        # The poisoned ocean is not stepped before the first boundary, and
        # nothing is checked there: the run gets that far.
        state = drive_steps(model, state, every - 1)
        with pytest.raises(NonFiniteStateError) as info:
            drive_steps(model, state, every)
        assert info.value.step == every
        assert info.value.time == every * model.config.atm_dt

    @pytest.mark.parallel
    def test_pool_run_raises_at_the_end_of_its_leg(self):
        """One NaN in the humidity handed to a 1 + 1 + 1 pool: the leg's
        end state fails the check with the error a serial run reports at
        the same step."""
        from repro.runs import NonFiniteStateError, drive_steps

        harness = RunHarness(RunPlan(days=0.25, mode="concurrent",
                                     n_atm=1, n_ocn=1))
        state = harness.initial_state()
        state.atm_curr.q[0, 5, 7] = np.nan
        with pytest.raises(NonFiniteStateError) as serial:
            drive_steps(harness.model, state, 6)
        with pytest.raises(NonFiniteStateError) as pool:
            harness.run(state=state)
        got, want = pool.value, serial.value
        assert (got.path, got.member, got.index, got.step, got.n_bad) == (
            want.path, want.member, want.index, want.step, want.n_bad)
        assert got.step == 6 and got.path == "atm_prev.vort"


# ----------------------------------------------------------------- set-up
_SETUP_MODULES = """
import sys
from repro.core.config import paper_config, test_config
from repro.runs import RunHarness, RunPlan
if sys.argv[1] == "serial":
    RunHarness(RunPlan(config=paper_config())).initial_state()
else:
    RunHarness(RunPlan(config=test_config(), mode="concurrent"))
print(" ".join(sys.modules))
"""


def _modules_after_setup(mode: str) -> set[str]:
    """The modules a fresh interpreter holds once a harness is built."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", _SETUP_MODULES, mode],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


class TestSetupImports:
    """A run loads what its mode needs: the machine model and the rank
    transport stay out of a serial run's set-up, and a pool run loads its
    transport while it is built, not in its first leg."""

    def test_serial_setup_loads_no_rank_pool(self):
        loaded = _modules_after_setup("serial")
        assert "repro.runs.harness" in loaded
        for name in ("repro.parallel", "repro.perf.eventsim",
                     "multiprocessing", "numpy.ma"):
            assert name not in loaded, name

    def test_concurrent_harness_loads_the_pool_when_built(self):
        assert "repro.parallel.coupled" in _modules_after_setup("concurrent")
