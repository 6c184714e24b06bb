"""Streaming history writer and versioned checkpoint format.

Covers the rolling-flush buffer bound, out-of-order multi-file loading,
field-set/shape/dtype consistency enforcement, the checkpoint stamps
(config hash, run metadata, ``river_volume=None`` staying ``None``),
rejection of every other format version, stored (not deflated) members
with deflated files still loading, and a hypothesis round-trip property
over dtypes, shapes, and the batched member axis.
"""

import dataclasses
import os
import signal
import subprocess
import sys
import tempfile
import time
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import FoamConfig
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel
from repro.core.history import (
    CHECKPOINT_FORMAT_VERSION,
    HistoryWriter,
    load_checkpoint,
    load_history,
    save_restart,
)
from repro.runs import CheckpointSpec, HistorySpec, RunHarness, RunPlan
from tests.helpers import assert_trees_identical


@pytest.fixture(scope="module")
def model():
    return FoamModel(_test_config())


@pytest.fixture(scope="module")
def state(model):
    return model.initial_state()


# ----------------------------------------------------------------------
class TestHistoryWriter:
    def test_auto_flush_bounds_the_buffer(self, tmp_path):
        w = HistoryWriter(tmp_path, flush_every=3)
        paths = []
        for i in range(7):
            got = w.record(float(i), sst=np.full((2, 2), float(i)))
            if got is not None:
                paths.append(got)
            assert len(w._times) < 3
        assert len(paths) == 2                 # two full buffers rolled out
        assert len(w._times) == 1              # the 7th is still pending
        last = w.close()
        assert last is not None
        assert w.close() is None               # idempotent
        data = load_history(paths + [last])
        assert np.array_equal(data["time"], np.arange(7.0))

    def test_memory_accounting(self, tmp_path):
        def nbytes_buffered(w):
            return sum(a.nbytes for snaps in w._buffer.values() for a in snaps)

        w = HistoryWriter(tmp_path)
        w.record(0.0, sst=np.zeros((4, 4)))
        assert nbytes_buffered(w) == 4 * 4 * 8
        assert w.snapshots_recorded == 1
        w.close()
        assert nbytes_buffered(w) == 0
        assert w.bytes_written > 0

    def test_rejects_field_set_drift(self, tmp_path):
        w = HistoryWriter(tmp_path)
        w.record(0.0, sst=np.zeros(3))
        with pytest.raises(ValueError, match="inconsistent history fields"):
            w.record(1.0, sst=np.zeros(3), eta=np.zeros(3))
        with pytest.raises(ValueError, match="inconsistent history fields"):
            w.record(1.0, eta=np.zeros(3))

    def test_rejects_shape_and_dtype_drift(self, tmp_path):
        w = HistoryWriter(tmp_path)
        w.record(0.0, sst=np.zeros((3, 3)))
        with pytest.raises(ValueError, match="changed shape/dtype"):
            w.record(1.0, sst=np.zeros((4, 3)))
        with pytest.raises(ValueError, match="changed shape/dtype"):
            w.record(1.0, sst=np.zeros((3, 3), dtype=np.float32))

    def test_rejects_empty_snapshot_and_bad_flush_every(self, tmp_path):
        with pytest.raises(ValueError):
            HistoryWriter(tmp_path, flush_every=0)
        w = HistoryWriter(tmp_path)
        with pytest.raises(ValueError, match="at least one field"):
            w.record(0.0)

    def test_numbering_continues_in_a_used_directory(self, tmp_path):
        # A resumed run streaming into the directory of its first leg must
        # append new files, not overwrite history_0000.npz.
        w1 = HistoryWriter(tmp_path)
        w1.record(0.0, sst=np.zeros(2))
        first = w1.close()
        w2 = HistoryWriter(tmp_path)
        w2.record(1.0, sst=np.ones(2))
        second = w2.close()
        assert first.name == "history_0000.npz"
        assert second.name == "history_0001.npz"
        data = load_history([first, second])
        assert np.array_equal(data["time"], [0.0, 1.0])

    def test_numbering_continues_after_the_highest_file(self, tmp_path):
        # With a gap below it (history_0001 deleted), counting the files
        # would name the next one history_0002.npz again and lose t = 2.
        for t in (0.0, 1.0, 2.0):
            w = HistoryWriter(tmp_path)
            w.record(t, sst=np.full(2, t))
            w.close()
        (tmp_path / "history_0001.npz").unlink()
        w = HistoryWriter(tmp_path)
        w.record(10.0, sst=np.full(2, 10.0))
        assert w.close().name == "history_0003.npz"
        data = load_history(sorted(tmp_path.glob("history_*.npz")))
        assert np.array_equal(data["time"], [0.0, 2.0, 10.0])

    def test_numbering_continues_past_file_9999(self, tmp_path):
        # ``{index:04d}`` has five digits from 10000 on: a resumed writer
        # that only counted four-digit names would pick 10000 again and
        # overwrite the t = 2 chunk.
        for index, t in ((9999, 1.0), (10000, 2.0)):
            np.savez(tmp_path / f"history_{index}.npz", time=np.array([t]),
                     sst=np.full((1, 2), t))
        w = HistoryWriter(tmp_path)
        w.record(3.0, sst=np.full(2, 3.0))
        assert w.close().name == "history_10001.npz"
        data = load_history(sorted(tmp_path.glob("history_*.npz")))
        assert np.array_equal(data["time"], [1.0, 2.0, 3.0])
        # Other prefixes and non-numbered names are not counted.
        (tmp_path / "history_final.npz").touch()
        assert HistoryWriter(tmp_path, prefix="hist").close() is None
        w = HistoryWriter(tmp_path)
        w.record(4.0, sst=np.full(2, 4.0))
        assert w.close().name == "history_10002.npz"

    def test_failed_flush_keeps_the_snapshots_and_the_number(self, tmp_path,
                                                             monkeypatch):
        # A chunk appears whole or not at all: a write that dies half way
        # leaves no history file and no temporary beside it, and the next
        # flush writes the still-buffered snapshots under the same number.
        w = HistoryWriter(tmp_path)
        w.record(0.0, sst=np.zeros(2))
        w.record(1.0, sst=np.ones(2))

        def dies_half_way(file, **payload):
            file.write(b"PK\x03\x04 half a zip member")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_half_way)
        with pytest.raises(OSError, match="disk full"):
            w.flush()
        monkeypatch.undo()
        assert list(tmp_path.iterdir()) == []
        assert len(w._times) == 2
        path = w.flush()
        assert path.name == "history_0000.npz"
        data = load_history(path)
        assert np.array_equal(data["time"], [0.0, 1.0])
        assert np.array_equal(data["sst"], [np.zeros(2), np.ones(2)])


class TestLoadHistory:
    def _write(self, tmp_path, times, **fields):
        w = HistoryWriter(tmp_path)
        for i, t in enumerate(times):
            w.record(t, **{k: v[i] for k, v in fields.items()})
        return w.close()

    def test_out_of_order_files_sort_by_time(self, tmp_path):
        vals = np.arange(6.0).reshape(6, 1)
        p0 = self._write(tmp_path, [0.0, 1.0], sst=vals[:2])
        p1 = self._write(tmp_path, [2.0, 3.0], sst=vals[2:4])
        p2 = self._write(tmp_path, [4.0, 5.0], sst=vals[4:])
        data = load_history([p2, p0, p1])      # deliberately shuffled
        assert np.array_equal(data["time"], np.arange(6.0))
        assert np.array_equal(data["sst"], vals)

    def test_inconsistent_field_sets_raise(self, tmp_path):
        p0 = self._write(tmp_path / "a", [0.0], sst=np.zeros((1, 2)))
        p1 = self._write(tmp_path / "b", [1.0], eta=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="inconsistent history files"):
            load_history([p0, p1])

    def test_empty_path_list_raises(self):
        with pytest.raises(ValueError, match="no history files"):
            load_history([])

    def test_single_path_accepted_bare(self, tmp_path):
        p = self._write(tmp_path, [0.0], sst=np.ones((1, 2)))
        data = load_history(p)
        assert data["sst"].shape == (1, 2)

    def test_rerecorded_times_are_kept_once(self, tmp_path):
        # A leg killed after flushing t = 0..3 and resumed from its t = 1
        # checkpoint records t = 2, 3 again, with the same bytes.
        vals = np.arange(6.0).reshape(6, 1)
        p0 = self._write(tmp_path, [0.0, 1.0, 2.0, 3.0], sst=vals[:4])
        p1 = self._write(tmp_path, [2.0, 3.0, 4.0, 5.0], sst=vals[2:])
        for paths in ([p0, p1], [p1, p0]):
            data = load_history(paths)
            assert np.array_equal(data["time"], np.arange(6.0))
            assert np.array_equal(data["sst"], vals)

    def test_repeated_times_with_other_bytes_raise(self, tmp_path):
        p0 = self._write(tmp_path, [0.0, 1.0], sst=np.zeros((2, 1)))
        p1 = self._write(tmp_path, [1.0, 2.0], sst=np.full((2, 1), -0.0))
        with pytest.raises(ValueError, match=r"'sst' at repeated times \[1.0\]"):
            load_history([p0, p1])


# dtype/shape/member-axis round-trip property: whatever goes into the
# rolling writer comes back out of load_history bit-identical, in order,
# with dtype preserved — including a leading ensemble member axis.
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    dtype=st.sampled_from([np.float32, np.float64, np.int32, np.int64]),
    ny=st.integers(min_value=1, max_value=4),
    nx=st.integers(min_value=1, max_value=4),
    nens=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    nsnap=st.integers(min_value=1, max_value=7),
    flush_every=st.one_of(st.none(), st.integers(min_value=1, max_value=3)),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_history_roundtrip_property(dtype, ny, nx, nens, nsnap,
                                    flush_every, seed):
    shape = (ny, nx) if nens is None else (nens, ny, nx)
    rng = np.random.default_rng(seed)
    snaps = [(rng.uniform(-1e6, 1e6, size=shape)).astype(dtype)
             for _ in range(nsnap)]
    with tempfile.TemporaryDirectory() as td:
        w = HistoryWriter(td, flush_every=flush_every)
        for i, snap in enumerate(snaps):
            w.record(float(i), field=snap)
        w.close()
        files = sorted(Path(td).glob("history_*.npz"))
        assert len(files) == (1 if flush_every is None
                              else -(-nsnap // flush_every))
        data = load_history(files)
    assert data["field"].dtype == dtype
    assert data["field"].shape == (nsnap, *shape)
    assert np.array_equal(data["field"], np.stack(snaps))
    assert np.array_equal(data["time"], np.arange(float(nsnap)))


# ----------------------------------------------------------------------
class TestCheckpointFormat:
    def test_river_volume_none_roundtrips_as_none(self, tmp_path, state):
        # A None leaf is listed in ``none_leaves``, never zero-filled.
        bare = dataclasses.replace(state,
                                   coupler=dataclasses.replace(
                                       state.coupler, river_volume=None))
        path = save_restart(tmp_path / "r.npz", bare)
        loaded = load_checkpoint(path)[0]
        assert loaded.coupler.river_volume is None

    def test_config_and_meta_stamps(self, tmp_path, state):
        cfg = _test_config()
        path = save_restart(tmp_path / "c.npz", state, config=cfg,
                            meta={"run_key": "abc", "nens": 1})
        loaded, meta = load_checkpoint(path)
        assert meta["format_version"] == CHECKPOINT_FORMAT_VERSION
        assert meta["config_hash"] == cfg.content_hash()
        assert FoamConfig.from_dict(meta["config"]) == cfg
        assert meta["run_key"] == "abc"
        assert meta["nens"] == 1
        assert np.array_equal(loaded.ocean.temp, state.ocean.temp)

    def test_unstamped_checkpoint_loads_with_bare_meta(self, tmp_path,
                                                       state):
        path = save_restart(tmp_path / "u.npz", state)
        _, meta = load_checkpoint(path)
        assert meta == {"format_version": CHECKPOINT_FORMAT_VERSION}

    def test_legacy_v1_file_is_rejected(self, tmp_path, state):
        # A file without a format_version, the previous format (4: a
        # ``coupler.time``, no ``coupler.precip`` / ``.evap``) and a future
        # version are refused by both loaders, naming the file and the
        # version found -- never guessed at or zero-filled.
        path = save_restart(tmp_path / "current.npz", state)
        with np.load(path) as d:
            payload = {k: d[k] for k in d.files}
        legacy = tmp_path / "v1.npz"
        np.savez_compressed(legacy, **{
            k: v for k, v in payload.items() if k != "format_version"})
        previous = tmp_path / "v4.npz"
        np.savez_compressed(previous, **{
            **{k: v for k, v in payload.items()
               if k not in ("state.coupler.precip", "state.coupler.evap")},
            "state.coupler.time": np.float64(0.0), "format_version": 4})
        future = tmp_path / "next.npz"
        np.savez_compressed(future, **{
            **payload, "format_version": CHECKPOINT_FORMAT_VERSION + 1})

        only = rf"reads only {CHECKPOINT_FORMAT_VERSION}"
        with pytest.raises(ValueError, match=r"v1\.npz.*missing"):
            load_checkpoint(legacy)
        with pytest.raises(ValueError, match=rf"v4\.npz.* is 4, .*{only}"):
            load_checkpoint(previous)
        with pytest.raises(
                ValueError, match=rf"next\.npz.*{CHECKPOINT_FORMAT_VERSION + 1}"):
            load_checkpoint(future)

    def test_missing_state_leaf_is_an_error(self, tmp_path, state):
        # A truncated file must not load a leaf as None.
        path = save_restart(tmp_path / "full.npz", state)
        with np.load(path) as d:
            payload = {k: d[k] for k in d.files if k != "state.ocean.salt"}
        np.savez_compressed(tmp_path / "cut.npz", **payload)
        with pytest.raises(ValueError, match=r"cut\.npz.*state\.ocean\.salt"):
            load_checkpoint(tmp_path / "cut.npz")

    def test_failed_write_leaves_the_previous_file(self, tmp_path, state,
                                                   monkeypatch):
        # A checkpoint is replaced, never torn: a write that dies half way
        # leaves the file that was there, whole, and nothing a glob of
        # ``ckpt_*.npz`` (or of anything else) would pick up beside it.
        path = save_restart(tmp_path / "ckpt_00000006.npz", state)

        def dies_half_way(file, **payload):
            file.write(b"PK\x03\x04 half a zip member")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", dies_half_way)
        with pytest.raises(OSError, match="disk full"):
            save_restart(path, dataclasses.replace(state, time=3600.0))
        monkeypatch.undo()
        assert load_checkpoint(path)[0].time == state.time
        assert [p.name for p in tmp_path.iterdir()] == ["ckpt_00000006.npz"]


# ----------------------------------------------------------------------
def _compress_types(path: Path) -> set[int]:
    with zipfile.ZipFile(path) as archive:
        return {info.compress_type for info in archive.infolist()}


def _deflate(src: Path, dst: Path) -> Path:
    """``src`` rewritten with every member deflated, as output was written
    before it was stored."""
    with np.load(src) as d:
        payload = {k: d[k] for k in d.files}
    np.savez_compressed(dst, **payload)
    assert _compress_types(dst) == {zipfile.ZIP_DEFLATED}
    return dst


class TestStoredOutput:
    """Output is stored, not deflated; files written deflated still load."""

    def test_chunks_and_checkpoints_are_stored(self, tmp_path, state):
        w = HistoryWriter(tmp_path)
        w.record(0.0, sst=np.zeros((3, 4)), precip=np.ones(5, np.float32))
        chunk = w.close()
        ckpt = save_restart(tmp_path / "ckpt_00000000.npz", state,
                            config=_test_config(), meta={"mode": "serial"})
        for path in (chunk, ckpt):
            assert _compress_types(path) == {zipfile.ZIP_STORED}, path

    def test_a_deflated_chunk_loads_beside_stored_ones(self, tmp_path):
        rng = np.random.default_rng(34)
        w = HistoryWriter(tmp_path, flush_every=2)
        for i in range(6):
            w.record(float(i), sst=rng.standard_normal((2, 5, 4)),
                     precip=rng.standard_normal((2, 5, 4)).astype(np.float32))
        w.close()
        want = load_history(w.files_written)
        middle = w.files_written[1]
        _deflate(middle, middle)
        got = load_history(sorted(tmp_path.glob("history_*.npz")))
        assert_trees_identical(got, want)

    def test_a_deflated_checkpoint_resumes_as_the_stored_one(self, tmp_path):
        step = _test_config().atm_dt / 86400.0
        stored = RunHarness(RunPlan(
            config=_test_config(), days=3 * step, checkpoint=CheckpointSpec(
                str(tmp_path / "ck"), interval_days=3 * step))
        ).run().checkpoints[-1]
        deflated = _deflate(stored, tmp_path / "deflated.npz")
        (want, want_meta), (got, got_meta) = map(load_checkpoint,
                                                 (stored, deflated))
        assert_trees_identical(got, want)
        assert got_meta == want_meta
        plan = RunPlan(config=_test_config(), days=5 * step)
        assert_trees_identical(
            RunHarness(plan).run(resume_from=deflated).state,
            RunHarness(plan).run(resume_from=stored).state)


# ----------------------------------------------------------------------
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_cut_and_resumed_history_equals_the_straight_run(tmp_path, dtype):
    """History reads the state, by absolute step index: a run cut at a
    checkpoint and resumed writes what the straight run writes, the step's
    rain included — whose t = 0 snapshot (zeros) must already have the dtype
    every later step leaves, or the writer refuses the second one."""
    config = dataclasses.replace(_test_config(), dtype=dtype)

    def plan(days, where, **kw):
        return RunPlan(config=config, days=days, history=HistorySpec(
            str(tmp_path / where), interval_days=1 / 24, flush_every=4,
            fields=("sst", "precip")), **kw)

    straight = RunHarness(plan(0.5, "straight")).run()
    # Cut after step 5: inside a forcing window and a radiation interval.
    first = RunHarness(plan(5 / 24, "cut", checkpoint=CheckpointSpec(
        str(tmp_path / "ck"), interval_days=5 / 24))).run()
    second = RunHarness(plan(0.5, "cut")).run(resume_from=first.checkpoints[-1])
    assert (second.start_step, second.steps) == (5, 7)
    want = load_history(straight.history_files)
    assert_trees_identical(
        load_history(first.history_files + second.history_files), want)
    assert want["precip"].dtype == np.dtype(dtype) and len(want["time"]) == 13


# ----------------------------------------------------------------------
# I/O under kill: a run SIGKILLed at random points, resumed each time
_KILLED_RUN = """
import io
import itertools
import os
import signal
import sys

import numpy as np

from repro.core.config import test_config
from repro.runs import CheckpointSpec, HistorySpec, RunHarness, RunPlan
from repro.runs.observers import StepObserver, step_index

out, days, resume = sys.argv[1], float(sys.argv[2]), sys.argv[3] or None
kill_at_write = int(sys.argv[4] or 0)
step = test_config().atm_dt / 86400.0
plan = RunPlan(config=test_config(), days=days, history=HistorySpec(
    out + "/hist", interval_days=step, flush_every=1,
    fields=("sst", "t_sfc", "precip")),
    checkpoint=CheckpointSpec(out + "/ck", interval_days=3 * step))


class Progress(StepObserver):
    def on_step(self, model, state):
        print(step_index(model, state), flush=True)


if kill_at_write:
    savez, writes = np.savez, itertools.count(1)

    def dies_inside_a_write(file, **payload):
        if next(writes) < kill_at_write:
            return savez(file, **payload)
        whole = io.BytesIO()
        savez(whole, **payload)
        file.write(whole.getbuffer()[:whole.tell() // 2])
        file.flush()
        os.kill(os.getpid(), signal.SIGKILL)

    np.savez = dies_inside_a_write

RunHarness(plan).run(resume_from=resume, observers=(Progress(),))
"""


def _leg(out: Path, days: float, resume: Path | None, kill_after=None,
         kill_at_write=None):
    """One run of ``_KILLED_RUN`` in a fresh interpreter; SIGKILLed
    ``delay`` seconds after it reports step ``k`` when ``kill_after`` is
    ``(k, delay)``, or by itself half way through its ``kill_at_write``-th
    file write.  Returns whether the kill landed."""
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.Popen(
        [sys.executable, "-c", _KILLED_RUN, str(out), str(days),
         str(resume or ""), str(kill_at_write or "")],
        stdout=subprocess.PIPE, text=True, env=env)
    try:
        if kill_after is not None:
            k, delay = kill_after
            for line in proc.stdout:
                if int(line) >= k:
                    time.sleep(delay)
                    proc.send_signal(signal.SIGKILL)
                    break
        proc.stdout.read()
        code = proc.wait(timeout=120)
    finally:
        proc.kill()
        proc.stdout.close()
    assert code in (0, -signal.SIGKILL), code
    return code == -signal.SIGKILL


def test_history_and_checkpoints_survive_sigkill(tmp_path):
    """History every step (one file a step) plus a checkpoint every third
    step, SIGKILLed at seeded random points and then once half way
    through a seeded write, and resumed from the newest checkpoint after
    each kill: every ``history_*.npz`` / ``ckpt_*.npz`` on disk loads, a
    killed write's ``.tmp`` is matched by neither glob nor counted by a
    resumed writer, and the resumed legs' history reads back as the
    straight run's, each time once."""
    days = 2.0
    rng = np.random.default_rng(31)
    hist, ck = tmp_path / "hist", tmp_path / "ck"
    killed, newest = 0, None
    for leg in range(4):
        start = 0 if newest is None else load_checkpoint(newest)[0].time
        start_step = int(round(start / _test_config().atm_dt))
        if leg < 3:
            kill_after = (start_step + int(rng.integers(2, 8)),
                          float(rng.uniform(0.0, 0.03)))
            killed += _leg(tmp_path, days, newest, kill_after)
        else:
            # A write takes a few ms, so a random delay seldom lands in
            # one: this leg dies inside one by construction, and leaves
            # its half-written temporary behind.
            torn = set(tmp_path.glob("*/*.npz.tmp"))
            assert _leg(tmp_path, days, newest,
                        kill_at_write=int(rng.integers(2, 12)))
            assert [p for p in tmp_path.glob("*/*.npz.tmp")
                    if p not in torn and p.stat().st_size > 0]
        for path in sorted(hist.glob("history_*.npz")):
            load_history(path)
        ckpts = sorted(ck.glob("ckpt_*.npz"))
        for path in ckpts:
            load_checkpoint(path)
        newest = ckpts[-1] if ckpts else None
    assert killed >= 2
    # A stale temporary numbered past every file, as a kill inside a write
    # leaves one: no glob matches it and the resumed writer does not count
    # it.
    (hist / "history_99999.npz.tmp").write_bytes(b"PK\x03\x04 torn")
    for prefix, where in (("history", hist), ("ckpt", ck)):
        assert not [p for p in where.glob(f"{prefix}_*.npz")
                    if p.suffix != ".npz"]
    before = {p.name for p in hist.glob("history_*.npz")}
    assert not _leg(tmp_path, days, newest)
    written = {p.name for p in hist.glob("history_*.npz")} - before
    assert written and max(int(p.removeprefix("history_").removesuffix(
        ".npz")) for p in written) < 99999

    got = load_history(sorted(hist.glob("history_*.npz")))
    straight = RunHarness(RunPlan(config=_test_config(), days=days,
                                  history=HistorySpec(
                                      str(tmp_path / "straight"),
                                      interval_days=1 / 24, flush_every=24,
                                      fields=("sst", "t_sfc", "precip")))
                          ).run()
    assert_trees_identical(got, load_history(straight.history_files))
