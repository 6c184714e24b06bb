"""History and restart I/O for FOAM runs.

The paper notes the production bottleneck of "large output files" (they ran
at 2,000x real time instead of 4,000x partly because of output); this module
keeps the format deliberately simple — ``.npz`` bundles, stored rather than
deflated — while streaming: :class:`HistoryWriter` holds at most
``flush_every`` snapshots in memory and rolls them to disk, so an
arbitrarily long run writes many small files instead of growing one
unbounded buffer.  Snapshots pass through with their dtype and shape
intact, so batched-ensemble fields carry their leading member axis natively
— one file holds ``(T, nens, ny, nx)``, not N member-at-a-time copies.

Restart checkpoints are versioned and stamped with the producing
configuration's content hash (:meth:`FoamConfig.content_hash`), so the run
harness can refuse a resume onto a different world instead of silently
diverging.  :func:`save_restart` writes one; :func:`load_checkpoint` reads
it back as ``(state, meta)``, the stamp metadata beside the state.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np

from repro.core.foam import FoamState
from repro.util.tree import tree_leaves, tree_skeleton, tree_unflatten

#: The one on-disk checkpoint format this build reads and writes; a file
#: stamped with any other version (or none) is rejected, not guessed at.
#: Version 3 named every state leaf by its path (``state.ocean.temp``);
#: version 4 states carry the radiation and the ocean-forcing window, so a
#: file taken at any step resumes bitwise; version 5 states carry the last
#: step's ``coupler.precip`` / ``.evap`` and no ``coupler.time``.
CHECKPOINT_FORMAT_VERSION = 5


class HistoryWriter:
    """Accumulates named snapshots and streams them to rolling npz files.

    ``flush_every`` bounds the buffer: when that many snapshots have been
    recorded, :meth:`record` flushes automatically, so memory stays
    O(flush_every * snapshot) no matter how long the run is.  Fields keep
    the dtype and shape of their first snapshot (enforced — a shape or
    dtype drift mid-run corrupts the concatenated file) and may carry any
    leading batch axes: the batched ensemble records ``(nens, ny, nx)``
    fields and the files hold ``(T, nens, ny, nx)`` blocks natively.
    """

    def __init__(self, directory: str | Path, prefix: str = "history",
                 flush_every: int | None = None):
        if flush_every is not None and flush_every < 1:
            raise ValueError(f"flush_every must be >= 1, got {flush_every}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.prefix = prefix
        self.flush_every = flush_every
        self._buffer: dict[str, list[np.ndarray]] = {}
        self._times: list[float] = []
        # (shape, dtype) per field, fixed at first record for the writer's
        # whole life — files from one writer must concatenate cleanly.
        self._template: dict[str, tuple[tuple, np.dtype]] = {}
        self.files_written: list[Path] = []
        # Resume-friendly numbering: never overwrite a previous leg's files
        # when a resumed run streams into the same directory — numbering
        # continues after the highest file there, whatever gaps lie below.
        # Numbers of any width count: ``{index:04d}`` has five digits from
        # 10000 on.
        numbers = (p.stem[len(self.prefix) + 1:] for p in
                   self.directory.glob(f"{self.prefix}_*.npz"))
        self._next_file_index = 1 + max(
            (int(n) for n in numbers if n.isdigit()), default=-1)
        self.bytes_written = 0
        self.snapshots_recorded = 0

    # ------------------------------------------------------------------
    def record(self, time: float, **fields: np.ndarray) -> Path | None:
        """Append one snapshot; auto-flushes when the buffer is full.

        Returns the path written when this record triggered a rolling
        flush, else None.
        """
        if not fields:
            raise ValueError("a history snapshot needs at least one field")
        if self._template and set(fields) != set(self._template):
            raise ValueError(
                f"inconsistent history fields: {sorted(fields)} vs "
                f"{sorted(self._template)}")
        arrays = {}
        for name, value in fields.items():
            arr = np.asarray(value)
            want = self._template.get(name)
            if want is not None and (arr.shape, arr.dtype) != want:
                raise ValueError(
                    f"history field {name!r} changed shape/dtype: "
                    f"got {arr.shape}/{arr.dtype}, expected "
                    f"{want[0]}/{want[1]}")
            arrays[name] = arr
        for name, arr in arrays.items():
            self._template.setdefault(name, (arr.shape, arr.dtype))
            self._buffer.setdefault(name, []).append(arr)
        self._times.append(float(time))
        self.snapshots_recorded += 1
        if self.flush_every and len(self._times) >= self.flush_every:
            return self.flush()
        return None

    def flush(self) -> Path | None:
        """Write buffered snapshots to one file; clears the buffer.

        The file appears whole or not at all (:func:`_write_npz_atomically`);
        a write that raises keeps the snapshots buffered and the file number
        unused, so the next flush writes them under that number.
        """
        if not self._times:
            return None
        payload = {name: np.stack(snaps)
                   for name, snaps in self._buffer.items()}
        payload["time"] = np.asarray(self._times)
        path = self.directory / f"{self.prefix}_{self._next_file_index:04d}.npz"
        _write_npz_atomically(path, payload)
        self._next_file_index += 1
        self.files_written.append(path)
        self.bytes_written += path.stat().st_size
        self._buffer.clear()
        self._times.clear()
        return path

    def close(self) -> Path | None:
        """Flush whatever is still buffered (idempotent)."""
        return self.flush()


def load_history(paths) -> dict[str, np.ndarray]:
    """Concatenate one or more history files along the time axis.

    Files may be given in any order — chunks are sorted by their first
    timestamp before concatenation, so a rolling-flush run loads
    identically however the paths were globbed.  Every file must carry
    the same field set; a mismatch raises instead of returning a dict
    whose arrays silently cover different time ranges.

    Each time is returned once.  A run killed after some flushes and
    resumed from an older checkpoint records the steps in between again,
    into new files; a resume is bitwise, so those repeats carry the bytes
    already on disk and one copy is kept.  Repeats whose bytes differ are
    two runs mixed in one directory and raise.
    """
    paths = [Path(p) for p in
             (paths if isinstance(paths, (list, tuple)) else [paths])]
    if not paths:
        raise ValueError("no history files given")
    chunks: list[tuple[float, dict[str, np.ndarray]]] = []
    fields: set[str] | None = None
    for p in paths:
        with np.load(p) as data:
            chunk = {name: data[name] for name in data.files}
        if fields is None:
            fields = set(chunk)
        elif set(chunk) != fields:
            raise ValueError(
                f"inconsistent history files: {p} has fields "
                f"{sorted(chunk)}, expected {sorted(fields)}")
        first = float(chunk["time"][0]) if "time" in chunk and len(
            chunk["time"]) else 0.0
        chunks.append((first, chunk))
    chunks.sort(key=lambda item: item[0])
    data = {name: np.concatenate([chunk[name] for _, chunk in chunks])
            for name in sorted(fields)}
    if "time" not in data:
        return data
    times, first, which, counts = np.unique(
        data["time"], return_index=True, return_inverse=True,
        return_counts=True)
    if len(times) == len(data["time"]):
        return data
    for name, arr in data.items():
        if arr.tobytes() != arr[first][which].tobytes():
            raise ValueError(
                f"history files disagree on {name!r} at repeated times "
                f"{times[counts > 1].tolist()}: chunks of two different runs")
    return {name: arr[first] for name, arr in data.items()}


def _write_npz_atomically(path: Path, payload: dict) -> None:
    """Write ``payload`` as an npz under a sibling temporary name (no
    ``.npz`` suffix, so nothing that globs the final files sees it) and
    rename it onto ``path``: a write killed or failing half way leaves
    whatever was at ``path`` intact, never a torn file.  There is no
    ``fsync`` — atomic against a kill, not against a power cut.

    Members are stored, not deflated: model fields have noisy mantissas,
    so deflate shrank them only to about 0.4 (history) and 0.5
    (checkpoints) of their size, at 16-21x the write time.  ``np.load``
    reads files written either way."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as handle:     # a handle: numpy appends no suffix
            np.savez(handle, **payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ----------------------------------------------------------------- restarts
def _leaf_key(path: tuple) -> str:
    return ".".join(("state",) + tuple(map(str, path)))


def save_restart(path: str | Path, state: FoamState, *,
                 config=None, meta: dict | None = None) -> Path:
    """Serialize a full coupled state (bit-exact round trip).

    Every leaf of ``state`` is written under its path
    (``state.atm_curr.vort``, ``state.coupler.hydrology.snow_depth``,
    ``state.time``), so a field added to any state dataclass is
    checkpointed without touching this module.  Batched (ensemble) states
    serialize unchanged — every array simply carries its member axis.
    ``None`` leaves (an absent ``river_volume``, the radiation arrays
    before the first step) are listed in ``none_leaves`` and round-trip as
    ``None``; they are never zero-filled.

    ``config`` (a :class:`~repro.core.config.FoamConfig`) stamps the file
    with the producing configuration's content hash and JSON so a resume
    can validate compatibility; ``meta`` attaches arbitrary
    JSON-serializable run metadata (mode, nens, scenario, run key).

    The file is written atomically (:func:`_write_npz_atomically`): a run
    killed mid-write leaves the previous file at ``path`` intact, never a
    torn one.
    """
    path = Path(path)
    leaves = {_leaf_key(p): leaf for p, leaf in tree_leaves(state)}
    absent = sorted(k for k, leaf in leaves.items() if leaf is None)
    payload = {k: leaf for k, leaf in leaves.items() if leaf is not None}
    payload.update(format_version=CHECKPOINT_FORMAT_VERSION,
                   none_leaves=json.dumps(absent))
    if config is not None:
        payload["config_hash"] = config.content_hash()
        payload["config_json"] = json.dumps(config.to_dict(), sort_keys=True)
    if meta is not None:
        payload["meta_json"] = json.dumps(meta, sort_keys=True)
    _write_npz_atomically(path, payload)
    return path


def _state_from_npz(d, path) -> FoamState:
    found = (int(d["format_version"]) if "format_version" in d.files
             else "missing")
    if found != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: checkpoint format_version is {found}, "
                         f"this build reads only {CHECKPOINT_FORMAT_VERSION}")
    absent = set(json.loads(str(d["none_leaves"])))

    def load(leaf_path: tuple):
        key = _leaf_key(leaf_path)
        if key in absent:
            return None
        if key not in d.files:
            raise ValueError(f"{path}: checkpoint lacks state leaf {key!r}")
        value = d[key]
        return value.item() if value.ndim == 0 else value   # times are floats

    blank = tree_skeleton(FoamState)
    return tree_unflatten(blank, ((p, load(p)) for p, _ in tree_leaves(blank)))


def load_checkpoint(path: str | Path) -> tuple[FoamState, dict]:
    """Load a checkpoint and its stamp metadata.

    Returns ``(state, meta)`` where ``meta`` always has ``format_version``
    and, when stamped, ``config_hash``, ``config`` (the producing config as
    a dict) and whatever :func:`save_restart` was given as ``meta``.  A
    file whose ``format_version`` is missing or is not
    ``CHECKPOINT_FORMAT_VERSION`` raises ``ValueError``.
    """
    with np.load(path) as d:
        state = _state_from_npz(d, path)
        meta: dict = {"format_version": CHECKPOINT_FORMAT_VERSION}
        if "config_hash" in d.files:
            meta["config_hash"] = str(d["config_hash"])
        if "config_json" in d.files:
            meta["config"] = json.loads(str(d["config_json"]))
        if "meta_json" in d.files:
            meta.update(json.loads(str(d["meta_json"])))
    return state, meta
