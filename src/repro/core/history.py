"""History and restart I/O for FOAM runs.

The paper notes the production bottleneck of "large output files" (they ran
at 2,000x real time instead of 4,000x partly because of output); this module
keeps the format deliberately simple — compressed ``.npz`` bundles — while
streaming: :class:`HistoryWriter` holds at most ``flush_every`` snapshots in
memory and rolls them to disk, so an arbitrarily long run writes many small
files instead of growing one unbounded buffer.  Snapshots pass through with
their dtype and shape intact, so batched-ensemble fields carry their leading
member axis natively — one file holds ``(T, nens, ny, nx)``, not N
member-at-a-time copies.

Restart checkpoints are versioned and stamped with the producing
configuration's content hash (:meth:`FoamConfig.content_hash`), so the run
harness can refuse a resume onto a different world instead of silently
diverging.  ``save_restart``/``load_restart`` remain the compact state-only
API; :func:`load_checkpoint` additionally returns the stamp metadata.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.atmosphere.dynamics import AtmosphereState
from repro.core.foam import FoamState
from repro.coupler.coupler import CouplerState
from repro.coupler.hydrology import HydrologyState
from repro.coupler.land import LandState
from repro.coupler.seaice import SeaIceState
from repro.ocean.model import OceanState

#: The one on-disk checkpoint format this build reads and writes; a file
#: stamped with any other version (or none) is rejected, not guessed at.
CHECKPOINT_FORMAT_VERSION = 2


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
        # when a resumed run streams into the same directory.
        self._next_file_index = len(list(self.directory.glob(
            f"{self.prefix}_[0-9][0-9][0-9][0-9].npz")))
        self.bytes_written = 0
        self.snapshots_recorded = 0

    # ------------------------------------------------------------------
    @property
    def buffered_snapshots(self) -> int:
        return len(self._times)

    @property
    def nbytes_buffered(self) -> int:
        return sum(arr.nbytes for snaps in self._buffer.values()
                   for arr in snaps)

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
        """Write buffered snapshots to one compressed file; clears the buffer."""
        if not self._times:
            return None
        payload = {name: np.stack(snaps)
                   for name, snaps in self._buffer.items()}
        payload["time"] = np.asarray(self._times)
        path = self.directory / f"{self.prefix}_{self._next_file_index:04d}.npz"
        self._next_file_index += 1
        np.savez_compressed(path, **payload)
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
    return {name: np.concatenate([chunk[name] for _, chunk in chunks])
            for name in sorted(fields)}


# ----------------------------------------------------------------- restarts
def save_restart(path: str | Path, state: FoamState, *,
                 config=None, meta: dict | None = None) -> Path:
    """Serialize a full coupled state (bit-exact round trip).

    ``config`` (a :class:`~repro.core.config.FoamConfig`) stamps the file
    with the producing configuration's content hash and JSON so a resume
    can validate compatibility; ``meta`` attaches arbitrary
    JSON-serializable run metadata (mode, nens, scenario, run key).
    Batched (ensemble) states serialize unchanged — every array simply
    carries its member axis.  A ``river_volume`` of None round-trips as
    None (format v2); it is never zero-filled.
    """
    path = Path(path)
    a_p, a_c = state.atm_prev, state.atm_curr
    o = state.ocean
    c = state.coupler
    payload = dict(
        format_version=CHECKPOINT_FORMAT_VERSION,
        time=state.time,
        ap_vort=a_p.vort, ap_div=a_p.div, ap_temp=a_p.temp,
        ap_lnps=a_p.lnps, ap_q=a_p.q, ap_time=a_p.time,
        ac_vort=a_c.vort, ac_div=a_c.div, ac_temp=a_c.temp,
        ac_lnps=a_c.lnps, ac_q=a_c.q, ac_time=a_c.time,
        o_u=o.u, o_v=o.v, o_temp=o.temp, o_salt=o.salt,
        o_eta=o.eta, o_ubar=o.ubar, o_vbar=o.vbar, o_time=o.time,
        c_soil_temp=c.land.soil_temp,
        c_soil_moisture=c.hydrology.soil_moisture,
        c_snow=c.hydrology.snow_depth,
        c_ice_h=c.ice.thickness, c_ice_ts=c.ice.surface_temp,
        c_river_present=c.river_volume is not None,
        c_time=c.time)
    if c.river_volume is not None:
        payload["c_river"] = c.river_volume
    if config is not None:
        payload["config_hash"] = config.content_hash()
        payload["config_json"] = json.dumps(config.to_dict(), sort_keys=True)
    if meta is not None:
        payload["meta_json"] = json.dumps(meta, sort_keys=True)
    np.savez_compressed(path, **payload)
    return path


def _state_from_npz(d, path) -> FoamState:
    found = (int(d["format_version"]) if "format_version" in d.files
             else "missing")
    if found != CHECKPOINT_FORMAT_VERSION:
        raise ValueError(f"{path}: checkpoint format_version is {found}, "
                         f"this build reads only {CHECKPOINT_FORMAT_VERSION}")
    atm_prev = AtmosphereState(d["ap_vort"], d["ap_div"], d["ap_temp"],
                               d["ap_lnps"], d["ap_q"], float(d["ap_time"]))
    atm_curr = AtmosphereState(d["ac_vort"], d["ac_div"], d["ac_temp"],
                               d["ac_lnps"], d["ac_q"], float(d["ac_time"]))
    ocean = OceanState(d["o_u"], d["o_v"], d["o_temp"], d["o_salt"],
                       d["o_eta"], d["o_ubar"], d["o_vbar"],
                       float(d["o_time"]))
    river = d["c_river"] if bool(d["c_river_present"]) else None
    coupler = CouplerState(
        land=LandState(d["c_soil_temp"]),
        hydrology=HydrologyState(d["c_soil_moisture"], d["c_snow"]),
        ice=SeaIceState(d["c_ice_h"], d["c_ice_ts"]),
        river_volume=river,
        time=float(d["c_time"]))
    return FoamState(atm_prev=atm_prev, atm_curr=atm_curr, ocean=ocean,
                     coupler=coupler, time=float(d["time"]))


def load_restart(path: str | Path) -> FoamState:
    """Inverse of :func:`save_restart` (state only; stamps ignored)."""
    with np.load(path) as d:
        return _state_from_npz(d, path)


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
