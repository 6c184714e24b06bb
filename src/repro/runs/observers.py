"""Pluggable per-step hooks for the run harness.

A :class:`StepObserver` sees the model and the state after every coupled
step (and at run start/end) without owning any part of the stepping loop —
history output, checkpointing and climatology accumulation are all
observers, so every execution path (serial, batched ensemble, concurrent
rank pools) gets them from the same code.  An observer reads the state and
nothing else: what it reports is a function of the ``FoamState`` it is
handed (the model supplies static grids and operators), so the same
observer serves every mode and a resumed run.

Cadenced observers derive "am I due?" from the *absolute* step index
(``round(state.time / atm_dt)``), never from a private counter — so a run
resumed from a checkpoint fires at exactly the step numbers the
straight-through run would, and ``run(N)`` and ``run(k) + resume(N-k)``
produce identical history files and checkpoint sequences.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.core.history import HistoryWriter, save_restart

__all__ = ["StepObserver", "HistoryObserver", "CheckpointObserver",
           "HISTORY_FIELDS", "step_index"]


def step_index(model, state) -> int:
    """Absolute coupled-step index of a state (0 at time zero)."""
    return int(round(state.time / model.config.atm_dt))


class StepObserver:
    """Base class: override any subset of the three hooks.

    In-process runs call ``on_step`` after every step; a pool run surfaces
    the state every ``interval_steps`` steps (where declared) and at the end.
    """

    interval_steps: int | None = None

    def on_start(self, model, state) -> None:
        """Called once with the state the loop starts from."""

    def on_step(self, model, state) -> None:
        """Called after every coupled step with the new state."""

    def on_end(self, model, state) -> None:
        """Called once with the final state."""


# ----------------------------------------------------------------------
# history
# ----------------------------------------------------------------------
#: Named history field extractors: ``f(model, state) -> ndarray``.  All
#: shapes pass through untouched, so batched states contribute their
#: member axis natively (``(nens, ny, nx)`` snapshots -> ``(T, nens, ny,
#: nx)`` files).
HISTORY_FIELDS = {
    "sst": lambda model, state: np.nan_to_num(model.ocean.sst(state.ocean)),
    "t_sfc": lambda model, state: model.coupler.surface_temperature(
        state.coupler, model.ocean.sst(state.ocean)),
    "ice_thickness": lambda model, state: state.coupler.ice.thickness,
    "eta": lambda model, state: state.ocean.eta,
    "soil_moisture": lambda model, state: state.coupler.hydrology.soil_moisture,
    "snow_depth": lambda model, state: state.coupler.hydrology.snow_depth,
    "precip": lambda model, state: state.coupler.precip,
    "evap": lambda model, state: state.coupler.evap,
}

#: What a history records unless told otherwise: the one default of
#: :class:`HistoryObserver` and :class:`repro.runs.plan.HistorySpec`.
DEFAULT_HISTORY_FIELDS = ("sst", "t_sfc", "ice_thickness", "precip")


class HistoryObserver(StepObserver):
    """Streams named diagnostics to a rolling :class:`HistoryWriter`.

    Records every ``interval_steps`` coupled steps (by absolute step
    index, so resumed runs continue the exact snapshot schedule) plus the
    initial state at run start when it falls on the cadence.
    """

    def __init__(self, writer: HistoryWriter, interval_steps: int,
                 fields: tuple[str, ...] = DEFAULT_HISTORY_FIELDS):
        if interval_steps < 1:
            raise ValueError(f"interval_steps must be >= 1, "
                             f"got {interval_steps}")
        unknown = set(fields) - set(HISTORY_FIELDS)
        if unknown:
            raise ValueError(f"unknown history fields {sorted(unknown)}; "
                             f"known: {sorted(HISTORY_FIELDS)}")
        self.writer = writer
        self.interval_steps = interval_steps
        self.fields = tuple(fields)

    def _record(self, model, state) -> None:
        self.writer.record(state.time, **{
            name: HISTORY_FIELDS[name](model, state) for name in self.fields})

    def on_start(self, model, state) -> None:
        # The t=0 snapshot of a fresh run; resumed runs start past it and
        # must not re-record their checkpointed step's snapshot.
        if step_index(model, state) == 0:
            self._record(model, state)

    def on_step(self, model, state) -> None:
        if step_index(model, state) % self.interval_steps == 0:
            self._record(model, state)

    def on_end(self, model, state) -> None:
        self.writer.close()


# ----------------------------------------------------------------------
# checkpoints
# ----------------------------------------------------------------------
class CheckpointObserver(StepObserver):
    """Writes versioned, config-hash-stamped checkpoints on a cadence; every
    file is bitwise resumable by a fresh model in any execution mode."""

    def __init__(self, directory: str | Path, interval_steps: int, *,
                 config, meta: dict | None = None, prefix: str = "ckpt"):
        if interval_steps < 1:
            raise ValueError(f"interval_steps must be >= 1, "
                             f"got {interval_steps}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.interval_steps = interval_steps
        self.config = config
        self.meta = dict(meta or {})
        self.prefix = prefix
        self.paths: list[Path] = []

    def on_step(self, model, state) -> None:
        istep = step_index(model, state)
        if istep % self.interval_steps == 0:
            path = self.directory / f"{self.prefix}_{istep:08d}.npz"
            save_restart(path, state, config=self.config,
                         meta={**self.meta, "step": istep})
            self.paths.append(path)
