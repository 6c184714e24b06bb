"""The run harness: one stepping loop for every execution path.

:class:`RunHarness` resolves a declarative :class:`~repro.runs.plan.RunPlan`
into an integration and owns the time loop for every execution mode:

* **serial** and **ensemble** plans drive :func:`drive_steps` — the single
  observer-instrumented loop that ``FoamModel.run_days`` and
  ``scenario_climatology`` also delegate to;
* **concurrent** plans segment the run at observer-event boundaries and
  hand each segment to the rank-pool driver
  (:func:`repro.parallel.coupled.run_concurrent_coupled`), threading the
  state through — the state is all a segment's forked ranks need beside
  the model, so the segmented trajectory is bitwise the continuous one.
  Each segment's end state is checked like a serial coupling boundary:
  a non-finite leaf raises
  :class:`~repro.runs.health.NonFiniteStateError` before any observer
  sees it.

The headline contract (``tests/test_runs.py``): for any plan,
``run(N days)`` is bitwise float64-identical to ``run(k) -> checkpoint ->
resume -> run(N-k)``, across serial == ensemble-member == rank-pool,
including resuming a serial checkpoint onto the rank pools.  That is what
lets the future serving tier cache results under :meth:`RunPlan.run_key`
regardless of how they were computed.
"""

from __future__ import annotations

import time as _time
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.config import FoamConfig
from repro.core.foam import FoamModel, FoamState
from repro.core.history import HistoryWriter, load_checkpoint
from repro.runs.health import check_finite
from repro.runs.observers import (
    CheckpointObserver,
    HistoryObserver,
    StepObserver,
    step_index,
)
from repro.runs.plan import RunPlan

__all__ = ["RunHarness", "RunResult", "drive_steps"]


def drive_steps(model: FoamModel, state: FoamState, nsteps: int,
                observers: tuple[StepObserver, ...] = ()) -> FoamState:
    """THE stepping loop: ``nsteps`` coupled steps with observer hooks.

    Every in-process execution path funnels through here —
    ``FoamModel.run_days``, the batched ensemble, the scenario
    climatology reducer, and the harness's serial/ensemble modes — so
    there is exactly one place where a FOAM trajectory advances.
    Observers only *read* the state; the trajectory is independent of the
    observer set and of how ``nsteps`` is partitioned into calls.  At every
    coupling boundary (the ocean has just been called) the state is checked
    before any observer sees it: a non-finite leaf raises
    :class:`~repro.runs.health.NonFiniteStateError`.
    """
    for ob in observers:
        ob.on_start(model, state)
    for _ in range(nsteps):
        state = model.coupled_step(state)
        if state.coupler.forcing_steps == 0:
            check_finite(state, step_index(model, state))
        for ob in observers:
            ob.on_step(model, state)
    for ob in observers:
        ob.on_end(model, state)
    return state


@dataclass
class RunResult:
    """Everything one harness run produced."""

    state: FoamState
    plan: RunPlan
    run_key: str
    steps: int                         # steps executed by *this* call
    start_step: int                    # absolute step index the run began at
    wall_seconds: float
    mode: str
    nens: int = 1
    history_files: list[Path] = field(default_factory=list)
    checkpoints: list[Path] = field(default_factory=list)
    #: Per-segment pool-driver results (concurrent mode only).
    concurrent: list = field(default_factory=list)

    @property
    def hidden_fraction(self) -> float:
        """Ocean-compute overlap across concurrent segments (0 if serial)."""
        busy = sum(r.ocean_busy_seconds for r in self.concurrent)
        if busy <= 0.0:
            return 0.0
        return sum(r.overlap_seconds for r in self.concurrent) / busy


class RunHarness:
    """Resolve a :class:`RunPlan` and own its stepping loop end to end."""

    def __init__(self, plan: RunPlan,
                 observers: tuple[StepObserver, ...] = ()):
        self.plan = plan
        self.config: FoamConfig = plan.resolved_config()
        self.extra_observers = tuple(observers)
        self.ensemble = None
        self.layout = None
        if plan.mode == "concurrent":
            # Built here, not at the first leg, so a pool run's set-up
            # pays for loading the rank transport: a run's first leg is
            # the one a throughput measurement discards as warm-up.
            from repro.parallel.coupled import PoolLayout
            self.layout = PoolLayout(n_atm=plan.n_atm)
        if plan.mode == "ensemble":
            from repro.core.ensemble import EnsembleConfig, FoamEnsemble
            self.ensemble = FoamEnsemble(EnsembleConfig(
                nens=plan.nens, base=self.config,
                ic_perturbation=plan.ic_perturbation))
            self.model = self.ensemble.model
        else:
            self.model = FoamModel(self.config)

    # ------------------------------------------------------------------
    def initial_state(self) -> FoamState:
        if self.ensemble is not None:
            return self.ensemble.initial_state()
        return self.model.initial_state()

    def _build_observers(self) -> tuple[StepObserver, ...]:
        plan, cfg = self.plan, self.config
        built: list[StepObserver] = []
        if plan.history is not None:
            writer = HistoryWriter(plan.history.directory,
                                   prefix=plan.history.prefix,
                                   flush_every=plan.history.flush_every)
            built.append(HistoryObserver(
                writer, plan.history.interval_steps(cfg),
                fields=plan.history.fields))
        if plan.checkpoint is not None:
            built.append(CheckpointObserver(
                plan.checkpoint.directory,
                plan.checkpoint.interval_steps(cfg), config=cfg,
                meta={"run_key": self.plan.run_key(), "mode": plan.mode,
                      "nens": plan.nens, "scenario": plan.scenario,
                      "days": plan.days, "tags": list(plan.tags)},
                prefix=plan.checkpoint.prefix))
        return tuple(built) + self.extra_observers

    # ------------------------------------------------------------------
    def _load_resume_state(self, checkpoint: str | Path) -> FoamState:
        state, meta = load_checkpoint(checkpoint)
        want = self.config.content_hash()
        got = meta.get("config_hash")
        if got is not None and got != want:
            raise ValueError(
                f"checkpoint {checkpoint} was produced by a different "
                f"configuration (hash {got[:12]}… vs plan {want[:12]}…); "
                f"resuming would silently diverge")
        ckpt_nens = meta.get("nens")
        if ckpt_nens is not None and ckpt_nens != self.plan.nens:
            raise ValueError(
                f"checkpoint {checkpoint} holds nens={ckpt_nens} members "
                f"but the plan asks for nens={self.plan.nens}")
        # ``dtype=None`` hashes alike whichever precision FOAM_DTYPE picks,
        # so the config hash alone lets a run of the other precision in.
        policy = self.model.policy
        got = (state.atm_curr.vort.dtype, state.ocean.temp.dtype)
        want = (policy.complex_dtype, policy.float_dtype)
        if got != want:
            raise ValueError(
                f"checkpoint {checkpoint} holds {got[0]} / {got[1]} state "
                f"but the model runs {want[0]} / {want[1]} "
                f"({policy.name}); resuming would mix precisions")
        return state

    # ------------------------------------------------------------------
    def run(self, *, state: FoamState | None = None,
            resume_from: str | Path | None = None,
            observers: tuple[StepObserver, ...] = ()) -> RunResult:
        """Execute the plan (or its remainder, when resuming).

        ``plan.days`` is the run's *total* duration from time zero:
        resuming from a checkpoint taken at day ``k`` integrates the
        remaining ``days - k`` — so ``run()`` and ``run(resume_from=...)``
        of the same plan end at the same simulated time with bitwise the
        same state.
        """
        if state is not None and resume_from is not None:
            raise ValueError("pass either state or resume_from, not both")
        if resume_from is not None:
            state = self._load_resume_state(resume_from)
        elif state is None:
            state = self.initial_state()

        cfg = self.config
        total = self.plan.total_steps(cfg)
        start = step_index(self.model, state)
        if start > total:
            raise ValueError(
                f"state is already {start} steps in; the plan only runs "
                f"{total} (raise plan.days to resume further)")
        remaining = total - start
        observers = self._build_observers() + tuple(observers)

        t0 = _time.perf_counter()
        if self.plan.mode == "concurrent":
            result_state, segments = self._run_concurrent(
                state, start, total, observers)
        else:
            result_state = drive_steps(self.model, state, remaining,
                                       observers)
            segments = []
        wall = _time.perf_counter() - t0

        history_files: list[Path] = []
        checkpoints: list[Path] = []
        for ob in observers:
            if isinstance(ob, HistoryObserver):
                history_files.extend(ob.writer.files_written)
            if isinstance(ob, CheckpointObserver):
                checkpoints.extend(ob.paths)
        return RunResult(
            state=result_state, plan=self.plan, run_key=self.plan.run_key(),
            steps=remaining, start_step=start, wall_seconds=wall,
            mode=self.plan.mode, nens=self.plan.nens,
            history_files=history_files, checkpoints=checkpoints,
            concurrent=segments)

    # ------------------------------------------------------------------
    def _segment_targets(self, start: int, total: int,
                         observers) -> list[int]:
        """Absolute step indices the concurrent run must surface state at:
        wherever a cadenced observer fires, and the end."""
        targets = {total}
        for ob in observers:
            if ob.interval_steps is not None:
                targets.update(s for s in range(start + 1, total + 1)
                               if s % ob.interval_steps == 0)
        return sorted(targets)

    def _run_concurrent(self, state: FoamState, start: int, total: int,
                        observers) -> tuple[FoamState, list]:
        from repro.parallel.coupled import run_concurrent_coupled

        for ob in observers:
            ob.on_start(self.model, state)
        segments = []
        cursor = start
        for target in self._segment_targets(start, total, observers):
            if target == cursor:
                continue
            seg = run_concurrent_coupled(self.model, state, target - cursor,
                                         self.layout)
            segments.append(seg)
            state = seg.state
            cursor = target
            check_finite(state, target)
            for ob in observers:
                ob.on_step(self.model, state)
        for ob in observers:
            ob.on_end(self.model, state)
        return state, segments
