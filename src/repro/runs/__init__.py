"""Unified run execution: declarative plans, one stepping loop, resume.

``repro.runs`` is the façade every FOAM execution goes through: a
:class:`RunPlan` describes *what* to integrate (world, duration, ensemble
shape, rank layout, output cadences) and :class:`RunHarness` decides *how*
— one observer-instrumented stepping loop shared by serial, batched
ensemble, and concurrent rank-pool execution, with streaming history and
bitwise-resumable checkpoints on every path.
"""

from repro.runs.harness import RunHarness, RunResult, drive_steps
from repro.runs.health import NonFiniteStateError
from repro.runs.observers import (
    HISTORY_FIELDS,
    CheckpointObserver,
    HistoryObserver,
    StepObserver,
)
from repro.runs.plan import (
    RUN_MODES,
    CheckpointSpec,
    HistorySpec,
    RunPlan,
    plan_from_flags,
)

__all__ = [
    "RunPlan", "HistorySpec", "CheckpointSpec", "RUN_MODES", "plan_from_flags",
    "RunHarness", "RunResult", "drive_steps", "NonFiniteStateError",
    "StepObserver", "HistoryObserver", "CheckpointObserver", "HISTORY_FIELDS",
]
