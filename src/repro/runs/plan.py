"""Declarative run plans: one object describes a whole execution.

A :class:`RunPlan` captures everything that determines a FOAM integration —
the world (config and/or scenario), the duration, the execution mode
(serial, batched ensemble, concurrent rank pools), and the output
cadences (history snapshots, restart checkpoints).  The
:class:`~repro.runs.harness.RunHarness` resolves a plan into a single
stepping loop; nothing about the *result* depends on how the
plan is executed (the resume/equivalence contract in ``tests/test_runs.py``
pins serial == ensemble-member == rank-pool bitwise).

:func:`RunPlan.run_key` is the content hash the future serving tier caches
on: it covers exactly the result-determining inputs (config, scenario,
duration, ensemble shape) and deliberately **excludes** the execution mode,
rank layout, and output cadences — bitwise mode-equivalence is
what makes one cache entry valid for every way of computing it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.core.config import FoamConfig, named_config, test_config
from repro.runs.observers import DEFAULT_HISTORY_FIELDS

RUN_MODES = ("serial", "ensemble", "concurrent")


def days_to_steps(days: float, config: FoamConfig) -> int:
    """Whole atmosphere steps in ``days`` (at least one)."""
    return max(1, int(round(days * 86400.0 / config.atm_dt)))


@dataclass(frozen=True)
class HistorySpec:
    """Streaming history output: what to record, how often, where.

    ``fields`` names extractors from
    :data:`repro.runs.observers.HISTORY_FIELDS`.  ``flush_every`` bounds
    writer memory: that many snapshots roll to one file.
    """

    directory: str
    interval_days: float = 0.25
    fields: tuple[str, ...] = DEFAULT_HISTORY_FIELDS
    flush_every: int = 8
    prefix: str = "history"

    def __post_init__(self):
        if self.interval_days <= 0:
            raise ValueError(f"history interval_days must be > 0, "
                             f"got {self.interval_days}")
        if not self.fields:
            raise ValueError("history needs at least one field")

    def interval_steps(self, config: FoamConfig) -> int:
        return days_to_steps(self.interval_days, config)


@dataclass(frozen=True)
class CheckpointSpec:
    """Restart checkpoints: cadence and directory.

    Any cadence of whole steps: a checkpoint is the state, and the state is
    everything a fresh model in any execution mode needs to resume bitwise.
    """

    directory: str
    interval_days: float = 0.5
    prefix: str = "ckpt"

    def __post_init__(self):
        if self.interval_days <= 0:
            raise ValueError(f"checkpoint interval_days must be > 0, "
                             f"got {self.interval_days}")

    def interval_steps(self, config: FoamConfig) -> int:
        return days_to_steps(self.interval_days, config)


@dataclass(frozen=True)
class RunPlan:
    """A complete, declarative description of one FOAM run.

    ``config`` is the base configuration (default: ``test_config()``);
    ``scenario`` optionally names a registered world whose knobs are
    applied on top of it.  ``mode`` selects the execution path; ``nens``
    and ``ic_perturbation`` shape the ensemble; ``n_atm`` (≥ 1, at most
    the atmosphere's latitudes) is the concurrent run's atmosphere rank
    count, next to one coupler and one ocean rank.  ``history`` and
    ``checkpoint`` attach the streaming observers.  ``n_ocn`` and
    ``substrate`` are vestigial: a pool has one ocean rank and runs on
    forked processes, and the fields survive (``n_ocn`` 1 only,
    ``substrate`` ``None`` or ``"process"`` only) because the frozen ledger
    workload still passes them.
    """

    config: FoamConfig | None = None
    scenario: str | None = None
    days: float = 1.0
    mode: str = "serial"
    nens: int = 1
    ic_perturbation: float = 0.0
    n_atm: int = 2
    n_ocn: int = 1
    substrate: str | None = None
    history: HistorySpec | None = None
    checkpoint: CheckpointSpec | None = None
    #: Free-form labels stored in checkpoint metadata.
    tags: tuple[str, ...] = field(default=())

    def __post_init__(self):
        if self.mode not in RUN_MODES:
            raise ValueError(f"mode must be one of {RUN_MODES}, "
                             f"got {self.mode!r}")
        if self.days <= 0:
            raise ValueError(f"days must be > 0, got {self.days}")
        if self.nens < 1:
            raise ValueError(f"nens must be >= 1, got {self.nens}")
        if self.mode != "ensemble" and self.nens != 1:
            raise ValueError(f"nens={self.nens} requires mode='ensemble'")
        if self.mode != "ensemble" and self.ic_perturbation != 0.0:
            raise ValueError(f"ic_perturbation={self.ic_perturbation} "
                             f"requires mode='ensemble'")
        if self.substrate not in (None, "process"):
            raise ValueError(
                f"substrate={self.substrate!r}: the selector was removed — "
                f"forked rank processes are the only transport (leave it "
                f"unset)")
        if self.n_ocn != 1:
            raise ValueError(
                f"n_ocn={self.n_ocn}: a rank pool has one ocean rank (the "
                f"ocean step is not decomposed; leave it unset)")

    # ------------------------------------------------------------------
    def resolved_config(self) -> FoamConfig:
        """The effective :class:`FoamConfig` (scenario knobs applied)."""
        base = self.config if self.config is not None else test_config()
        if self.scenario is None:
            return base
        from repro.scenarios.registry import get_scenario
        return get_scenario(self.scenario).config(base)

    def total_steps(self, config: FoamConfig | None = None) -> int:
        cfg = config if config is not None else self.resolved_config()
        return days_to_steps(self.days, cfg)

    # ------------------------------------------------------------------
    def run_key(self) -> str:
        """Content hash of the result-determining inputs.

        Two plans share a key iff they integrate the same world for the
        same duration with the same ensemble shape — however they are
        executed.  This is the serving tier's future cache key: a result
        computed serially satisfies a concurrent request and vice versa,
        because the execution paths are proven bitwise-equivalent.
        """
        cfg = self.resolved_config()
        payload = json.dumps(
            {"config": cfg.content_hash(), "scenario": self.scenario,
             "days": self.days, "nens": self.nens,
             "ic_perturbation": self.ic_perturbation},
            sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_from_flags(*, size: str = "test", days: float = 1.0,
                    scenario: str | None = None, seed: int | None = None,
                    dtype: str | None = None, ensemble: int | None = None,
                    perturb: float = 0.0, atm_ranks: int | None = None,
                    history: HistorySpec | None = None,
                    checkpoint: CheckpointSpec | None = None) -> RunPlan:
    """The command-line flag vocabulary → a :class:`RunPlan`.

    Shared by ``python -m repro.scenarios run`` and ``python -m
    repro.perf.report`` so the same flags mean the same run: ``--ensemble
    N`` is a batched N-member run, ``--atm-ranks N`` a rank-pool run (N
    atmosphere ranks + 1 coupler + 1 ocean; ``--atm-ranks 1`` is a 1+1+1
    pool), ``--size``/``--config`` names the resolution, ``--seed``/
    ``--dtype`` override that configuration.
    """
    pooled = atm_ranks is not None
    if ensemble and pooled:
        raise ValueError("--ensemble and --atm-ranks are mutually exclusive")
    config = named_config(size)
    if seed is not None:
        config.seed = seed
    if dtype is not None:
        config.dtype = dtype
    return RunPlan(
        config=config, scenario=scenario, days=days,
        mode="concurrent" if pooled else "ensemble" if ensemble else "serial",
        nens=ensemble or 1, ic_perturbation=perturb if ensemble else 0.0,
        n_atm=1 if atm_ranks is None else atm_ranks,
        history=history, checkpoint=checkpoint)
