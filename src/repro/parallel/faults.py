"""Fault injection for the simulated MPI layer.

The communication layer is the part of a coupled model that earns trust
through perturbation: every production MPI code eventually meets delayed
messages, reordered delivery, corrupted payloads, and dead peers, and the
difference between a diagnosable failure and a two-minute hang is whether
those conditions can be *provoked on demand*.  This module provides the
:class:`FaultPlan` that :func:`repro.parallel.procmpi.run_ranks` threads
through every ``send``/``recv`` and therefore through every collective
(collectives are layered on point-to-point, so a plan perturbs ``bcast``,
``reduce``, ``gather``, ``scatter``, ``alltoall`` and ``barrier`` traffic
with no extra plumbing).

The FaultPlan model
-------------------
A plan is an ordered list of rules built with chained calls::

    plan = (FaultPlan()
            .delay(0.2, src=0, dest=1)        # hold messages 0->1 for 200 ms
            .duplicate(src=1, dest=0, tag=5)  # deliver tag-5 messages twice
            .reorder(src=2, dest=3)           # swap consecutive 2->3 messages
            .corrupt(src=0, dest=2, times=1)  # negate the first payload 0->2
            .crash(rank=3, at_op=4))          # rank 3 dies at its 4th comm op

    run_ranks(4, worker, faults=plan)

Rule matching: ``src``/``dest``/``tag`` of ``None`` match anything; ``times``
bounds how often a rule fires (``None`` = unlimited).  Rules are applied in
the order they were added.  The five kinds:

* **delay** — the message is enqueued immediately but becomes *visible* to
  the receiver only ``seconds`` later, modelling a slow link.  Later
  messages on the same link can overtake it, so a delay also perturbs
  ordering exactly as real networks do.
* **reorder** — consecutive matching messages are delivered pairwise
  swapped (the second overtakes the first).  A held message is flushed when
  its sender finishes, dies, or when the world would otherwise deadlock, so
  reordering never wedges a correct program.
* **duplicate** — the message is delivered twice, modelling retransmission.
* **corrupt** — every ndarray in the payload is replaced by ``-x - 1``
  (``~x`` for booleans), a deterministic, always-detectable corruption.
* **crash** — the rank raises ``RankCrashedError`` when it *begins* its
  ``at_op``-th communication operation (1-based, counting top-level ops).
  Peers then observe a structured ``CommError`` naming the dead rank
  instead of hanging.

Calibrating the performance model with CommStats
------------------------------------------------
Every :class:`~repro.parallel.commbase.CommBase` keeps a
:class:`~repro.parallel.commbase.CommStats` counter of messages, bytes and
calls per operation label.  ``repro.parallel.components.measure_transpose_comm``
runs the real distributed spectral transpose and returns those per-rank
counters; ``repro.perf.costmodel.transpose_bytes_from_stats`` converts them
into the full-exchange byte volume, which
``repro.perf.eventsim.simulate_coupled_day(..., transpose_comm=...)`` then
charges instead of its analytic ``AtmosphereCost.transpose_bytes()``
formula — simulated timing driven by *measured* message traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.util.tree import tree_map

# A message in flight is the tuple (src, dest, tag, payload, visible_at).
_Held = tuple[int, int, int, Any, float]


def corrupt_array(arr: np.ndarray) -> np.ndarray:
    """``-x - 1`` (``~x`` for booleans): deterministic, always detectable."""
    return ~arr if arr.dtype == bool else -arr - 1


def corrupt_payload(obj: Any) -> Any:
    """Deterministically corrupt every ndarray in a payload (``-x - 1``)."""
    return tree_map(corrupt_array, obj)


@dataclass
class _Rule:
    kind: str                      # delay | reorder | duplicate | corrupt | crash
    src: int | None = None
    dest: int | None = None
    tag: int | None = None
    seconds: float = 0.0           # delay only
    rank: int | None = None        # crash only
    at_op: int = 1                 # crash only (1-based op counter)
    times: int | None = None       # max firings; None = unlimited
    applied: int = 0
    held: _Held | None = None      # reorder only: the message being held back

    def active(self) -> bool:
        return self.times is None or self.applied < self.times

    def matches_send(self, src: int, dest: int, tag: int) -> bool:
        return (self.active()
                and self.src in (None, src)
                and self.dest in (None, dest)
                and self.tag in (None, tag))


class FaultPlan:
    """An injectable schedule of communication faults (see module docstring).

    A plan is mutable shared state for one :func:`run_ranks` world; all rule
    bookkeeping happens under the world lock, so a plan must not be shared
    between concurrently running worlds.
    """

    def __init__(self):
        self.rules: list[_Rule] = []

    # -------------------------------------------------- builder interface
    def delay(self, seconds: float, *, src: int | None = None,
              dest: int | None = None, tag: int | None = None,
              times: int | None = None) -> "FaultPlan":
        """Delay delivery of matching messages by ``seconds``."""
        if seconds < 0:
            raise ValueError(f"delay must be >= 0, got {seconds}")
        self.rules.append(_Rule("delay", src, dest, tag, seconds=seconds, times=times))
        return self

    def reorder(self, *, src: int | None = None, dest: int | None = None,
                tag: int | None = None, times: int | None = None) -> "FaultPlan":
        """Deliver consecutive matching messages pairwise swapped."""
        self.rules.append(_Rule("reorder", src, dest, tag, times=times))
        return self

    def duplicate(self, *, src: int | None = None, dest: int | None = None,
                  tag: int | None = None, times: int | None = None) -> "FaultPlan":
        """Deliver matching messages twice."""
        self.rules.append(_Rule("duplicate", src, dest, tag, times=times))
        return self

    def corrupt(self, *, src: int | None = None, dest: int | None = None,
                tag: int | None = None, times: int | None = None) -> "FaultPlan":
        """Corrupt ndarray payloads of matching messages."""
        self.rules.append(_Rule("corrupt", src, dest, tag, times=times))
        return self

    def crash(self, rank: int, at_op: int = 1) -> "FaultPlan":
        """Kill ``rank`` when it begins its ``at_op``-th communication op."""
        if at_op < 1:
            raise ValueError(f"at_op is 1-based, got {at_op}")
        self.rules.append(_Rule("crash", rank=rank, at_op=at_op, times=1))
        return self

    # -------------------------------------------------- engine interface
    @property
    def empty(self) -> bool:
        return not self.rules

    def crash_message(self, rank: int, op_count: int, op: str) -> str | None:
        """Return the crash text if ``rank`` must die at op ``op_count``."""
        for rule in self.rules:
            if (rule.kind == "crash" and rule.active()
                    and rule.rank == rank and op_count >= rule.at_op):
                rule.applied += 1
                return (f"rank {rank}: injected crash at communication "
                        f"op #{op_count} ({op})")
        return None

    def apply_send(self, src: int, dest: int, tag: int, payload: Any,
                   now: float,
                   corrupt: Any = corrupt_payload) -> list[tuple[int, int, Any, float]]:
        """Transform one outgoing message into zero or more deliveries.

        Returns ``[(dest, tag, payload, visible_at), ...]`` in delivery
        order; an empty list means the message is held back (reorder).
        Called from the router, the single point all traffic passes; it
        supplies its own ``corrupt`` transform able to reach
        shared-memory-parked arrays.
        """
        visible = now
        copies = 1
        for rule in self.rules:
            if not rule.matches_send(src, dest, tag):
                continue
            if rule.kind == "corrupt":
                rule.applied += 1
                payload = corrupt(payload)
            elif rule.kind == "delay":
                rule.applied += 1
                visible = max(visible, now + rule.seconds)
            elif rule.kind == "duplicate":
                rule.applied += 1
                copies += 1
            elif rule.kind == "reorder":
                rule.applied += 1
                if rule.held is None:
                    rule.held = (src, dest, tag, payload, visible)
                    return []
                _, hdest, htag, hpayload, hvis = rule.held
                rule.held = None
                return ([(dest, tag, payload, visible)] * copies
                        + [(hdest, htag, hpayload, hvis)])
        return [(dest, tag, payload, visible)] * copies

    def flush_held(self, src: int | None = None) -> list[_Held]:
        """Release held (reorder) messages, optionally only those from ``src``.

        Used when a sender finishes or dies, and as the progress valve of the
        deadlock detector: a held message counts as in-flight traffic, so the
        world is not deadlocked while one exists.
        """
        out: list[_Held] = []
        for rule in self.rules:
            if rule.kind == "reorder" and rule.held is not None:
                if src is None or rule.held[0] == src:
                    out.append(rule.held)
                    rule.held = None
        return out
