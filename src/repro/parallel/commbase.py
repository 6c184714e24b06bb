"""What the rank router and the rank communicators share.

The simulated MPI layer's vocabulary, kept apart from the transport in
:mod:`repro.parallel.procmpi` because both its sides — the parent-side
router and :class:`~repro.parallel.procmpi.Comm` in every rank — speak
it: the failure types (:class:`CommError`, :class:`DeadlockError` with
its :class:`DeadlockReport`), the per-rank :class:`CommStats` counters,
envelope matching under communicator-context tags, the payload helpers
and the communication timeout.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.util.tree import tree_leaves, tree_map

ANY_SOURCE = -1
ANY_TAG = -1
_CTX_SHIFT = 36                # communicator-context bits above the tag space:
                               # absolute tag = (ctx << _CTX_SHIFT) + tag, so
                               # sub-communicator traffic can never match the
                               # parent's (collective bases stop at 5 << 30)
_DEFAULT_TIMEOUT = 120.0       # seconds before declaring a hang outside pytest
_PYTEST_TIMEOUT = 10.0         # default under pytest: a genuine bug should not
                               # cost the suite two minutes of sleeping


def _default_timeout() -> float:
    """Resolve the default communication timeout for this process.

    ``REPRO_SIMMPI_TIMEOUT`` overrides; otherwise the default is low when
    running under pytest.  The timeout is a last-resort backstop — genuine
    deadlocks are caught by the wait-for-graph detector long before it.
    """
    env = os.environ.get("REPRO_SIMMPI_TIMEOUT")
    if env:
        return float(env)
    if os.environ.get("PYTEST_CURRENT_TEST") or "pytest" in sys.modules:
        return _PYTEST_TIMEOUT
    return _DEFAULT_TIMEOUT


class CommError(RuntimeError):
    """Raised on misuse of the communicator (bad rank, dead peer, timeout)."""


@dataclass(frozen=True)
class BlockedRank:
    """One blocked rank in a :class:`DeadlockReport`."""

    rank: int
    op: str                    # operation label: recv, barrier, alltoall, ...
    peer: int                  # source rank it waits on; ANY_SOURCE if wildcard
    tag: int                   # tag it waits on; ANY_TAG if wildcard
    waited: float              # seconds spent blocked when diagnosed

    def __str__(self) -> str:
        peer = "ANY" if self.peer == ANY_SOURCE else self.peer
        tag = "ANY" if self.tag == ANY_TAG else self.tag
        return (f"rank {self.rank}: blocked in {self.op}(source={peer}, "
                f"tag={tag}) for {self.waited:.2f}s")


@dataclass(frozen=True)
class DeadlockReport:
    """Structured diagnosis of a wedged world.

    ``blocked`` lists every live blocked rank with its operation, peer and
    tag; ``cycle`` is a wait-for cycle if one exists (``r`` waits on the
    next entry, the last waits on the first); ``dead`` lists crashed ranks
    implicated in the hang.  The report is a plain frozen dataclass, so the
    router can marshal it to the parent and to every sibling rank by
    pickling.
    """

    blocked: tuple[BlockedRank, ...]
    cycle: tuple[int, ...] = ()
    dead: tuple[int, ...] = ()

    @property
    def ranks(self) -> tuple[int, ...]:
        return tuple(b.rank for b in self.blocked)

    def __str__(self) -> str:
        lines = [f"deadlock among {len(self.blocked)} rank(s):"]
        lines += [f"  {b}" for b in self.blocked]
        if self.cycle:
            lines.append("  wait-for cycle: "
                         + " -> ".join(str(r) for r in self.cycle)
                         + f" -> {self.cycle[0]}")
        if self.dead:
            lines.append("  crashed rank(s): "
                         + ", ".join(str(r) for r in self.dead))
        return "\n".join(lines)


class DeadlockError(CommError):
    """A diagnosed deadlock; ``.report`` holds the :class:`DeadlockReport`."""

    def __init__(self, report: DeadlockReport):
        super().__init__(str(report))
        self.report = report

    def __reduce__(self):
        # Default exception pickling would rebuild from the stringified
        # args, losing the structured report; rebuild from the report.
        return (DeadlockError, (self.report,))


@dataclass
class CommStats:
    """Per-rank message/byte/operation counters.

    ``op_*`` dictionaries are keyed by the *outermost* operation label
    active when traffic moved — a send inside ``bcast`` inside ``barrier``
    is charged to ``"barrier"`` — so transports like the spectral transpose
    can label their traffic (``"transpose.forward"``) and the performance
    model can be calibrated from measured volumes
    (:func:`repro.perf.costmodel.transpose_bytes_from_stats`).
    """

    rank: int
    msgs_sent: int = 0
    bytes_sent: int = 0
    msgs_recv: int = 0
    bytes_recv: int = 0
    op_calls: dict[str, int] = field(default_factory=dict)   # label -> # calls
    op_msgs: dict[str, int] = field(default_factory=dict)    # label -> msgs sent
    op_bytes: dict[str, int] = field(default_factory=dict)   # label -> bytes sent
    peer_msgs: dict[int, int] = field(default_factory=dict)  # dest -> msgs sent
    peer_bytes: dict[int, int] = field(default_factory=dict)  # dest -> bytes sent

    def note_call(self, op: str) -> None:
        self.op_calls[op] = self.op_calls.get(op, 0) + 1

    def note_send(self, op: str, dest: int, nbytes: int) -> None:
        self.msgs_sent += 1
        self.bytes_sent += nbytes
        self.op_msgs[op] = self.op_msgs.get(op, 0) + 1
        self.op_bytes[op] = self.op_bytes.get(op, 0) + nbytes
        self.peer_msgs[dest] = self.peer_msgs.get(dest, 0) + 1
        self.peer_bytes[dest] = self.peer_bytes.get(dest, 0) + nbytes

    def note_recv(self, nbytes: int) -> None:
        self.msgs_recv += 1
        self.bytes_recv += nbytes

    def bytes_for(self, prefix: str) -> int:
        """Total bytes sent under operation labels starting with ``prefix``."""
        return sum(v for k, v in self.op_bytes.items() if k.startswith(prefix))

    def msgs_for(self, prefix: str) -> int:
        """Total messages sent under labels starting with ``prefix``."""
        return sum(v for k, v in self.op_msgs.items() if k.startswith(prefix))

    @classmethod
    def merge(cls, stats: Sequence["CommStats"], rank: int = -1) -> "CommStats":
        """Sum per-rank counters into one world-level :class:`CommStats`.

        Each rank's counters come back from its process by pickling (they
        are plain dataclasses) and merge here, so profiler/eventsim
        calibration sees world totals.  ``rank=-1`` marks the result as a
        merged, not per-rank, counter.
        """
        out = cls(rank=rank)
        for s in stats:
            out.msgs_sent += s.msgs_sent
            out.bytes_sent += s.bytes_sent
            out.msgs_recv += s.msgs_recv
            out.bytes_recv += s.bytes_recv
            for d, src in ((out.op_calls, s.op_calls),
                           (out.op_msgs, s.op_msgs),
                           (out.op_bytes, s.op_bytes),
                           (out.peer_msgs, s.peer_msgs),
                           (out.peer_bytes, s.peer_bytes)):
                for key, n in src.items():
                    d[key] = d.get(key, 0) + n
        return out


def _find_cycle(edges: dict[int, list[int]]) -> tuple[int, ...]:
    """Find one cycle in a wait-for graph; () if none."""
    WHITE, GREY, BLACK = 0, 1, 2
    color = {r: WHITE for r in edges}
    for start in edges:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(edges[start]))]
        color[start] = GREY
        path = [start]
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if nxt not in color:
                    continue
                if color[nxt] == GREY:
                    return tuple(path[path.index(nxt):])
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    stack.append((nxt, iter(edges[nxt])))
                    path.append(nxt)
                    advanced = True
                    break
            if not advanced:
                color[node] = BLACK
                stack.pop()
                path.pop()
    return ()


def _match(src: int, tag: int, want_src: int, want_tag: int,
           ctx: int = 0) -> bool:
    """Envelope match: ``tag`` is absolute (context-stamped), ``want_tag``
    communicator-local.  ANY_TAG still only matches within the context."""
    if want_src not in (ANY_SOURCE, src):
        return False
    if want_tag == ANY_TAG:
        return tag >> _CTX_SHIFT == ctx
    return tag == (ctx << _CTX_SHIFT) + want_tag


def _copy_payload(obj: Any) -> Any:
    """Copy send buffers so the sender may safely reuse them (MPI semantics)."""
    return tree_map(np.ndarray.copy, obj)


def _payload_nbytes(obj: Any) -> int:
    """Array bytes, plus a rough 64-byte envelope per scalar/object leaf."""
    return sum(leaf.nbytes if isinstance(leaf, np.ndarray) else 64
               for _, leaf in tree_leaves(obj))
