"""The rank layer: forked processes exchanging arrays, simulated MPI.

:func:`run_ranks` runs ``fn(comm, *args)`` on ``size`` *forked child
processes* — the paper's fourth design element, MPI ranks on distributed
memory — and is the only way a rank world runs.  Ranks exchange *real*
NumPy arrays through :class:`Comm`, one world communicator whose
collectives are layered on two blocking point-to-point primitives, exactly
as a portable MPI implementation would layer them.  Typical usage::

    def worker(comm):
        data = comm.bcast(payload if comm.rank == 0 else None, root=0)
        ...
        return comm.gather(local_sum, root=0)

    results = run_ranks(4, worker)

Design
------
* **Fork, not spawn.**  Workers are closures over models and configs; fork
  inherits them, so only results, exceptions and message payloads ever
  cross a process boundary (all plain data).  What a child must *not*
  keep from the fork — the caller's scratch arena and profiler
  accumulators — is cleared before the worker runs.
* **A parent-side router.**  Children push envelopes up one shared queue
  (``send`` / ``blocked`` / ``unblocked`` / ``done``); the parent
  routes messages to per-rank downlink queues and broadcasts liveness
  events (``finished`` / ``dead`` / ``deadlock``).  Because each child's
  uplink traffic is FIFO, a ``send`` is always routed before the same
  child's ``finished``/``blocked``.
* **Shared memory for bulk payloads.**  ndarrays of at least 64 KiB
  (``_SHM_MIN_BYTES``), in a message or in a rank's result, travel as
  named POSIX shared-memory blocks; the queues carry only small pickled
  envelopes referencing them.  The receiver copies out of the block and
  unlinks it, preserving MPI copy-on-send semantics end to end.  One
  resource tracker is started *before* forking so create/attach/unlink
  bookkeeping balances across processes.
* **Deadlock detection by marshalled wait-for graph.**  A blocked child
  reports (op, peer, tag) along with how many messages it has seen;
  the world is declared deadlocked when every live rank's report is
  current (seen == delivered) and the uplink is idle.  The router then
  builds a :class:`DeadlockReport` (rank/op/peer/tag + wait-for cycle)
  and broadcasts it, so every rank raises :class:`DeadlockError` within
  a poll slice — well under a second, not after a two-minute timeout.
* **A dead rank is named, never waited on.**  A rank whose worker raises,
  or whose process exits without reporting, surfaces on every peer as a
  structured :class:`CommError` naming the rank that really died
  (``origin_rank``).
* **Measurements come home.**  Every communicator keeps a
  :class:`CommStats` counter (plain data, returned by the worker), and
  when the caller's profiler is enabled each rank ships the sections it
  recorded back with its result; :func:`run_ranks` folds them into the
  caller's profiler, so ``transpose.*`` seconds and ``comm_bytes``
  measured inside rank processes calibrate ``repro.perf.eventsim``.
"""

from __future__ import annotations

import multiprocessing as mp
import pickle
import queue as queuelib
import time
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Any, Callable, Sequence

import numpy as np

from repro.backend import get_workspace
from repro.perf.profiler import get_profiler
from repro.util.tree import tree_leaves, tree_map

ANY_SOURCE = -1
ANY_TAG = -1
_DEFAULT_TIMEOUT = 120.0       # seconds before declaring a hang: a
                               # last-resort backstop (the wait-for-graph
                               # detector catches genuine deadlocks long
                               # before it); pass ``timeout=`` for a shorter one
_POLL_SLICE = 0.05             # receiver wake-up cadence for failure checks
_ROUTER_SLICE = 0.02           # router poll cadence (uplink idle check)
_HARD_DEATH_GRACE = 0.25       # seconds between a child dying and the router
                               # declaring it dead without a result

# Arrays at least this large travel via shared memory, not the queue:
# 64 KiB keeps scalars and small collectives inline in one pickled envelope
# (no block to create and unlink) and bulk fields out of the router's queues.
_SHM_MIN_BYTES = 1 << 16

_TAG_BCAST = 1 << 30
_TAG_GATHER = 3 << 30
_TAG_SCATTER = 4 << 30
_TAG_ALLTOALL = 5 << 30


# ---------------------------------------------------------------------------
# What the router and the ranks share: the failure vocabulary, the per-rank
# counters, envelope matching and the payload helpers.
# ---------------------------------------------------------------------------
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
    op_calls: dict[str, int] = field(default_factory=dict)   # label -> # calls
    op_msgs: dict[str, int] = field(default_factory=dict)    # label -> msgs sent
    op_bytes: dict[str, int] = field(default_factory=dict)   # label -> bytes sent

    def note_call(self, op: str) -> None:
        self.op_calls[op] = self.op_calls.get(op, 0) + 1

    def note_send(self, op: str, nbytes: int) -> None:
        self.msgs_sent += 1
        self.bytes_sent += nbytes
        self.op_msgs[op] = self.op_msgs.get(op, 0) + 1
        self.op_bytes[op] = self.op_bytes.get(op, 0) + nbytes

    def bytes_for(self, prefix: str) -> int:
        """Total bytes sent under operation labels starting with ``prefix``."""
        return sum(v for k, v in self.op_bytes.items() if k.startswith(prefix))


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


def _match(src: int, tag: int, want_src: int, want_tag: int) -> bool:
    """Envelope match, wildcards allowed on the receiving side."""
    return want_src in (ANY_SOURCE, src) and want_tag in (ANY_TAG, tag)


def _copy_payload(obj: Any) -> Any:
    """Copy send buffers so the sender may safely reuse them (MPI semantics)."""
    return tree_map(np.ndarray.copy, obj)


def _payload_nbytes(obj: Any) -> int:
    """Array bytes, plus a rough 64-byte envelope per scalar/object leaf."""
    return sum(leaf.nbytes if isinstance(leaf, np.ndarray) else 64
               for _, leaf in tree_leaves(obj))


@dataclass(frozen=True)
class _ShmRef:
    """A bulk ndarray parked in a named shared-memory block."""

    name: str
    shape: tuple
    dtype: str


def _is_ref(x: Any) -> bool:
    return isinstance(x, _ShmRef)      # atomic: never walked as a dataclass


def _park(arr: np.ndarray) -> "np.ndarray | _ShmRef":
    """Copy one array for sending: bulk ones into a new shm block."""
    if arr.nbytes < _SHM_MIN_BYTES:
        return arr.copy()
    arr = np.ascontiguousarray(arr)
    shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
    np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
    ref = _ShmRef(shm.name, arr.shape, arr.dtype.str)
    shm.close()
    return ref


@contextmanager
def _parked(ref: _ShmRef):
    """The array parked behind ``ref``, as a view valid inside the block;
    the block is freed on exit."""
    shm = shared_memory.SharedMemory(name=ref.name)
    try:
        yield np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
    finally:
        shm.close()
        with suppress(FileNotFoundError):      # racing cleanup
            shm.unlink()


def _fetch(ref: _ShmRef) -> np.ndarray:
    """Copy a parked array out of its block and free the block."""
    with _parked(ref) as arr:
        return arr.copy()


def _unlink(ref: _ShmRef) -> None:
    with suppress(FileNotFoundError), _parked(ref):   # or freed
        pass


def _encode_payload(obj: Any) -> Any:
    """Copy a payload for sending, parking bulk ndarrays in shared memory.

    The copy *is* the serialization.  Small arrays stay inline (the queue
    pickles them); large ones become :class:`_ShmRef` so the router never
    touches bulk bytes.
    """
    return tree_map(_park, obj)


def _decode_payload(obj: Any) -> Any:
    """Materialize a received payload, consuming (unlinking) shm blocks."""
    return tree_map(_fetch, obj, is_leaf=_is_ref)


def _unlink_refs(obj: Any) -> None:
    """Free shm blocks of a payload that will never be delivered."""
    tree_map(_unlink, obj, is_leaf=_is_ref)


def _picklable_exc(exc: BaseException) -> BaseException:
    """Round-trip-check an exception; fall back to a CommError summary."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:  # noqa: BLE001 - any pickling failure
        err = CommError(f"{type(exc).__name__}: {exc}")
        origin = getattr(exc, "origin_rank", None)
        if origin is not None:
            err.origin_rank = origin
        return err


class _Client:
    """Child-side endpoint: local mailbox + liveness mirrored off the router."""

    def __init__(self, uplink, downlink):
        self.uplink = uplink
        self.downlink = downlink
        self.box: list[tuple[int, int, Any]] = []    # (src, tag, encoded)
        # Envelopes ingested (messages AND liveness events); echoed in
        # blocked reports.  The router counts every downlink put the same
        # way, so a standing blocked report is invalidated by *any* event
        # the child has not yet reacted to — the child always gets to run
        # its liveness check on fresh dead/finished knowledge before the
        # router may trust the report for deadlock declaration.
        self.seen = 0
        self.finished: set[int] = set()              # reports so the router can
        self.dead: dict[int, tuple[int, str]] = {}   # tell stale from current
        self.deadlock: DeadlockReport | None = None

    def _handle(self, env: tuple) -> None:
        kind = env[0]
        self.seen += 1
        if kind == "msg":
            self.box.append(env[1:])
        elif kind == "finished":
            self.finished.add(env[1])
        elif kind == "dead":
            self.dead[env[1]] = (env[2], env[3])
        elif kind == "deadlock":
            self.deadlock = env[1]

    def drain(self, timeout: float = 0.0) -> int:
        """Ingest pending downlink envelopes; block up to ``timeout`` if idle."""
        n = 0
        while True:
            try:
                env = self.downlink.get_nowait()
            except queuelib.Empty:
                break
            self._handle(env)
            n += 1
        if n == 0 and timeout > 0.0:
            try:
                env = self.downlink.get(timeout=timeout)
            except queuelib.Empty:
                return n
            self._handle(env)
            n += 1
        return n


class Comm:
    """Communicator for one rank of a forked-process simulated MPI world.

    Mirrors the mpi4py API subset the model uses, on the world only: ranks
    are world ranks and tags are plain integers.  Lower-case methods move
    arbitrary Python objects; arrays are passed by reference after a
    defensive copy at send time (MPI semantics: the send buffer may be
    reused by the sender immediately after ``send`` returns).  Everything
    is layered on the two blocking primitives ``_send`` / ``_recv``, which
    move envelopes through this rank's :class:`_Client`.
    """

    def __init__(self, rank: int, size: int, client: _Client, *,
                 timeout: float | None = None):
        if not 0 <= rank < size:
            raise CommError(f"rank {rank} out of range for world size {size}")
        self.rank = rank
        self.size = size
        self._client = client
        self._timeout = _DEFAULT_TIMEOUT if timeout is None else timeout
        self.stats = CommStats(rank=rank)
        # Collective sequence number: every rank calls collectives in the
        # same order, so stamping the tag with a per-call counter keeps
        # back-to-back collectives from consuming each other's messages.
        self._collective_seq = 0
        self._op_stack: list[str] = []

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    @contextmanager
    def _op(self, name: str):
        """Operation scope: labels traffic.

        Only the *outermost* scope counts toward ``op_calls``, so
        ``barrier`` is one call even though it layers on ``gather`` +
        ``bcast``.
        """
        if not self._op_stack:
            self.stats.note_call(name)
        self._op_stack.append(name)
        try:
            yield
        finally:
            self._op_stack.pop()

    def _check_send_args(self, dest: int) -> None:
        if not isinstance(dest, (int, np.integer)):
            # Catch swapped send(dest, obj) arguments with a clear error
            # instead of a failure deep inside the router.
            raise TypeError(
                f"send: dest must be an integer rank, got "
                f"{type(dest).__name__} — signature is send(obj, dest, tag)")
        if not 0 <= dest < self.size:
            raise CommError(f"send: bad destination rank {dest}")

    def _check_recv_args(self, source: int) -> None:
        if source != ANY_SOURCE and not 0 <= source < self.size:
            raise CommError(f"recv: bad source rank {source}")

    def _peer_liveness_error(self, source: int, tag: int, op: str,
                             dead: dict, finished: set) -> None:
        """Fail fast when the awaited peer(s) can never send.

        ``dead`` maps rank -> ``(origin_rank, reason)``; ``finished`` is a
        set of ranks.
        """
        me = self.rank
        if source != ANY_SOURCE:
            if source in dead:
                origin, reason = dead[source]
                err = CommError(
                    f"rank {me}: {op}(source={source}, tag={tag}) failed "
                    f"— rank {origin} crashed ({reason})")
                err.origin_rank = origin
                raise err
            if source in finished:
                raise CommError(
                    f"rank {me}: {op}(source={source}, tag={tag}) can "
                    f"never complete — rank {source} already finished")
            return
        others = [r for r in range(self.size) if r != me]
        if others and all(r in finished or r in dead for r in others):
            dead_peers = sorted(r for r in others if r in dead)
            if dead_peers:
                origin, reason = dead[dead_peers[0]]
                err = CommError(
                    f"rank {me}: {op}(source=ANY, tag={tag}) failed "
                    f"— rank {origin} crashed ({reason})")
                err.origin_rank = origin
                raise err
            raise CommError(
                f"rank {me}: {op}(source=ANY, tag={tag}) can never "
                f"complete — all peers already finished")

    def _send(self, obj: Any, dest: int, tag: int) -> None:
        self._check_send_args(dest)
        enc = _encode_payload(obj)
        self.stats.note_send(self._op_stack[0], _payload_nbytes(obj))
        self._client.uplink.put(("send", self.rank, dest, tag, enc))

    def _recv(self, source: int, tag: int) -> Any:
        self._check_recv_args(source)
        op = self._op_stack[0]
        cl = self._client
        me = self.rank
        start = time.monotonic()
        deadline = start + self._timeout
        reported_seen = -1
        try:
            while True:
                cl.drain(0.0)
                for i, (src, t, enc) in enumerate(cl.box):
                    if _match(src, t, source, tag):
                        del cl.box[i]
                        return _decode_payload(enc)
                if cl.deadlock is not None:
                    raise DeadlockError(cl.deadlock)
                # No matching traffic pending: check whether the awaited
                # peer can still ever send, and (re-)report the wait
                # whenever new traffic has been ingested since the last
                # report — the router treats a report as current only
                # while seen == delivered.
                self._peer_liveness_error(source, tag, op, cl.dead,
                                          cl.finished)
                if cl.seen != reported_seen:
                    cl.uplink.put(("blocked", me, op, source, tag, start,
                                   cl.seen))
                    reported_seen = cl.seen
                now = time.monotonic()
                if now >= deadline:
                    raise CommError(
                        f"rank {me}: {op}(source={source}, tag={tag}) "
                        f"timed out after {self._timeout}s")
                cl.drain(min(_POLL_SLICE, deadline - now))
        finally:
            if reported_seen >= 0:
                cl.uplink.put(("unblocked", me))

    # ------------------------------------------------------------------
    # point-to-point
    # ------------------------------------------------------------------
    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        """Blocking standard-mode send (buffered: never deadlocks by itself)."""
        with self._op("send"):
            self._send(obj, dest, tag)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Any:
        """Blocking receive matching (source, tag); wildcards allowed."""
        with self._op("recv"):
            return self._recv(source, tag)

    # ------------------------------------------------------------------
    # collectives (layered on point-to-point, as in a portable MPI)
    # ------------------------------------------------------------------
    def _collective_tag(self, base: int) -> int:
        self._collective_seq += 1
        return base + self._collective_seq

    def barrier(self) -> None:
        """Synchronize all ranks (gather-to-root then broadcast).

        Layering the barrier on point-to-point means a crashed or wedged
        peer is diagnosed by the same machinery as any other exchange: the
        deadlock report names the operation as ``barrier``.
        """
        with self._op("barrier"):
            self.gather(None, root=0)
            self.bcast(None, root=0)

    def bcast(self, obj: Any, root: int = 0) -> Any:
        """Binomial-tree broadcast from root; returns the object on all ranks."""
        with self._op("bcast"):
            tag = self._collective_tag(_TAG_BCAST)
            rel = (self.rank - root) % self.size
            # Receive phase: a non-root rank receives from the parent at its
            # lowest set bit (standard MPICH binomial tree).
            mask = 1
            while mask < self.size:
                if rel & mask:
                    obj = self._recv((rel - mask + root) % self.size, tag)
                    break
                mask <<= 1
            # Send phase: forward to children at all lower bits, descending.
            mask >>= 1
            while mask > 0:
                if rel + mask < self.size:
                    self._send(obj, (rel + mask + root) % self.size, tag)
                mask >>= 1
            return obj

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        """Gather one object per rank into a list on root (rank order)."""
        with self._op("gather"):
            tag = self._collective_tag(_TAG_GATHER)
            if self.rank == root:
                out: list[Any] = [None] * self.size
                out[root] = _copy_payload(obj)
                for _ in range(self.size - 1):
                    src, payload = self._recv(ANY_SOURCE, tag)
                    out[src] = payload
                return out
            self._send((self.rank, obj), root, tag)
            return None

    def scatter(self, objs: Sequence[Any] | None, root: int = 0) -> Any:
        """Scatter a sequence of world-size objects from root."""
        with self._op("scatter"):
            tag = self._collective_tag(_TAG_SCATTER)
            if self.rank == root:
                if objs is None or len(objs) != self.size:
                    raise CommError(f"scatter: root must supply {self.size} items")
                for dest in range(self.size):
                    if dest != root:
                        self._send(objs[dest], dest, tag)
                return _copy_payload(objs[root])
            return self._recv(root, tag)

    def alltoall(self, objs: Sequence[Any], op: str = "alltoall") -> list[Any]:
        """Personalized all-to-all via pairwise exchange rounds.

        This is the communication kernel of the parallel spectral transform
        (Foster & Worley 1997): each rank sends a distinct block to every
        other rank.  ``op`` lets callers label their traffic (e.g.
        ``"transpose.forward"``) in deadlock reports and :class:`CommStats`.
        """
        if len(objs) != self.size:
            raise CommError(f"alltoall: need {self.size} items, got {len(objs)}")
        with self._op(op):
            tag = self._collective_tag(_TAG_ALLTOALL)
            out: list[Any] = [None] * self.size
            out[self.rank] = _copy_payload(objs[self.rank])
            for step in range(1, self.size):
                dest = (self.rank + step) % self.size
                src = (self.rank - step) % self.size
                self._send(objs[dest], dest, tag)
                out[src] = self._recv(src, tag)
            return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Comm(rank={self.rank}, size={self.size})"


def _child_main(rank: int, size: int, fn: Callable[..., Any], args: tuple,
                uplink, downlink, timeout: float) -> None:
    # The fork copied the caller's scratch arena and profiler accumulators;
    # this rank starts with clean ones.  The profiler's enabled flag is
    # kept: a profiling caller gets this rank's sections back.
    get_workspace().clear()
    prof = get_profiler()
    prof.reset()
    profiling = prof.enabled
    comm = Comm(rank, size, _Client(uplink, downlink), timeout=timeout)
    result = None
    try:
        result = fn(comm, *args)
        get_workspace().clear()     # so the copies below stay under the rank's peak RSS
        # Bulk arrays go home in shm blocks, as messages do: in the blob, the queue's
        # feeder thread copies them during teardown — a race for the rank's peak RSS.
        result = _encode_payload(result)
        blob = pickle.dumps((result, prof.snapshot() if profiling else None),
                            protocol=pickle.HIGHEST_PROTOCOL)
    except BaseException as exc:  # noqa: BLE001 - marshalled to the parent
        _unlink_refs(result)       # the blocks of a result that did not pickle
        uplink.put(("done", rank, None, _picklable_exc(exc)))
    else:
        uplink.put(("done", rank, blob, None))


class _Router:
    """Parent-side message router and deadlock detector."""

    def __init__(self, size: int, uplink, downlinks, procs, timeout: float):
        self.size = size
        self.uplink = uplink
        self.downlinks = downlinks
        self.procs = procs
        self.timeout = timeout
        self.delivered = [0] * size
        # rank -> (op, source, tag, since, seen) from blocked reports.
        self.blocked: dict[int, tuple] = {}
        self.finished: set[int] = set()
        self.dead: dict[int, tuple[int, str]] = {}
        self.done = [False] * size
        self.results: list[Any] = [None] * size
        self.errors: list[BaseException | None] = [None] * size
        self.deadlock: DeadlockReport | None = None
        self._death_seen: dict[int, float] = {}

    # -------------------------------------------------------------- core
    def run(self) -> bool:
        """Route until every rank reported done; False on hard timeout."""
        deadline = time.monotonic() + self.timeout + 10.0
        while not all(self.done):
            if time.monotonic() >= deadline:
                return False
            try:
                env = self.uplink.get(timeout=_ROUTER_SLICE)
            except queuelib.Empty:
                # Uplink idle: the only moment the marshalled wait-for
                # graph can be trusted to be quiescent.
                self._check_processes()
                self._check_deadlock()
                continue
            self._handle(env)
        return True

    def _handle(self, env: tuple) -> None:
        kind = env[0]
        if kind == "send":
            _, src, dest, tag, enc = env
            if self.done[dest]:
                _unlink_refs(enc)   # nobody will ever drain this payload
            else:
                self._put(dest, ("msg", src, tag, enc))
        elif kind == "blocked":
            _, rank, *report = env
            if not self.done[rank]:
                self.blocked[rank] = tuple(report)
        elif kind == "unblocked":
            self.blocked.pop(env[1], None)
        elif kind == "done":
            _, rank, blob, error = env
            self.done[rank] = True
            self.blocked.pop(rank, None)
            self.errors[rank] = error
            self.results[rank] = blob
            if error is None:
                self.finished.add(rank)
                self._broadcast(("finished", rank))
            else:
                origin = getattr(error, "origin_rank", None)
                origin = rank if origin is None else origin
                if origin != rank and origin in self.dead:
                    reason = self.dead[origin][1]
                else:
                    reason = f"{type(error).__name__}: {error}"
                self.dead[rank] = (origin, reason)
                self._broadcast(("dead", rank, origin, reason))

    def _put(self, dest: int, env: tuple) -> None:
        # Every downlink envelope counts toward ``delivered``, mirroring
        # the client's ``seen`` (see _Client.seen for why).
        self.downlinks[dest].put(env)
        self.delivered[dest] += 1

    def _broadcast(self, env: tuple) -> None:
        for r in range(self.size):
            if not self.done[r]:
                self._put(r, env)

    # ------------------------------------------------------- diagnostics
    def _check_processes(self) -> None:
        """Detect hard child deaths (exit without a ``done`` report)."""
        now = time.monotonic()
        for r, p in enumerate(self.procs):
            if self.done[r] or p.is_alive():
                continue
            first = self._death_seen.setdefault(r, now)
            if now - first < _HARD_DEATH_GRACE:
                continue   # grace: its done envelope may still be in flight
            reason = (f"process exited with code {p.exitcode} "
                      f"without reporting a result")
            err = CommError(f"rank {r}: {reason}")
            err.origin_rank = r
            self.done[r] = True
            self.errors[r] = err
            self.blocked.pop(r, None)
            self.dead[r] = (r, reason)
            self._broadcast(("dead", r, r, reason))

    def _check_deadlock(self) -> None:
        """Declare deadlock iff the marshalled wait-for graph is quiescent.

        The condition: every live rank blocked with a *current* report (it
        has ingested everything routed to it and found no match).  Only
        called with the uplink idle, so a rank that had just sent before
        blocking has had that send routed already.
        """
        if self.deadlock is not None:
            return
        live = [r for r in range(self.size) if not self.done[r]]
        if not live:
            return
        for r in live:
            b = self.blocked.get(r)
            if b is None or b[4] != self.delivered[r]:
                return   # r is running, or hasn't seen all its traffic yet
        now = time.monotonic()
        blocked = tuple(
            BlockedRank(rank=r, op=self.blocked[r][0], peer=self.blocked[r][1],
                        tag=self.blocked[r][2], waited=now - self.blocked[r][3])
            for r in sorted(live))
        edges = {r: ([self.blocked[r][1]]
                     if self.blocked[r][1] != ANY_SOURCE
                     else [x for x in live if x != r])
                 for r in live}
        self.deadlock = DeadlockReport(blocked=blocked,
                                       cycle=_find_cycle(edges),
                                       dead=tuple(sorted(self.dead)))
        self._broadcast(("deadlock", self.deadlock))


def run_ranks(size: int, fn: Callable[..., Any], *,
              timeout: float | None = None, args: tuple = (),
              return_exceptions: bool = False) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``size`` forked ranks; return per-rank results.

    ``timeout`` bounds every blocking operation (``None``: 120 s, a
    last-resort backstop behind the deadlock detector).  Results
    (message-like trees: bulk arrays come home through shm) and exceptions
    must be picklable — they cross a process boundary; an unpicklable
    result is that rank's error, as if the worker had raised.

    With ``return_exceptions=False`` (default), exceptions on any rank are
    re-raised in the caller after all ranks have been joined, preferring
    the root cause: genuine (non-communication) errors first, then
    structured deadlock reports, then secondary ``CommError`` fallout.
    With ``return_exceptions=True``, each rank's slot in the result list
    holds either its return value or the exception it raised — the mode
    the crash tests use to assert what *every* peer saw.
    """
    if size < 1:
        raise CommError(f"world size must be >= 1, got {size}")
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover - POSIX only
        raise CommError("rank processes require the fork start method")
    tmo = _DEFAULT_TIMEOUT if timeout is None else timeout
    fork = mp.get_context("fork")
    # Start the shm resource tracker before forking so parent and children
    # share one tracker: the creator's register and the consumer's
    # unregister then land in the same ledger and cancel out.
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    uplink = fork.Queue()
    downlinks = [fork.Queue() for _ in range(size)]
    procs = [fork.Process(target=_child_main,
                         args=(r, size, fn, args, uplink, downlinks[r],
                               tmo),
                         daemon=True)
             for r in range(size)]
    for p in procs:
        p.start()
    router = _Router(size, uplink, downlinks, procs, tmo)
    ok = router.run()
    for p in procs:
        p.join(timeout=5.0 if ok else 0.2)
    for p in procs:
        if p.is_alive():  # pragma: no cover - only on router timeout
            p.terminate()
            p.join(timeout=1.0)
    for q in [uplink, *downlinks]:
        q.cancel_join_thread()
        q.close()
    results: list[Any] = [None] * size
    prof = get_profiler()
    for r, blob in enumerate(router.results):
        if blob is not None:        # decoded even when about to raise: frees shm
            result, rank_profile = pickle.loads(blob)
            results[r] = _decode_payload(result)
            if rank_profile is not None:
                prof.absorb(rank_profile)
    if not ok:
        stuck = sum(1 for d in router.done if not d)
        raise CommError(
            f"{stuck} rank process(es) failed to finish (deadlock?)")
    errors = router.errors
    if return_exceptions:
        return [errors[r] if errors[r] is not None else results[r]
                for r in range(size)]
    for picker in ((lambda e: not isinstance(e, CommError)),
                   (lambda e: isinstance(e, DeadlockError)),
                   (lambda e: True)):
        for err in errors:
            if err is not None and picker(err):
                raise err
    return results
