"""The rank transport: forked processes behind the simulated-MPI interface.

:func:`run_ranks` runs ``fn(comm, *args)`` on ``size`` *forked child
processes* — the paper's fourth design element, MPI ranks on distributed
memory — and is the only way a rank world runs.  Ranks exchange *real*
NumPy arrays through the blocking point-to-point primitives of
:class:`ProcComm`; every collective is layered on those two primitives in
:mod:`repro.parallel.commbase`, exactly as a portable MPI implementation
would layer them.  Typical usage::

    def worker(comm):
        data = comm.bcast(payload if comm.rank == 0 else None, root=0)
        ...
        return comm.allreduce(local_sum, op="sum")

    results = run_ranks(4, worker)

Design
------
* **Fork, not spawn.**  Workers are closures over models and configs; fork
  inherits them, so only results, exceptions and message payloads ever
  cross a process boundary (all plain data).  This also means a
  ``FaultPlan`` is inherited by every child: each rank consults its own
  copy for *crash* rules (the op counters are process-local), while the
  parent's copy applies the traffic rules (delay/reorder/duplicate/
  corrupt) at the router, the single point every message passes through.
  What a child must *not* keep from the fork — the caller's scratch arena
  and profiler accumulators — is cleared before the worker runs.
* **A parent-side router.**  Children push envelopes up one shared queue
  (``send`` / ``blocked`` / ``unblocked`` / ``ctx`` / ``done``); the parent
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
  reports (op, peer, tag, ctx) along with how many messages it has seen;
  the world is declared deadlocked when every live rank's report is
  current (seen == delivered), the uplink is idle and no held/delayed
  message remains.  The router then builds a
  :class:`~repro.parallel.commbase.DeadlockReport` (rank/op/peer/tag +
  wait-for cycle) and broadcasts it, so every rank raises
  :class:`~repro.parallel.commbase.DeadlockError` within a poll slice —
  well under a second, not after a two-minute timeout.
* **Faults are first-class.**  Delays, reordering, duplication, corruption
  and rank crashes are injected through a
  :class:`repro.parallel.faults.FaultPlan`; a dead rank — an injected
  crash, an exception, or a child that exits without reporting — surfaces
  on every peer as a structured :class:`CommError` naming the rank that
  really died, never as a hang.
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
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Any, Callable

import numpy as np

from repro.backend import get_workspace
from repro.parallel.commbase import (
    ANY_SOURCE,
    _CTX_SHIFT,
    _POLL_SLICE,
    BlockedRank,
    CommBase,
    CommError,
    CommStats,
    DeadlockError,
    DeadlockReport,
    RankCrashedError,
    _default_timeout,
    _find_cycle,
    _match,
    _payload_nbytes,
)
from repro.parallel.faults import FaultPlan, corrupt_array
from repro.perf.profiler import get_profiler
from repro.util.tree import tree_map

_ROUTER_SLICE = 0.02           # router poll cadence (uplink idle check)
_HARD_DEATH_GRACE = 0.25       # seconds between a child dying and the router
                               # declaring it dead without a result

# Arrays at least this large travel via shared memory, not the queue:
# 64 KiB keeps scalars and small collectives inline in one pickled envelope
# (no block to create and unlink) and bulk fields out of the router's queues.
_SHM_MIN_BYTES = 1 << 16


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
def _parked(ref: _ShmRef, unlink: bool = False):
    """The array parked behind ``ref``, as a view valid inside the block."""
    shm = shared_memory.SharedMemory(name=ref.name)
    try:
        yield np.ndarray(ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf)
    finally:
        shm.close()
        if unlink:
            with suppress(FileNotFoundError):      # racing cleanup
                shm.unlink()


def _fetch(ref: _ShmRef) -> np.ndarray:
    """Copy a parked array out of its block and free the block."""
    with _parked(ref, unlink=True) as arr:
        return arr.copy()


def _unlink(ref: _ShmRef) -> None:
    with suppress(FileNotFoundError), _parked(ref, unlink=True):   # or freed
        pass


def _clone(ref: _ShmRef) -> _ShmRef:
    with _parked(ref) as arr:
        return _park(arr)


def _corrupt(leaf: "np.ndarray | _ShmRef") -> "np.ndarray | _ShmRef":
    """Inline arrays corrupt through
    :func:`repro.parallel.faults.corrupt_array`; parked ones in place."""
    if not _is_ref(leaf):
        return corrupt_array(leaf)
    with _parked(leaf) as arr:
        arr[...] = corrupt_array(arr)
    return leaf


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


def _clone_refs(obj: Any) -> Any:
    """Deep-duplicate shm blocks (for ``duplicate`` fault deliveries)."""
    return tree_map(_clone, obj, is_leaf=_is_ref)


def _corrupt_encoded(obj: Any) -> Any:
    """``FaultPlan.corrupt`` transform for encoded payloads."""
    return tree_map(_corrupt, obj,
                    is_leaf=lambda x: isinstance(x, (np.ndarray, _ShmRef)))


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

    def __init__(self, rank: int, size: int, uplink, downlink,
                 plan: FaultPlan):
        self.rank = rank
        self.size = size
        self.uplink = uplink
        self.downlink = downlink
        self.plan = plan
        # (src, abs_tag, encoded, visible_at): delayed messages are
        # delivered eagerly and sit here until their visibility stamp
        # passes.
        self.box: list[tuple[int, int, Any, float]] = []
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
        self.ctx_replies: dict[tuple, int] = {}

    def _handle(self, env: tuple) -> None:
        kind = env[0]
        self.seen += 1
        if kind == "msg":
            _, src, abs_tag, enc, visible = env
            self.box.append((src, abs_tag, enc, visible))
        elif kind == "finished":
            self.finished.add(env[1])
        elif kind == "dead":
            self.dead[env[1]] = (env[2], env[3])
        elif kind == "deadlock":
            self.deadlock = env[1]
        elif kind == "ctx":
            self.ctx_replies[env[1]] = env[2]

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


class ProcComm(CommBase):
    """Communicator for one rank of a forked-process simulated MPI world.

    The public API and the collective algorithms live in
    :class:`~repro.parallel.commbase.CommBase`; this class is the
    transport: the uplink/downlink queue pair of this rank's
    :class:`_Client`.
    """

    def __init__(self, rank: int, size: int, client: _Client, *,
                 timeout: float | None = None, group=None, ctx: int = 0,
                 stats: CommStats | None = None):
        super().__init__(rank, size, timeout=timeout, group=group, ctx=ctx,
                         stats=stats)
        self._client = client

    # ------------------------------------------------------------------
    # transport hooks
    # ------------------------------------------------------------------
    def _crash_message(self, op: str) -> str | None:
        # The child's inherited FaultPlan copy: each rank only ever
        # consults its own op counts.
        return self._client.plan.crash_message(self._wrank, self._op_count, op)

    def _allocate_context(self, key: tuple) -> int:
        cl = self._client
        if key not in cl.ctx_replies:
            cl.uplink.put(("ctx", self._wrank, key))
            deadline = time.monotonic() + self._timeout
            while key not in cl.ctx_replies:
                if time.monotonic() >= deadline:
                    raise CommError(
                        f"rank {self._wrank}: context allocation for split "
                        f"timed out after {self._timeout}s")
                cl.drain(_POLL_SLICE)
        return cl.ctx_replies[key]

    def _spawn(self, new_rank: int, group: list[int], ctx: int) -> "ProcComm":
        return ProcComm(new_rank, len(group), self._client,
                        timeout=self._timeout, group=group, ctx=ctx,
                        stats=self.stats)

    def _send(self, obj: Any, dest: int, tag: int) -> None:
        self._check_send_args(dest)
        op = self._op_stack[0]
        dest_w = self._to_world(dest)
        abs_tag = (self._ctx << _CTX_SHIFT) + tag
        enc = _encode_payload(obj)
        # One note_send per send with the logical payload size: duplicate
        # deliveries added by the router's fault transforms are not counted.
        self.stats.note_send(op, dest_w, _payload_nbytes(obj))
        self._client.uplink.put(("send", self._wrank, dest_w, abs_tag, enc))

    def _recv(self, source: int, tag: int) -> Any:
        self._check_recv_args(source)
        op = self._op_stack[0]
        cl = self._client
        me = self._wrank
        src_w = ANY_SOURCE if source == ANY_SOURCE else self._to_world(source)
        ctx = self._ctx
        start = time.monotonic()
        deadline = start + self._timeout
        reported_seen = -1
        try:
            while True:
                cl.drain(0.0)
                now = time.monotonic()
                box = cl.box
                next_visible: float | None = None
                for i, (src, t, enc, visible) in enumerate(box):
                    if not _match(src, t, src_w, tag, ctx):
                        continue
                    if visible > now:  # delayed message, not yet deliverable
                        next_visible = (visible if next_visible is None
                                        else min(next_visible, visible))
                        continue
                    del box[i]
                    payload = _decode_payload(enc)
                    self.stats.note_recv(_payload_nbytes(payload))
                    return payload
                if cl.deadlock is not None:
                    raise DeadlockError(cl.deadlock)
                if next_visible is None:
                    # No matching (even delayed) traffic pending: check
                    # whether the awaited peer can still ever send, and
                    # (re-)report the wait whenever new traffic has been
                    # ingested since the last report — the router treats a
                    # report as current only while seen == delivered.
                    self._peer_liveness_error(source, tag, op, cl.dead,
                                              cl.finished)
                    if cl.seen != reported_seen:
                        cl.uplink.put(("blocked", me, op, src_w, tag, ctx,
                                       start, cl.seen))
                        reported_seen = cl.seen
                if now >= deadline:
                    raise CommError(
                        f"rank {me}: {op}(source={src_w}, tag={tag}) "
                        f"timed out after {self._timeout}s")
                wait = min(_POLL_SLICE, deadline - now)
                if next_visible is not None:
                    wait = min(wait, max(next_visible - now, 0.0) + 1e-4)
                cl.drain(wait)
        finally:
            if reported_seen >= 0:
                cl.uplink.put(("unblocked", me))


def _child_main(rank: int, size: int, fn: Callable[..., Any], args: tuple,
                uplink, downlink, plan: FaultPlan, timeout: float) -> None:
    # The fork copied the caller's scratch arena and profiler accumulators;
    # this rank starts with clean ones.  The profiler's enabled flag is
    # kept: a profiling caller gets this rank's sections back.
    get_workspace().clear()
    prof = get_profiler()
    prof.reset()
    profiling = prof.enabled
    client = _Client(rank, size, uplink, downlink, plan)
    comm = ProcComm(rank, size, client, timeout=timeout)
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
    """Parent-side message router, fault engine and deadlock detector."""

    def __init__(self, size: int, uplink, downlinks, plan: FaultPlan,
                 procs, timeout: float):
        self.size = size
        self.uplink = uplink
        self.downlinks = downlinks
        self.plan = plan
        self.procs = procs
        self.timeout = timeout
        self.delivered = [0] * size
        # rank -> (op, src_w, tag, ctx, since, seen) from blocked reports.
        self.blocked: dict[int, tuple] = {}
        self.finished: set[int] = set()
        self.dead: dict[int, tuple[int, str]] = {}
        self.done = [False] * size
        self.results: list[Any] = [None] * size
        self.errors: list[BaseException | None] = [None] * size
        self.deadlock: DeadlockReport | None = None
        self._ctx_ids: dict[tuple, int] = {}
        self._next_ctx = 1
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
            _, src, dest, abs_tag, enc = env
            deliveries = self.plan.apply_send(src, dest, abs_tag, enc,
                                              time.monotonic(),
                                              corrupt=_corrupt_encoded)
            seen_ids: set[int] = set()
            for ddest, dtag, denc, visible in deliveries:
                if id(denc) in seen_ids:   # duplicate fault: same object
                    denc = _clone_refs(denc)
                else:
                    seen_ids.add(id(denc))
                self._route(ddest, dtag, denc, visible, src)
        elif kind == "blocked":
            _, rank, op, src_w, tag, ctx, since, seen = env
            if not self.done[rank]:
                self.blocked[rank] = (op, src_w, tag, ctx, since, seen)
        elif kind == "unblocked":
            self.blocked.pop(env[1], None)
        elif kind == "ctx":
            _, rank, key = env
            ctx = self._ctx_ids.get(key)
            if ctx is None:
                ctx = self._ctx_ids[key] = self._next_ctx
                self._next_ctx += 1
            if not self.done[rank]:
                self._put(rank, ("ctx", key, ctx))
        elif kind == "done":
            _, rank, blob, error = env
            self.done[rank] = True
            self.blocked.pop(rank, None)
            self.errors[rank] = error
            self.results[rank] = blob
            # A finished/dead sender releases its reorder holdbacks — ahead
            # of its liveness event on the same FIFO downlinks, so no peer
            # learns "rank finished" before that rank's last message.
            for src, dest, tag, payload, visible in self.plan.flush_held(src=rank):
                self._route(dest, tag, payload, visible, src)
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

    def _route(self, dest: int, abs_tag: int, enc: Any, visible: float,
               src: int) -> None:
        # Delayed messages are delivered eagerly with their visibility
        # stamp — the receiver sits on them — so liveness/deadlock logic
        # on the child can see matching in-flight traffic.
        if self.done[dest]:
            _unlink_refs(enc)   # nobody will ever drain this payload
            return
        self._put(dest, ("msg", src, abs_tag, enc, visible))

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
        has ingested everything routed to it and found no match), no
        reorder holdback and no pending delayed message.  Only called with the uplink idle, so a rank that had
        just sent before blocking has had that send routed already.
        """
        if self.deadlock is not None:
            return
        live = [r for r in range(self.size) if not self.done[r]]
        if not live:
            return
        for r in live:
            b = self.blocked.get(r)
            if b is None or b[5] != self.delivered[r]:
                return   # r is running, or hasn't seen all its traffic yet
        held = self.plan.flush_held()
        if held:         # reorder holdbacks count as in-flight progress
            for src, dest, tag, payload, visible in held:
                self._route(dest, tag, payload, visible, src)
            return
        now = time.monotonic()
        blocked = tuple(
            BlockedRank(rank=r, op=self.blocked[r][0], peer=self.blocked[r][1],
                        tag=self.blocked[r][2], waited=now - self.blocked[r][4])
            for r in sorted(live))
        edges = {r: ([self.blocked[r][1]]
                     if self.blocked[r][1] != ANY_SOURCE
                     else [x for x in live if x != r])
                 for r in live}
        self.deadlock = DeadlockReport(blocked=blocked,
                                       cycle=_find_cycle(edges),
                                       dead=tuple(sorted(self.dead)))
        self._broadcast(("deadlock", self.deadlock))

    def scrub(self) -> None:
        """Free shm blocks of undeliverable (reorder-held) messages."""
        for _, _, _, payload, _ in self.plan.flush_held():
            _unlink_refs(payload)


def run_ranks(size: int, fn: Callable[..., Any], *,
              timeout: float | None = None, args: tuple = (),
              faults: FaultPlan | None = None,
              return_exceptions: bool = False) -> list[Any]:
    """Run ``fn(comm, *args)`` on ``size`` forked ranks; return per-rank results.

    ``timeout`` bounds every blocking operation; ``None`` resolves via
    :func:`_default_timeout` (low under pytest, ``REPRO_SIMMPI_TIMEOUT``
    overrides).  ``faults`` is an optional
    :class:`~repro.parallel.faults.FaultPlan` perturbing all traffic.
    Results (message-like trees: bulk arrays come home through shm) and
    exceptions must be picklable — they cross a process boundary; an
    unpicklable result is that rank's error, as if the worker had raised.

    With ``return_exceptions=False`` (default), exceptions on any rank are
    re-raised in the caller after all ranks have been joined, preferring
    the root cause: genuine (non-communication) errors first, then injected
    crashes, then structured deadlock reports, then secondary ``CommError``
    fallout.  With ``return_exceptions=True``, each rank's slot in the
    result list holds either its return value or the exception it raised —
    the mode fault-injection tests use to assert what *every* peer saw.
    """
    if size < 1:
        raise CommError(f"world size must be >= 1, got {size}")
    if "fork" not in mp.get_all_start_methods():  # pragma: no cover - POSIX only
        raise CommError("rank processes require the fork start method")
    tmo = _default_timeout() if timeout is None else timeout
    plan = faults or FaultPlan()
    ctx = mp.get_context("fork")
    # Start the shm resource tracker before forking so parent and children
    # share one tracker: the creator's register and the consumer's
    # unregister then land in the same ledger and cancel out.
    from multiprocessing import resource_tracker
    resource_tracker.ensure_running()
    uplink = ctx.Queue()
    downlinks = [ctx.Queue() for _ in range(size)]
    procs = [ctx.Process(target=_child_main,
                         args=(r, size, fn, args, uplink, downlinks[r],
                               plan, tmo),
                         daemon=True)
             for r in range(size)]
    for p in procs:
        p.start()
    router = _Router(size, uplink, downlinks, plan, procs, tmo)
    try:
        ok = router.run()
    finally:
        router.scrub()
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
                   (lambda e: isinstance(e, RankCrashedError)),
                   (lambda e: isinstance(e, DeadlockError)),
                   (lambda e: True)):
        for err in errors:
            if err is not None and picker(err):
                raise err
    return results
