"""Fault-injection and deadlock-diagnosis regression tests.

The requirements these encode (ISSUE 2): a crashed rank surfaces as a
``CommError`` naming the dead rank on *every* peer rather than a hang; a
recv/recv tag-mismatch cycle is diagnosed as a structured
:class:`DeadlockReport` within ~2 seconds, not a 120-second timeout; and
every FaultPlan perturbation (delay, reorder, duplicate, corrupt, crash)
is observable through the normal API.

Every world here is a set of forked rank processes, so each diagnosis is
also a marshalling test; the ``process boundary`` section pins the parts
that are about the boundary itself: ``origin_rank`` surviving the pickle,
a :class:`DeadlockReport` broadcast by the router in under a second, a
corrupt rule reaching a shared-memory-parked payload.
"""

import time

import numpy as np
import pytest

from repro.parallel import (
    CommBase,
    CommError,
    DeadlockError,
    FaultPlan,
    RankCrashedError,
    block_bounds,
    run_ranks,
    transpose_forward,
)
from repro.parallel.coupled import (
    TAG_ATM_STATE,
    TAG_FORCING,
    TAG_SST,
    TAG_SURFACE,
    PoolLayout,
)

pytestmark = pytest.mark.parallel


# ------------------------------------------------------------------ crashes
def test_crashed_rank_named_on_every_peer():
    """Rank 2 dies at its first op; every peer gets a CommError naming it."""
    def worker(comm):
        if comm.rank == 2:
            comm.barrier()  # injected crash fires here
            return "unreachable"
        try:
            return comm.recv(source=2, tag=9)
        except CommError as exc:
            return str(exc)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0,
                    faults=FaultPlan().crash(rank=2, at_op=1),
                    return_exceptions=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"crash diagnosis took {elapsed:.1f}s"
    assert isinstance(out[2], RankCrashedError)
    for rank in (0, 1, 3):
        assert isinstance(out[rank], str), f"rank {rank} did not fail cleanly"
        assert "rank 2 crashed" in out[rank]


def test_crash_at_later_op_counts_operations():
    """at_op=3 lets the first two collectives finish, then kills the rank."""
    def worker(comm):
        a = comm.allreduce(1)          # op 1: completes on all ranks
        b = comm.allreduce(2)          # op 2: completes on all ranks
        c = comm.allreduce(3)          # op 3: rank 1 dies entering this
        return (a, b, c)

    with pytest.raises(RankCrashedError, match=r"rank 1: injected crash at communication op #3"):
        run_ranks(3, worker, timeout=30.0, faults=FaultPlan().crash(rank=1, at_op=3))


def test_crash_during_collective_fails_peers_not_hangs():
    """A death mid-collective propagates as CommError fallout, not a hang."""
    def worker(comm):
        return comm.bcast(np.arange(4.0) if comm.rank == 0 else None, root=0)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0,
                    faults=FaultPlan().crash(rank=0, at_op=1),
                    return_exceptions=True)
    assert time.monotonic() - t0 < 5.0
    assert isinstance(out[0], RankCrashedError)
    assert all(isinstance(o, CommError) for o in out)


# ----------------------------------------------------------------- deadlock
def test_tag_mismatch_cycle_reported_within_two_seconds():
    """The issue's canonical cycle: 0 recv-from 1, 1 recv-from 0, wrong tags."""
    def worker(comm):
        peer = 1 - comm.rank
        comm.send(comm.rank, dest=peer, tag=comm.rank)      # tags 0 and 1
        return comm.recv(source=peer, tag=5)                # nobody sends tag 5

    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(2, worker, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 2.0, f"deadlock diagnosis took {elapsed:.1f}s"

    report = excinfo.value.report
    assert report.ranks == (0, 1)
    for blocked in report.blocked:
        assert blocked.op == "recv"
        assert blocked.peer == 1 - blocked.rank
        assert blocked.tag == 5
    assert set(report.cycle) == {0, 1}


def test_deadlock_report_names_barrier():
    """A rank skipping a barrier wedges the rest; the report says 'barrier'."""
    def worker(comm):
        if comm.rank == 0:
            return comm.recv(source=2, tag=77)   # never sent
        comm.barrier()
        return True

    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(3, worker, timeout=60.0)
    ops = {b.rank: b.op for b in excinfo.value.report.blocked}
    assert ops[0] == "recv"
    assert ops[1] == "barrier" and ops[2] == "barrier"


def test_tag_mismatch_in_transpose_forward_is_diagnosed():
    """ISSUE 2 acceptance: a deliberately-introduced tag mismatch inside
    transpose_forward surfaces as a DeadlockReport naming the blocked ranks
    and the transpose operation in < 5 s."""
    nrows, ncols = 8, 6
    rng = np.random.default_rng(0)
    full = rng.normal(size=(nrows, ncols))

    orig = CommBase._collective_tag

    def skewed_tag(self, base):
        # Rank-dependent collective tags: the textbook way transposes wedge.
        return orig(self, base) + self.rank

    def worker(comm):
        lo, hi = block_bounds(nrows, comm.size, comm.rank)
        return transpose_forward(comm, full[lo:hi], nrows, ncols)

    # Forked children inherit the patched class.
    CommBase._collective_tag = skewed_tag
    try:
        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            run_ranks(3, worker, timeout=60.0)
        elapsed = time.monotonic() - t0
    finally:
        CommBase._collective_tag = orig

    assert elapsed < 5.0, f"transpose deadlock diagnosis took {elapsed:.1f}s"
    report = excinfo.value.report
    assert len(report.blocked) >= 2
    assert any(b.op == "transpose.forward" for b in report.blocked)


# ------------------------------------------------------- message perturbation
def test_delayed_message_arrives_late_but_intact():
    def worker(comm):
        if comm.rank == 0:
            comm.send(np.arange(3.0), dest=1, tag=4)
            return None
        t0 = time.monotonic()
        data = comm.recv(source=0, tag=4)
        return (time.monotonic() - t0, data)

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().delay(0.3, src=0, dest=1))
    waited, data = out[1]
    assert waited >= 0.25
    np.testing.assert_array_equal(data, np.arange(3.0))


def test_duplicate_delivery():
    def worker(comm):
        if comm.rank == 0:
            comm.send("hello", dest=1, tag=2)
            return None
        return (comm.recv(source=0, tag=2), comm.recv(source=0, tag=2))

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().duplicate(src=0, dest=1, times=1))
    assert out[1] == ("hello", "hello")


def test_corruption_is_deterministic_and_detectable():
    payload = np.arange(5.0)

    def worker(comm):
        if comm.rank == 0:
            comm.send(payload, dest=1)
            return None
        return comm.recv(source=0)

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().corrupt(src=0, dest=1))
    assert not np.array_equal(out[1], payload)
    np.testing.assert_array_equal(out[1], -payload - 1)


def test_reorder_swaps_consecutive_messages():
    def worker(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=3)
            comm.send("second", dest=1, tag=3)
            return None
        return (comm.recv(source=0, tag=3), comm.recv(source=0, tag=3))

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().reorder(src=0, dest=1))
    assert out[1] == ("second", "first")


def test_reorder_holdback_is_flushed_not_wedged():
    """A single held message must be released, not turn into a fake deadlock."""
    def worker(comm):
        if comm.rank == 0:
            comm.send("only", dest=1, tag=6)
            return None
        return comm.recv(source=0, tag=6)

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().reorder(src=0, dest=1))
    assert out[1] == "only"


def test_faults_thread_through_collectives():
    """Corrupting root's outbound traffic perturbs a bcast result."""
    def worker(comm):
        return comm.bcast(np.ones(4) if comm.rank == 0 else None, root=0)

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().corrupt(src=0, dest=1))
    np.testing.assert_array_equal(out[0], np.ones(4))      # root untouched
    np.testing.assert_array_equal(out[1], -np.ones(4) - 1)  # peer corrupted


def test_delay_under_collective_does_not_break_correctness():
    """Delays slow a reduction but cannot change its value."""
    def worker(comm):
        return comm.allreduce(comm.rank + 1, op="sum")

    out = run_ranks(4, worker, timeout=30.0, faults=FaultPlan().delay(0.05))
    assert out == [10, 10, 10, 10]


# ------------------------------------------------------------------- stats
def test_comm_stats_label_traffic_by_operation():
    def worker(comm):
        comm.bcast(np.zeros(8) if comm.rank == 0 else None, root=0)
        comm.barrier()
        return comm.stats

    stats = run_ranks(4, worker, timeout=30.0)
    assert all(s.op_calls.get("bcast") == 1 for s in stats)
    assert all(s.op_calls.get("barrier") == 1 for s in stats)
    total_sent = sum(s.msgs_sent for s in stats)
    total_recv = sum(s.msgs_recv for s in stats)
    assert total_sent == total_recv > 0
    # Traffic inside the barrier's gather/bcast is charged to "barrier".
    assert sum(s.op_msgs.get("barrier", 0) for s in stats) > 0


# --------------------------------------------------------- process boundary
def test_process_crash_named_on_every_peer_process():
    """ISSUE 7: an injected crash in a forked rank process surfaces as a
    CommError naming the dead rank on every peer process — the diagnosis
    crosses the process boundary intact (origin_rank included)."""
    def worker(comm):
        if comm.rank == 2:
            comm.barrier()  # injected crash fires here
            return "unreachable"
        return comm.recv(source=2, tag=9)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0,
                    faults=FaultPlan().crash(rank=2, at_op=1),
                    return_exceptions=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"crash diagnosis took {elapsed:.1f}s"
    assert isinstance(out[2], RankCrashedError)
    for rank in (0, 1, 3):
        assert isinstance(out[rank], CommError), \
            f"rank {rank} did not fail cleanly: {out[rank]!r}"
        assert "rank 2 crashed" in str(out[rank])
        assert out[rank].origin_rank == 2


def test_process_mistagged_coupler_exchange_deadlock_report():
    """ISSUE 7: a wrong-tag coupler exchange on forked rank pools yields a
    DeadlockReport — marshalled back from the child processes — naming
    every blocked rank with its op, peer and tag, in under a second."""
    layout = PoolLayout(n_atm=2, n_ocn=1)

    def worker(comm):
        role = layout.role_of(comm.rank)
        if role == "atm":
            return comm.recv(layout.cpl_rank, TAG_SURFACE)
        if role == "cpl":
            # Mis-tagged: the forcing goes out under TAG_SST, so the ocean
            # (waiting on TAG_FORCING) never matches it.
            comm.send({"taux": np.zeros(3)}, layout.ocn_leader, TAG_SST)
            return comm.recv(layout.atm_ranks[0], TAG_ATM_STATE)
        return comm.recv(layout.cpl_rank, TAG_FORCING)

    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(layout.world_size, worker, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"deadlock diagnosis took {elapsed:.1f}s"

    report = excinfo.value.report
    assert set(report.ranks) == {0, 1, 2, 3}
    by_rank = {b.rank: b for b in report.blocked}
    for r in layout.atm_ranks:
        assert by_rank[r].peer == layout.cpl_rank
        assert by_rank[r].tag == TAG_SURFACE
        assert by_rank[r].op == "recv"
    assert by_rank[layout.ocn_leader].peer == layout.cpl_rank
    assert by_rank[layout.ocn_leader].tag == TAG_FORCING


def test_process_faults_thread_through_collectives():
    """The router applies FaultPlan transforms: corruption of root's
    outbound traffic reaches a bcast payload parked in shared memory."""
    big = 16384  # float64 payload over the shm threshold (128 KiB)

    def worker(comm):
        return comm.bcast(np.ones(big) if comm.rank == 0 else None, root=0)

    out = run_ranks(2, worker, timeout=30.0,
                    faults=FaultPlan().corrupt(src=0, dest=1))
    np.testing.assert_array_equal(out[0], np.ones(big))       # root untouched
    np.testing.assert_array_equal(out[1], -np.ones(big) - 1)  # peer corrupted
