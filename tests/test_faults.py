"""Crash and deadlock diagnosis regression tests.

The requirements these encode: a rank that dies — its worker raises, or
its process exits without reporting — surfaces as a ``CommError`` naming
the dead rank on *every* peer rather than a hang; a recv/recv tag-mismatch
cycle is diagnosed as a structured :class:`DeadlockReport` within ~2
seconds, not a 120-second timeout.

Every world here is a set of forked rank processes, so each diagnosis is
also a marshalling test: ``origin_rank`` survives the pickle, and a
:class:`DeadlockReport` is broadcast by the router in under a second.
"""

import os
import time

import numpy as np
import pytest

from repro.parallel import (
    Comm,
    CommError,
    DeadlockError,
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
    """Rank 2 dies at its first op; every peer gets a CommError naming it,
    which the peer's own worker can catch and return from."""
    def worker(comm):
        if comm.rank == 2:
            raise RuntimeError("rank 2 died before its barrier")
        try:
            return comm.recv(source=2, tag=9)
        except CommError as exc:
            return str(exc)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0, return_exceptions=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"crash diagnosis took {elapsed:.1f}s"
    assert isinstance(out[2], RuntimeError)
    for rank in (0, 1, 3):
        assert isinstance(out[rank], str), f"rank {rank} did not fail cleanly"
        assert "rank 2 crashed" in out[rank]


def test_crash_during_collective_fails_peers_not_hangs():
    """A root that raises before its bcast fails every peer with a CommError
    (the binomial tree's second level included), not a hang."""
    def worker(comm):
        if comm.rank == 0:
            raise RuntimeError("root died before bcast")
        return comm.bcast(None, root=0)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0, return_exceptions=True)
    assert time.monotonic() - t0 < 5.0
    assert isinstance(out[0], RuntimeError)
    assert all(isinstance(o, CommError) for o in out[1:])


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
    assert tuple(b.rank for b in report.blocked) == (0, 1)
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

    orig = Comm._collective_tag

    def skewed_tag(self, base):
        # Rank-dependent collective tags: the textbook way transposes wedge.
        return orig(self, base) + self.rank

    def worker(comm):
        lo, hi = block_bounds(nrows, comm.size, comm.rank)
        return transpose_forward(comm, full[lo:hi], nrows, ncols)

    # Forked children inherit the patched class.
    Comm._collective_tag = skewed_tag
    try:
        t0 = time.monotonic()
        with pytest.raises(DeadlockError) as excinfo:
            run_ranks(3, worker, timeout=60.0)
        elapsed = time.monotonic() - t0
    finally:
        Comm._collective_tag = orig

    assert elapsed < 5.0, f"transpose deadlock diagnosis took {elapsed:.1f}s"
    report = excinfo.value.report
    assert len(report.blocked) >= 2
    assert any(b.op == "transpose.forward" for b in report.blocked)


# ------------------------------------------------------------------- stats
def test_comm_stats_label_traffic_by_operation():
    def worker(comm):
        comm.bcast(np.zeros(8) if comm.rank == 0 else None, root=0)
        comm.barrier()
        return comm.stats

    stats = run_ranks(4, worker, timeout=30.0)
    assert all(s.op_calls.get("bcast") == 1 for s in stats)
    assert all(s.op_calls.get("barrier") == 1 for s in stats)
    # bcast: 3 sends; barrier: a gather (3) then a bcast (3) to 4 ranks.
    assert sum(s.msgs_sent for s in stats) == 9
    # Traffic inside the barrier's gather/bcast is charged to "barrier".
    assert sum(s.op_msgs.get("barrier", 0) for s in stats) > 0


# --------------------------------------------------------- process boundary
def test_process_crash_named_on_every_peer_process():
    """A rank whose worker raises surfaces as a CommError naming it on every
    peer process — the diagnosis crosses the process boundary intact
    (origin_rank included)."""
    def worker(comm):
        if comm.rank == 2:
            raise RuntimeError("rank 2 worker failed")
        return comm.recv(source=2, tag=9)

    t0 = time.monotonic()
    out = run_ranks(4, worker, timeout=30.0, return_exceptions=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"crash diagnosis took {elapsed:.1f}s"
    assert isinstance(out[2], RuntimeError)
    for rank in (0, 1, 3):
        assert isinstance(out[rank], CommError), \
            f"rank {rank} did not fail cleanly: {out[rank]!r}"
        assert "rank 2 crashed" in str(out[rank])
        assert out[rank].origin_rank == 2


def test_process_that_exits_without_reporting_named_on_every_peer():
    """A rank process that dies without sending its result home (no
    exception to marshal) is found by the router's liveness check and named
    on every peer."""
    def worker(comm):
        if comm.rank == 1:
            os._exit(3)
        return comm.recv(source=1, tag=9)

    t0 = time.monotonic()
    out = run_ranks(3, worker, timeout=30.0, return_exceptions=True)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"hard-death diagnosis took {elapsed:.1f}s"
    for rank in (0, 2):
        assert isinstance(out[rank], CommError), \
            f"rank {rank} did not fail cleanly: {out[rank]!r}"
        assert ("rank 1 crashed (process exited with code 3 without "
                "reporting a result)") in str(out[rank])
        assert out[rank].origin_rank == 1


def test_process_mistagged_coupler_exchange_deadlock_report():
    """ISSUE 7: a wrong-tag coupler exchange on forked rank pools yields a
    DeadlockReport — marshalled back from the child processes — naming
    every blocked rank with its op, peer and tag, in under a second."""
    layout = PoolLayout(n_atm=2)

    def worker(comm):
        role = layout.role_of(comm.rank)
        if role == "atm":
            return comm.recv(layout.cpl_rank, TAG_SURFACE)
        if role == "cpl":
            # Mis-tagged: the forcing goes out under TAG_SST, so the ocean
            # (waiting on TAG_FORCING) never matches it.
            comm.send({"taux": np.zeros(3)}, layout.ocn_rank, TAG_SST)
            return comm.recv(layout.atm_ranks[0], TAG_ATM_STATE)
        return comm.recv(layout.cpl_rank, TAG_FORCING)

    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(layout.world_size, worker, timeout=60.0)
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0, f"deadlock diagnosis took {elapsed:.1f}s"

    report = excinfo.value.report
    assert {b.rank for b in report.blocked} == {0, 1, 2, 3}
    by_rank = {b.rank: b for b in report.blocked}
    for r in layout.atm_ranks:
        assert by_rank[r].peer == layout.cpl_rank
        assert by_rank[r].tag == TAG_SURFACE
        assert by_rank[r].op == "recv"
    assert by_rank[layout.ocn_rank].peer == layout.cpl_rank
    assert by_rank[layout.ocn_rank].tag == TAG_FORCING
