"""Unit tests for the simulated MPI layer (repro.parallel.procmpi.Comm)."""

import glob

import numpy as np
import pytest

from repro.parallel import ANY_SOURCE, CommError, DeadlockError, run_ranks
from repro.util.tree import tree_leaves
from tests.oracles import bitwise

pytestmark = pytest.mark.parallel


def test_single_rank_world():
    out = run_ranks(1, lambda c: c.rank)
    assert out == [0]


def test_send_recv_roundtrip():
    def worker(comm):
        if comm.rank == 0:
            comm.send({"x": 42}, dest=1, tag=7)
            return None
        return comm.recv(source=0, tag=7)

    out = run_ranks(2, worker)
    assert out[1] == {"x": 42}


def test_send_copies_numpy_buffer():
    """MPI semantics: mutating the send buffer after send must not corrupt the message."""
    def worker(comm):
        if comm.rank == 0:
            buf = np.arange(5.0)
            comm.send(buf, dest=1)
            buf[:] = -1.0
            return None
        return comm.recv(source=0)

    out = run_ranks(2, worker)
    np.testing.assert_array_equal(out[1], np.arange(5.0))


def test_recv_wildcard_source():
    def worker(comm):
        if comm.rank == 0:
            got = sorted(comm.recv(source=ANY_SOURCE) for _ in range(comm.size - 1))
            return got
        comm.send(comm.rank * 10, dest=0)
        return None

    out = run_ranks(4, worker)
    assert out[0] == [10, 20, 30]


def test_recv_tag_selectivity_with_stash():
    """A message with the wrong tag must be stashed, not lost."""
    def worker(comm):
        if comm.rank == 0:
            comm.send("first", dest=1, tag=1)
            comm.send("second", dest=1, tag=2)
            return None
        second = comm.recv(source=0, tag=2)   # arrives after tag=1: forces stash
        first = comm.recv(source=0, tag=1)    # must come from the stash
        return (first, second)

    out = run_ranks(2, worker)
    assert out[1] == ("first", "second")


def test_buffered_send_ring_shift():
    """Every rank sends before it receives: sends are buffered, so a ring
    shift (the atmosphere pool's band swap) cannot wedge."""
    def worker(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(comm.rank, dest=right)
        return comm.recv(source=left)

    out = run_ranks(5, worker)
    assert out == [(r - 1) % 5 for r in range(5)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 7, 8])
def test_bcast_all_sizes(size):
    def worker(comm):
        payload = np.arange(10.0) if comm.rank == 2 % comm.size else None
        return comm.bcast(payload, root=2 % comm.size)

    out = run_ranks(size, worker)
    for arr in out:
        np.testing.assert_array_equal(arr, np.arange(10.0))


def test_gather_preserves_rank_order():
    def worker(comm):
        return comm.gather(f"r{comm.rank}", root=1)

    out = run_ranks(4, worker)
    assert out[1] == ["r0", "r1", "r2", "r3"]
    assert out[0] is None


def test_scatter():
    def worker(comm):
        objs = [i * i for i in range(comm.size)] if comm.rank == 0 else None
        return comm.scatter(objs, root=0)

    out = run_ranks(4, worker)
    assert out == [0, 1, 4, 9]


def test_scatter_wrong_length_raises():
    def worker(comm):
        objs = [1, 2] if comm.rank == 0 else None
        return comm.scatter(objs, root=0)

    with pytest.raises(CommError):
        run_ranks(3, worker, timeout=5.0)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 6])
def test_alltoall_personalized(size):
    def worker(comm):
        objs = [comm.rank * 100 + dest for dest in range(comm.size)]
        return comm.alltoall(objs)

    out = run_ranks(size, worker)
    for rank, received in enumerate(out):
        assert received == [src * 100 + rank for src in range(size)]


def test_barrier_completes():
    def worker(comm):
        for _ in range(3):
            comm.barrier()
        return True

    assert run_ranks(4, worker) == [True] * 4


def test_worker_exception_propagates():
    def worker(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 blew up")
        comm.barrier()
        return True

    with pytest.raises(ValueError, match="rank 1 blew up"):
        run_ranks(3, worker, timeout=5.0)


def _shm_blocks() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def test_bulk_results_come_home_through_shared_memory(monkeypatch):
    """A rank's result travels as its messages do — arrays of at least 64 KiB
    in shm blocks, so the queue's feeder thread has nothing bulk to copy while
    the rank tears down (that race set the rank's peak RSS) — and arrives
    bitwise, every block consumed: also when another rank raised, and when the
    result itself would not pickle."""
    from repro.parallel import procmpi

    def result():
        return {"strided": np.arange(40000.0).reshape(100, 400)[:, ::2],
                "f32": (np.full((200, 200), 0.1, np.float32), "label", None),
                "small": [np.arange(3), -0.0], "nan": np.full(9000, np.nan)}

    before = _shm_blocks()
    crossed = []            # what came off the queue, before decoding
    decode = procmpi._decode_payload
    monkeypatch.setattr(procmpi, "_decode_payload",
                        lambda enc: crossed.append(enc) or decode(enc))
    results = run_ranks(2, lambda comm: result())
    for enc, got in zip(crossed, results, strict=True):
        assert all(procmpi._is_ref(ref)
                   for ref in (enc["strided"], enc["f32"][0], enc["nan"]))
        assert isinstance(enc["small"][0], np.ndarray)
        for (_, a), (_, b) in zip(tree_leaves(got), tree_leaves(result()),
                                  strict=True):
            assert bitwise(a, b) if isinstance(b, np.ndarray) else a == b
        assert isinstance(got["f32"], tuple) and isinstance(got["small"], list)

    def one_raises(comm):
        if comm.rank == 1:
            raise ValueError("rank 1 blew up")
        return result()

    with pytest.raises(ValueError, match="rank 1 blew up"):
        run_ranks(2, one_raises, timeout=5.0)
    with pytest.raises(Exception, match="pickle"):
        run_ranks(1, lambda comm: {"bulk": np.zeros(10000), "f": lambda: 0})
    assert _shm_blocks() == before


def test_recv_from_finished_peer_diagnosed_immediately():
    """A recv that can never be satisfied fails structurally, not by timeout."""
    def worker(comm):
        if comm.rank == 0:
            return comm.recv(source=1)  # rank 1 never sends
        return None

    with pytest.raises(CommError, match="can never complete"):
        run_ranks(2, worker, timeout=30.0)


def test_bad_destination_raises():
    def worker(comm):
        comm.send(1, dest=99)

    with pytest.raises(CommError, match="bad destination"):
        run_ranks(2, worker, timeout=5.0)


def test_bytes_accounting():
    def worker(comm):
        if comm.rank == 0:
            comm.send(np.zeros(1000), dest=1)
            return comm.stats.bytes_sent
        comm.recv(source=0)
        return comm.stats.bytes_sent

    out = run_ranks(2, worker)
    assert out[0] == 8000
    assert out[1] == 0


def test_deadlock_among_some_ranks_names_only_them():
    """Ranks 0 and 1 finish a healthy exchange; ranks 2 and 3 wait on each
    other.  The report names the wedged pair, each waiting on the other."""
    def worker(comm):
        if comm.rank < 2:
            comm.send(comm.rank, dest=1 - comm.rank, tag=3)
            return comm.recv(source=1 - comm.rank, tag=3)
        return comm.recv(source=5 - comm.rank, tag=9)

    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(4, worker, timeout=60.0)
    report = excinfo.value.report
    assert {b.rank for b in report.blocked} == {2, 3}
    for b in report.blocked:
        assert b.peer == 5 - b.rank and b.tag == 9
    assert set(report.cycle) == {2, 3}
