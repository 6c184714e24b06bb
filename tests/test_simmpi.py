"""Unit tests for the simulated MPI layer (repro.parallel.procmpi.Comm)."""

import glob

import numpy as np
import pytest

from repro.parallel import ANY_SOURCE, CommError, CommStats, DeadlockError, run_ranks
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


def test_sendrecv_ring_shift():
    def worker(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        return comm.sendrecv(comm.rank, dest=right, source=left)

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


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_reduce_sum(size):
    def worker(comm):
        return comm.reduce(comm.rank + 1, op="sum", root=0)

    out = run_ranks(size, worker)
    assert out[0] == size * (size + 1) // 2
    assert all(v is None for v in out[1:])


@pytest.mark.parametrize("op,expect", [("sum", 10), ("max", 4), ("min", 1), ("prod", 24)])
def test_allreduce_ops(op, expect):
    def worker(comm):
        return comm.allreduce(comm.rank + 1, op=op)

    out = run_ranks(4, worker)
    assert out == [expect] * 4


def test_allreduce_arrays():
    def worker(comm):
        return comm.allreduce(np.full(3, float(comm.rank)), op="max")

    out = run_ranks(3, worker)
    for arr in out:
        np.testing.assert_array_equal(arr, np.full(3, 2.0))


def test_gather_preserves_rank_order():
    def worker(comm):
        return comm.gather(f"r{comm.rank}", root=1)

    out = run_ranks(4, worker)
    assert out[1] == ["r0", "r1", "r2", "r3"]
    assert out[0] is None


def test_allgather():
    out = run_ranks(3, lambda c: c.allgather(c.rank * 2))
    assert out == [[0, 2, 4]] * 3


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


def test_comm_stats_merge_sums_every_counter():
    """CommStats.merge is the exact column sum of the per-rank counters —
    callers rely on it to fold per-rank-process stats into a world view
    without losing a byte."""
    a = CommStats(rank=0)
    a.note_send("transpose.forward", dest=1, nbytes=100)
    a.note_send("transpose.forward", dest=2, nbytes=50)
    a.note_recv(8)
    a.note_call("bcast")
    b = CommStats(rank=1)
    b.note_send("bcast", dest=0, nbytes=8)
    b.note_recv(100)
    b.note_recv(8)
    b.note_call("bcast")

    m = CommStats.merge([a, b], rank=-1)
    assert m.rank == -1
    assert m.msgs_sent == 3 and m.bytes_sent == 158
    assert m.msgs_recv == 3 and m.bytes_recv == 116
    assert m.bytes_for("transpose") == 150
    assert m.op_calls["bcast"] == 2
    assert m.peer_bytes[1] == 100 and m.peer_bytes[2] == 50
    assert m.peer_bytes[0] == 8
    # Merging merges is still a plain sum (associativity).
    mm = CommStats.merge([CommStats.merge([a]), CommStats.merge([b])])
    assert mm.op_bytes == m.op_bytes and mm.bytes_sent == m.bytes_sent
    # Neutral element: merging nothing is all-zero.
    z = CommStats.merge([])
    assert z.msgs_sent == 0 and z.op_bytes == {}


# -------------------------------------------------------------------- split
def test_split_groups_and_sizes():
    """color partitions the world; sub-ranks are dense and ordered by rank."""
    def worker(comm):
        sub = comm.split(comm.rank % 2)
        return (sub.rank, sub.size)

    out = run_ranks(4, worker)
    # Even world ranks 0,2 -> sub ranks 0,1; odd world ranks 1,3 likewise.
    assert out == [(0, 2), (0, 2), (1, 2), (1, 2)]


def test_split_key_reverses_order():
    def worker(comm):
        sub = comm.split(0, key=-comm.rank)
        return sub.rank

    assert run_ranks(3, worker) == [2, 1, 0]


def test_split_color_none_opts_out():
    def worker(comm):
        sub = comm.split(None if comm.rank == 2 else 0)
        if sub is None:
            return None
        return sub.allreduce(comm.rank, op="sum")

    assert run_ranks(3, worker) == [1, 1, None]


def test_split_collectives_stay_inside_group():
    def worker(comm):
        sub = comm.split(comm.rank // 2)
        return sub.allgather(comm.rank)

    out = run_ranks(4, worker)
    assert out == [[0, 1], [0, 1], [2, 3], [2, 3]]


def test_split_tag_isolation_from_world():
    """The same (source, tag) on world and sub-communicator never cross."""
    def worker(comm):
        sub = comm.split(0)
        if comm.rank == 0:
            comm.send("world", dest=1, tag=7)
            sub.send("sub", dest=1, tag=7)
            return None
        got_sub = sub.recv(source=0, tag=7)
        got_world = comm.recv(source=0, tag=7)
        return (got_sub, got_world)

    out = run_ranks(2, worker)
    assert out[1] == ("sub", "world")


def test_split_point_to_point_uses_group_ranks():
    """Sub-communicator rank numbering is local to the group."""
    def worker(comm):
        sub = comm.split(comm.rank % 2)   # group of world ranks {1, 3}
        if comm.rank == 1:
            sub.send(comm.rank, dest=1)   # sub rank 1 == world rank 3
            return None
        if comm.rank == 3:
            return sub.recv(source=0)     # sub rank 0 == world rank 1
        return None

    assert run_ranks(4, worker)[3] == 1


def test_split_deadlock_reports_world_ranks():
    """A wedge inside a sub-communicator is named in world ranks."""
    def worker(comm):
        sub = comm.split(comm.rank // 2)  # {0,1} and {2,3}
        if comm.rank < 2:
            return sub.allreduce(1, op="sum")   # healthy group
        return sub.recv(source=1 - sub.rank, tag=9)   # {2,3} wedge each other

    with pytest.raises(DeadlockError) as excinfo:
        run_ranks(4, worker, timeout=60.0)
    report = excinfo.value.report
    assert set(report.ranks) == {2, 3}
    for b in report.blocked:
        assert b.peer == 5 - b.rank       # world rank of the sub peer
