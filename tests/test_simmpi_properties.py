"""Property-based tests: every collective vs its NumPy serial equivalent.

For randomized world sizes 1-9, random dtypes and shapes (including
non-contiguous inputs and size-1 communicators), each collective must agree
with the obvious serial NumPy computation over the same per-rank payloads,
which cross real process boundaries (``run_ranks`` forks the ranks):

* ``bcast``       == identity from the root payload
* ``gather``      == the list of payloads in rank order
* ``scatter``     == bitwise hand-out of the root's list
* ``alltoall``    == the transpose of the payload matrix
* ``send``/``recv`` == a ring shift

Every comparison is bitwise: no collective does arithmetic.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.parallel import run_ranks

pytestmark = pytest.mark.parallel

_SETTINGS = dict(max_examples=20, deadline=None,
                 suppress_health_check=[HealthCheck.too_slow])


world_sizes = st.integers(min_value=1, max_value=9)
dtypes = st.sampled_from(["float64", "float32", "int64", "int32", "complex128"])
shapes = st.lists(st.integers(1, 4), min_size=1, max_size=3).map(tuple)


@st.composite
def world_and_payloads(draw):
    """A world size plus one deterministic array payload per rank.

    With probability ~1/2 each payload is a non-contiguous view (reversed
    leading axis), exercising the copy-on-send path.
    """
    size = draw(world_sizes)
    dtype = np.dtype(draw(dtypes))
    shape = draw(shapes)
    seed = draw(st.integers(0, 2**31 - 1))
    noncontig = draw(st.booleans())
    rng = np.random.default_rng(seed)
    payloads = []
    for _ in range(size):
        if dtype.kind == "c":
            arr = (rng.integers(-8, 8, size=shape)
                   + 1j * rng.integers(-8, 8, size=shape)).astype(dtype)
        elif dtype.kind == "f":
            arr = rng.integers(-8, 8, size=shape).astype(dtype) / 4.0
        else:
            arr = rng.integers(-8, 8, size=shape).astype(dtype)
        if noncontig and shape[0] > 1:
            arr = arr[::-1]
            assert not arr.flags["C_CONTIGUOUS"]
        payloads.append(arr)
    return size, payloads


@settings(**_SETTINGS)
@given(world_and_payloads(), st.integers(0, 8))
def test_bcast_equals_root_payload(wp, root_pick):
    size, payloads = wp
    root = root_pick % size

    def worker(comm):
        obj = payloads[root] if comm.rank == root else None
        return comm.bcast(obj, root=root)

    for received in run_ranks(size, worker, timeout=30.0):
        np.testing.assert_array_equal(received, payloads[root])


@settings(**_SETTINGS)
@given(world_and_payloads(), st.integers(0, 8))
def test_gather_equals_rank_ordered_list(wp, root_pick):
    size, payloads = wp
    root = root_pick % size

    def worker(comm):
        return comm.gather(payloads[comm.rank], root=root)

    out = run_ranks(size, worker, timeout=30.0)
    assert len(out[root]) == size
    for r in range(size):
        np.testing.assert_array_equal(out[root][r], payloads[r])
        if r != root:
            assert out[r] is None


@settings(**_SETTINGS)
@given(world_and_payloads(), st.integers(0, 8))
def test_scatter_is_bitwise_handout(wp, root_pick):
    size, payloads = wp
    root = root_pick % size

    def worker(comm):
        objs = payloads if comm.rank == root else None
        return comm.scatter(objs, root=root)

    out = run_ranks(size, worker, timeout=30.0)
    for r in range(size):
        np.testing.assert_array_equal(out[r], payloads[r])


@settings(**_SETTINGS)
@given(world_and_payloads(), st.integers(0, 2**31 - 1))
def test_alltoall_is_matrix_transpose(wp, seed):
    size, payloads = wp
    rng = np.random.default_rng(seed)
    # matrix[src][dest]: a distinct block for every (src, dest) pair.
    matrix = [[payloads[src] + dest * rng.integers(1, 3)
               for dest in range(size)] for src in range(size)]

    def worker(comm):
        return comm.alltoall(matrix[comm.rank])

    out = run_ranks(size, worker, timeout=30.0)
    for dest in range(size):
        for src in range(size):
            np.testing.assert_array_equal(out[dest][src], matrix[src][dest])


@settings(**_SETTINGS)
@given(world_and_payloads())
def test_send_recv_ring_shift(wp):
    size, payloads = wp

    def worker(comm):
        right = (comm.rank + 1) % comm.size
        left = (comm.rank - 1) % comm.size
        comm.send(payloads[comm.rank], dest=right)
        return comm.recv(source=left)

    out = run_ranks(size, worker, timeout=30.0)
    for r in range(size):
        np.testing.assert_array_equal(out[r], payloads[(r - 1) % size])


@settings(**_SETTINGS)
@given(world_and_payloads())
def test_collectives_preserve_noncontiguous_inputs(wp):
    """Send buffers are copied: mutating them after the call is harmless."""
    size, payloads = wp
    originals = [p.copy() for p in payloads]

    def worker(comm):
        buf = payloads[comm.rank]
        gathered = comm.gather(buf, root=0)
        return gathered

    out = run_ranks(size, worker, timeout=30.0)
    for r in range(size):
        np.testing.assert_array_equal(out[0][r], originals[r])


def test_size_one_world_runs_every_collective():
    """Size-1 communicators: every collective degenerates to the identity."""
    x = np.arange(6.0).reshape(2, 3)

    def worker(comm):
        assert comm.size == 1
        comm.barrier()
        a = comm.bcast(x, root=0)
        d = comm.gather(x, root=0)
        f = comm.scatter([x], root=0)
        g = comm.alltoall([x])
        return a, d, f, g

    a, d, f, g = run_ranks(1, worker, timeout=30.0)[0]
    for got in (a, d[0], f, g[0]):
        np.testing.assert_array_equal(got, x)
