"""Cross-substrate equivalence matrix: thread vs process vs serial, bitwise.

ISSUE 7's acceptance property: the process substrate is not "close to" the
thread substrate — it is *indistinguishable* from it at float64, message
count and byte count, on the same communication-heavy paths the decomposed
equivalence suite pins against serial.  Every comparison here is
``assert_array_equal`` (with ``equal_nan`` only where land points are NaN
by construction); tolerance would hide exactly the marshalling bugs a
process boundary can introduce (a truncated shared-memory block, a
dtype-mangling pickle round-trip, a misrouted shm handle).

The matrix:

* decomposed spectral analysis on 1/2/4 ranks — serial == thread == process;
* forward+backward transpose traffic on 1/2/4 ranks — per-rank CommStats
  (messages, bytes, op labels) identical across substrates, and the
  calibration input ``transpose_bytes_from_stats`` derived from them
  identical too;
* a 2-step concurrent coupled run — full model state (spectral atmosphere,
  ocean, coupler SST) bitwise equal: serial == thread == process;
* ``CommStats.merge`` feeding measured transpose bytes to the performance
  model unchanged when ``FOAM_COMM=process`` selects the substrate via the
  environment rather than an explicit argument.
"""

import numpy as np
import pytest

from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.parallel import CommStats, PoolLayout, run_concurrent_coupled
from repro.parallel.components import (
    measure_transpose_comm,
    parallel_spectral_analysis,
)
from repro.perf.costmodel import transpose_bytes_from_stats
from tests.helpers import assert_trees_identical

pytestmark = pytest.mark.parallel

RANK_COUNTS = [1, 2, 4]


@pytest.fixture(scope="module")
def transform():
    return SpectralTransform(nlat=20, nlon=32, trunc=Truncation(8))


@pytest.fixture(scope="module")
def grid_field(transform):
    rng = np.random.default_rng(7)
    spec = (rng.normal(size=transform.spec_shape)
            + 1j * rng.normal(size=transform.spec_shape))
    spec[0, :] = spec[0, :].real
    return transform.synthesize(spec)


# ----------------------------------------------------------- spectral path
@pytest.mark.parametrize("nranks", RANK_COUNTS)
def test_spectral_analysis_bitwise_serial_thread_process(transform,
                                                         grid_field, nranks):
    """serial == thread-decomposed == process-decomposed, to the last bit."""
    serial = transform.analyze(grid_field)
    thread = parallel_spectral_analysis(nranks, transform, grid_field,
                                        substrate="thread")
    process = parallel_spectral_analysis(nranks, transform, grid_field,
                                         substrate="process")
    np.testing.assert_array_equal(thread, serial)
    np.testing.assert_array_equal(process, serial)


@pytest.mark.parametrize("nranks", RANK_COUNTS)
def test_transpose_traffic_identical_across_substrates(nranks):
    """The measured transpose CommStats are substrate-invariant per rank."""
    thread = measure_transpose_comm(nranks, nlat=16, nm=8, nlev=3,
                                    substrate="thread")
    process = measure_transpose_comm(nranks, nlat=16, nm=8, nlev=3,
                                     substrate="process")
    assert len(thread) == len(process) == nranks
    for t, p in zip(thread, process):
        assert t.rank == p.rank
        assert t.msgs_sent == p.msgs_sent
        assert t.bytes_sent == p.bytes_sent
        assert t.msgs_recv == p.msgs_recv
        assert t.bytes_recv == p.bytes_recv
        assert t.op_bytes == p.op_bytes
        assert t.op_msgs == p.op_msgs
        assert t.peer_bytes == p.peer_bytes
    assert (transpose_bytes_from_stats(thread)
            == transpose_bytes_from_stats(process))


# ------------------------------------------------------- coupled trajectory
def test_concurrent_coupled_bitwise_serial_thread_process():
    """2-step coupled trajectory: serial == thread pools == process pools."""
    from repro.core.config import test_config
    from repro.core.foam import FoamModel

    nsteps = 2
    model = FoamModel(test_config())
    serial = model.initial_state()
    for _ in range(nsteps):
        serial = model.coupled_step(serial)

    layout = PoolLayout(n_atm=2, n_ocn=1)
    thread = run_concurrent_coupled(nsteps=nsteps, layout=layout,
                                    substrate="thread")
    process = run_concurrent_coupled(nsteps=nsteps, layout=layout,
                                     substrate="process")
    assert thread.substrate == "thread"
    assert process.substrate == "process"
    assert_trees_identical(thread.state, serial, "thread pools")
    assert_trees_identical(process.state, serial, "process pools")
    # Coupler-held SST (NaN over land by construction).
    np.testing.assert_array_equal(
        np.nan_to_num(thread.sst), np.nan_to_num(process.sst))
    assert np.array_equal(np.isnan(thread.sst), np.isnan(process.sst))


# -------------------------------------------------- stats merge/calibration
def test_transpose_bytes_reach_calibration_unchanged_under_process_env(
        monkeypatch):
    """Satellite 4: with ``FOAM_COMM=process`` the per-rank CommStats come
    back from forked processes, merge cleanly, and feed the event
    simulator's transpose-volume calibration the exact same number the
    thread substrate produces."""
    thread = measure_transpose_comm(4, nlat=16, nm=8, nlev=3)

    monkeypatch.setenv("FOAM_COMM", "process")
    process = measure_transpose_comm(4, nlat=16, nm=8, nlev=3)

    assert transpose_bytes_from_stats(process) \
        == transpose_bytes_from_stats(thread)

    merged_t = CommStats.merge(thread)
    merged_p = CommStats.merge(process)
    assert merged_t.op_bytes == merged_p.op_bytes
    assert merged_t.bytes_sent == merged_p.bytes_sent
    assert merged_p.bytes_for("transpose") == sum(
        s.bytes_for("transpose") for s in thread)
