"""E10: near-linear atmosphere scaling on 8, 16 and 32 processors.

Paper section 5: "We have seen almost linear scaling on 8, 16, and 32
atmosphere processors, which is what we normally use."  Two measurements:
the event-simulator curve with the production ocean allocation, and the
*functional* strong-scaling check — the simulated-MPI distributed transpose
(the spectral transform's communication pattern) run at several rank counts
with bit-identical results.
"""

import numpy as np

from conftest import report
from repro.parallel import block_bounds, run_ranks, transpose_forward
from repro.perf.eventsim import simulate_coupled_day


def test_atm_scaling_curve(benchmark):
    def curve():
        return {n_atm: simulate_coupled_day(n_atm, n_ocn, seed=0).speedup
                for n_atm, n_ocn in ((8, 1), (16, 1), (32, 2))}

    s = benchmark(curve)
    r1 = s[16] / s[8]
    r2 = s[32] / s[16]
    report("E10: atmosphere strong scaling", [
        ("8 atm ranks", "-", f"{s[8]:,.0f}x"),
        ("16 atm ranks", "~2x the 8-rank run", f"{s[16]:,.0f}x ({r1:.2f}x)"),
        ("32 atm ranks", "~2x the 16-rank run", f"{s[32]:,.0f}x ({r2:.2f}x)"),
    ])
    assert r1 > 1.6 and r2 > 1.6          # 'almost linear'


def test_distributed_transpose_correctness(benchmark):
    """The spectral transform's alltoall produces identical data at any
    rank count (the functional substrate under the scaling claim)."""
    nrows, ncols = 40, 16
    rng = np.random.default_rng(0)
    full = rng.normal(size=(nrows, ncols))

    def run_at(size):
        def worker(comm):
            rlo, rhi = block_bounds(nrows, comm.size, comm.rank)
            cols = transpose_forward(comm, full[rlo:rhi].copy(), nrows, ncols)
            return cols

        return run_ranks(size, worker)

    out4 = benchmark(run_at, 4)
    out1 = run_at(1)
    out8 = run_at(8)
    np.testing.assert_allclose(np.concatenate(out4, axis=1), full)
    np.testing.assert_allclose(np.concatenate(out1, axis=1), full)
    np.testing.assert_allclose(np.concatenate(out8, axis=1), full)
