"""E11: computational cost ~ inverse cube of the horizontal spacing.

Paper section 2: "the computational cost, even without increases in
vertical resolution ... is roughly proportional to the inverse cube of the
horizontal spacing of represented points" — the scaling law motivating
FOAM's resolution choices.  Verified both in the cost model and in the
actual spectral dynamical core's wall-clock.
"""

import time


from conftest import report
from repro.atmosphere.dynamics import SpectralDynamicalCore
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.atmosphere.vertical import VerticalGrid
from repro.perf.costmodel import AtmosphereCost


def test_cube_law_cost_model(benchmark):
    def ratios():
        out = {}
        base = AtmosphereCost(nlat=32, nlon=64, mmax=21, dt=2400.0)
        for f, (nlat, nlon, mmax, dt) in {
                2: (64, 128, 42, 1200.0),
                3: (96, 192, 63, 800.0)}.items():
            fine = AtmosphereCost(nlat=nlat, nlon=nlon, mmax=mmax, dt=dt)
            out[f] = fine.day_ops() / base.day_ops()
        return out

    r = benchmark(ratios)
    report("E11: cost vs resolution (cost model)", [
        ("2x finer spacing", "~8x (2^3)", f"{r[2]:.1f}x"),
        ("3x finer spacing", "~27x (3^3)", f"{r[3]:.1f}x"),
    ])
    assert 6.0 < r[2] < 11.0
    assert 18.0 < r[3] < 38.0


def test_cube_law_implementation(benchmark):
    """Measured wall-clock of the real dynamical core at two resolutions."""
    def day_wall(nlat, nlon, mmax, dt):
        tr = SpectralTransform(nlat, nlon, Truncation(mmax))
        core = SpectralDynamicalCore(tr, VerticalGrid.ccm_like(4), dt=dt)
        st = core.initial_state(noise_amplitude=1e-8)
        prev, curr = st, core._forward_start(st)
        nsteps = int(86400.0 / dt)
        t0 = time.perf_counter()
        for _ in range(nsteps):
            prev, curr = core.step(prev, curr)
        return time.perf_counter() - t0

    def measure():
        coarse = day_wall(16, 32, 8, 3600.0)
        fine = day_wall(32, 64, 16, 1800.0)
        return fine / coarse

    ratio = benchmark.pedantic(measure, rounds=1, iterations=1)
    report("E11: cost vs resolution (implementation)", [
        ("2x finer spacing, measured wall-clock", "~8x", f"{ratio:.1f}x"),
    ])
    # Python overheads flatten the exponent at these small sizes; require
    # clear super-linear growth with the right trend.
    assert ratio > 3.0
