"""E7: the R15 atmosphere costs ~16x the 128x128 ocean per simulated time.

Paper section 5: "Although R15 is an extremely coarse resolution ... it
still requires approximately 16 times as much processor time as our ocean
with 128 x 128 resolution ...  Accordingly, we typically run on 17 or 34
nodes, with 1 or 2 of those processors, respectively, dedicated to the
ocean."  The bench checks the ratio in the cost model AND in the actual
Python implementation's wall-clock times at reduced resolution.
"""

import time

from conftest import report
from repro.perf.costmodel import AtmosphereCost, OceanCost, atmosphere_ocean_cost_ratio


def test_cost_ratio_model(benchmark):
    ratio = benchmark(atmosphere_ocean_cost_ratio)
    atm = AtmosphereCost()
    ocn = OceanCost()
    report("E7: atmosphere/ocean cost ratio (paper resolutions)", [
        ("atm ops per simulated day (R15 L18)", "-", f"{atm.day_ops():.2e}"),
        ("ocn ops per simulated day (128^2 L16)", "-", f"{ocn.day_ops():.2e}"),
        ("ratio", "~16x", f"{ratio:.1f}x"),
        ("implied node split at 17 nodes", "16 atm : 1 ocn",
         f"{ratio:.0f} : 1"),
    ])
    assert 12.0 < ratio < 24.0


def test_cost_ratio_actual_implementation(benchmark):
    """Measure the same ratio in this reproduction's own wall-clock."""
    import numpy as np

    from repro.atmosphere.dynamics import SpectralDynamicalCore
    from repro.atmosphere.spectral import SpectralTransform, Truncation
    from repro.atmosphere.vertical import VerticalGrid
    from repro.ocean import OceanForcing, OceanGrid, OceanModel, world_topography

    tr = SpectralTransform(24, 32, Truncation(8))
    core = SpectralDynamicalCore(tr, VerticalGrid.ccm_like(5), dt=1800.0)
    atm_state = core.initial_state(noise_amplitude=1e-8)
    prev, curr = atm_state, core._forward_start(atm_state)

    g = OceanGrid(nx=24, ny=24, nlev=5)
    land, depth = world_topography(g)
    ocean = OceanModel(g, land, depth)
    ocn_state = ocean.initial_state()
    forcing = OceanForcing.zeros(g.ny, g.nx)

    def one_simulated_day():
        nonlocal prev, curr, ocn_state
        for _ in range(48):                 # atmosphere: 48 steps/day
            prev, curr = core.step(prev, curr)
        for _ in range(4):                  # ocean: 4 calls/day
            ocn_state = ocean.step(ocn_state, forcing)

    benchmark.pedantic(one_simulated_day, rounds=1, iterations=1)

    t0 = time.perf_counter()
    for _ in range(24):
        prev, curr = core.step(prev, curr)
    atm_wall = (time.perf_counter() - t0) * 2
    t0 = time.perf_counter()
    for _ in range(4):
        ocn_state = ocean.step(ocn_state, forcing)
    ocn_wall = time.perf_counter() - t0
    ratio = atm_wall / ocn_wall
    report("E7 (implementation): wall-clock ratio per simulated day", [
        ("atm day (dynamics only, reduced res)", "-", f"{atm_wall:.2f} s"),
        ("ocn day (reduced res)", "-", f"{ocn_wall:.2f} s"),
        ("ratio", "atmosphere dominates", f"{ratio:.1f}x"),
    ])
    assert ratio > 1.0      # atmosphere is the expensive component here too
    assert np.all(np.isfinite(ocn_state.temp))
