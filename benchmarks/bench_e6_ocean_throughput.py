"""E6: stand-alone ocean throughput — >105,000x real time on 64 nodes.

Paper section 4.2: "We have benchmarked the ocean code at 128 x 128
resolution on 64 SP2 nodes running at over 105,000 times real time."
The bench regenerates the number on the machine model, and separately
measures the *actual Python ocean* stepping rate to document what this
reproduction achieves in serial NumPy.
"""


import numpy as np

from conftest import report
from repro.ocean import OceanForcing, OceanGrid, OceanModel, world_topography
from repro.perf.eventsim import simulate_ocean_day


def test_ocean_throughput_model(benchmark):
    res64 = benchmark(simulate_ocean_day, 64)
    res1 = simulate_ocean_day(1)

    report("E6: ocean-only throughput (128x128x16)", [
        ("64 SP2 nodes", ">105,000x", f"{res64.speedup:,.0f}x"),
        ("1 SP2 node", "-", f"{res1.speedup:,.0f}x"),
        ("64-node efficiency vs 1 node", "sub-linear (small domain)",
         f"{100 * res64.speedup / (64 * res1.speedup):.0f} %"),
    ])
    assert res64.speedup > 105_000.0
    assert res64.speedup < 64 * res1.speedup      # communication costs bite


def test_ocean_python_stepping_rate(benchmark):
    """The reproduction's own ocean throughput (serial NumPy, small grid)."""
    g = OceanGrid(nx=32, ny=32, nlev=8)
    land, depth = world_topography(g)
    model = OceanModel(g, land, depth)
    state = model.initial_state()
    forcing = OceanForcing.zeros(g.ny, g.nx)
    # Warm up once (allocations, caches).
    state = model.step(state, forcing)

    result = benchmark(model.step, state, forcing)
    assert np.all(np.isfinite(result.temp))
