"""E2 / Figure 2: per-processor time allocation for one simulated day.

The paper's Figure 2 shows 17 SP processors over one simulated day: long
green atmosphere bars (with two extra-long radiation steps), red coupler
slivers after each synchronization, a blue ocean bar on the dedicated ocean
node, and purple idle time from imperfect cloud load balancing.  The bench
regenerates that trace from the calibrated event simulator and checks its
qualitative anatomy.
"""

from conftest import report
from repro.perf.eventsim import simulate_coupled_day


def test_figure2_time_allocation(benchmark):
    result = benchmark(simulate_coupled_day, 16, 1, seed=0)

    traces = result.traces
    b = traces.breakdown()
    # Radiation steps: the two longest atmosphere segments on rank 0.
    segs = [s.duration for s in traces.traces[0].segments
            if s.activity == "atmosphere"]
    segs_sorted = sorted(segs)
    radiation_ratio = segs_sorted[-1] / (sum(segs_sorted[:-2]) / (len(segs) - 2))

    report("E2: Figure 2 — time allocation (17 nodes, 1 simulated day)", [
        ("atmosphere share of processor time", "dominant", f"{100*b['atmosphere']:.0f} %"),
        ("coupler share", "small", f"{100*b['coupler']:.0f} %"),
        ("ocean share (1 of 17 ranks)", "~1 node", f"{100*b['ocean']:.0f} %"),
        ("idle (load imbalance + waits)", "visible", f"{100*b['idle']:.0f} %"),
        ("atmosphere steps per day", "48",
         f"{sum(1 for s in traces.traces[0].segments if s.activity == 'atmosphere')}"),
        ("radiation step vs normal step", "much longer", f"{radiation_ratio:.1f}x"),
        ("throughput at 17 nodes", "2,000-4,000x", f"{result.speedup:,.0f}x"),
    ])
    assert b["atmosphere"] > 0.5
    assert radiation_ratio > 5.0
    assert 1500 < result.speedup < 5000
    # All 17 ranks traced; ocean rank mostly blue.
    assert traces.nranks == 17
    ocean_trace = traces.traces[16]
    assert ocean_trace.time_in("ocean") > 0
