"""E5: coupled throughput vs node count — 4,000x at 34, ~6,000x at 68.

Paper section 5: "our best performance has been approximately 6,000 times
real time in a run on 68 nodes ... this is a poor scaling from our
production runs ... We typically achieve peak performance faster than 4,000
times real time on 34 nodes."  The bench regenerates the curve on the
calibrated SP2 model and checks the two anchors and the knee.
"""

from conftest import report
from repro.perf.eventsim import scaling_curve


def test_coupled_speedup_curve(benchmark):
    nodes = [9, 17, 34, 68]
    curve = benchmark(scaling_curve, nodes)

    report("E5: coupled model speedup vs nodes", [
        ("9 nodes (8 atm + 1 ocn)", "-", f"{curve[9]:,.0f}x"),
        ("17 nodes (16 atm + 1 ocn)", "~2,000-3,000x (production)",
         f"{curve[17]:,.0f}x"),
        ("34 nodes (32 atm + 2 ocn)", ">4,000x", f"{curve[34]:,.0f}x"),
        ("68 nodes", "~6,000x (best)", f"{curve[68]:,.0f}x"),
        ("34 -> 68 scaling factor", "poor (<<2)",
         f"{curve[68] / curve[34]:.2f}"),
    ])
    assert curve[34] > 4000.0
    assert 5000.0 < curve[68] < 8000.0
    assert curve[68] / curve[34] < 1.6          # the decomposition knee
    assert curve[17] / curve[9] > 1.6           # near-linear low end
