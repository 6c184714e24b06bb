"""E8: FOAM vs NCAR CSM — 3x throughput, >10x cost-performance.

Paper section 5: "The performance of FOAM can be compared directly to the
NCAR CSM coupled model which accomplishes only a third of FOAM's maximum
throughput using 16 nodes of a Cray C90" and "the cost per unit of
performance of FOAM is already more than ten times better than that of
other current models of the same phenomena."
"""

from conftest import report
from repro.perf.csm import CSMCostModel, cost_performance_ratio, foam_cost_musd
from repro.perf.eventsim import scaling_curve


def test_csm_comparison(benchmark):
    def compare():
        foam_max = scaling_curve([68])[68]
        csm = CSMCostModel()
        return foam_max, csm.throughput(16), csm

    foam_max, csm_tp, csm = benchmark(compare)
    ratio = foam_max / csm_tp
    cp = cost_performance_ratio(foam_max, 68, csm)

    report("E8: FOAM vs NCAR CSM (16-node Cray C90)", [
        ("FOAM max throughput (68 SP2 nodes)", "~6,000x", f"{foam_max:,.0f}x"),
        ("CSM throughput (16 C90 nodes)", "~1/3 of FOAM", f"{csm_tp:,.0f}x"),
        ("throughput ratio", "~3x", f"{ratio:.1f}x"),
        ("FOAM hardware cost", "-", f"${foam_cost_musd(68):.1f}M"),
        ("C90 hardware cost", "-", f"${csm.machine_cost_musd(16):.0f}M"),
        ("cost-performance advantage", ">10x", f"{cp:.0f}x"),
    ])
    assert 2.0 < ratio < 4.5
    assert cp > 10.0
