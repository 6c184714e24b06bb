#!/usr/bin/env python
"""Section 5 workflow: Figure 2 time allocation and the scaling study.

Reproduces the paper's performance story on the calibrated SP2 machine
model:

* the Figure 2 Gantt chart (17-node run, one simulated day): green
  atmosphere bars, red coupler, blue ocean, purple idle — rendered here as
  A / C / O / . text art;
* the 'one ocean processor keeps up with 16 atmosphere processors but not
  32' observation;
* the coupled scaling curve with the paper's anchor points (~4,000x on 34
  nodes, ~6,000x on 68 with the decomposition knee);
* the stand-alone ocean throughput (>100,000x on 64 nodes);
* the NCAR-CSM/Cray-C90 comparison (about 3x) and the >10x
  cost-performance claim.

Run:  python examples/parallel_scaling.py
"""


from repro.perf.costmodel import atmosphere_ocean_cost_ratio
from repro.perf.csm import CSMCostModel, cost_performance_ratio
from repro.perf.eventsim import (
    scaling_curve,
    simulate_coupled_day,
    simulate_ocean_day,
)


def main() -> None:
    print("=== Figure 2: time allocation, 17-node run (16 atm + 1 ocn) ===")
    res17 = simulate_coupled_day(16, 1, seed=0)
    print(res17.traces.render_ascii(width=76))
    b = res17.traces.breakdown()
    print(f"\nbudget: atmosphere {100 * b['atmosphere']:.0f} %, "
          f"coupler {100 * b['coupler']:.0f} %, ocean {100 * b['ocean']:.0f} %, "
          f"idle {100 * b['idle']:.0f} %")
    print(f"17-node throughput: {res17.speedup:,.0f}x real time")

    print("\n=== one ocean rank vs the atmosphere (Figure 2 discussion) ===")
    for n_atm in (16, 32):
        r = simulate_coupled_day(n_atm, 1, seed=0, imbalance=0.0)
        idle = sum(t.time_in("idle") for t in r.traces.traces[:n_atm]) / n_atm
        verdict = "keeps up" if idle < 6.0 else "falls behind"
        print(f"  {n_atm:2d} atm ranks + 1 ocean: mean atm wait "
              f"{idle:5.1f} s/day -> ocean {verdict}")

    print("\n=== coupled scaling (experiments E5/E10) ===")
    nodes = [9, 17, 34, 68]
    curve = scaling_curve(nodes)
    base = None
    for n in nodes:
        s = curve[n]
        if base is None:
            base = (n, s)
        rel = s / base[1] / (n / base[0])
        print(f"  {n:3d} nodes: {s:8,.0f}x real time   "
              f"(parallel efficiency vs {base[0]}-node run: {100 * rel:.0f} %)")
    print("  paper anchors: ~4,000x at 34 nodes; ~6,000x best at 68 "
          "(poor 34->68 scaling from the decomposition limit)")

    print("\n=== stand-alone ocean (experiment E6) ===")
    for n in (1, 16, 64):
        print(f"  {n:3d} nodes: {simulate_ocean_day(n).speedup:10,.0f}x real time")
    print("  paper anchor: >105,000x on 64 SP2 nodes")

    print("\n=== component cost ratio (experiment E7) ===")
    print(f"  atmosphere / ocean ops per simulated day: "
          f"{atmosphere_ocean_cost_ratio():.1f}  (paper: ~16)")

    print("\n=== NCAR CSM baseline (experiment E8) ===")
    csm = CSMCostModel()
    foam_max = curve[68]
    csm_tp = csm.throughput(16)
    print(f"  CSM-like model, 16-node Cray C90: {csm_tp:,.0f}x real time")
    print(f"  FOAM max / CSM = {foam_max / csm_tp:.1f}  (paper: ~3)")
    print(f"  cost-performance advantage: "
          f"{cost_performance_ratio(foam_max, 68):.0f}x  (paper: >10x)")


if __name__ == "__main__":
    main()
