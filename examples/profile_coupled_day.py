#!/usr/bin/env python
"""Profile a coupled run and replay it on the modeled 1997 machine.

Walkthrough of the runtime profiling layer (``repro.perf.profiler``):

1. run the coupled model with profiling enabled (enable → run →
   ``take_profile()``) and capture a per-span
   :class:`~repro.perf.profiler.RunProfile`;
2. print the measured time-allocation table — the wall-clock analogue
   of the paper's Figure 2;
3. calibrate the discrete-event simulator from the measured section
   costs (:func:`~repro.perf.costmodel.calibrate_from_profile`) and
   replay one simulated day on 16 modeled atmosphere ranks.

Run:  PYTHONPATH=src python examples/profile_coupled_day.py
"""

from dataclasses import replace

from repro.core.config import test_config
from repro.core.foam import FoamModel
from repro.perf import disable_profiling, enable_profiling, take_profile
from repro.perf.costmodel import (
    AtmosphereCost,
    OceanCost,
    analytic_costs,
    calibrate_from_profile,
)
from repro.perf.eventsim import simulate_coupled_day
from repro.perf.report import format_calibration


def main() -> None:
    print("=== FOAM profiled coupled run ===")

    # Step 1: a profiled quarter-day at the test resolution (6 coupled
    # steps — includes the step-0 radiation pass and one ocean call).
    # Construction and the initial state stay outside the window.
    model = FoamModel(test_config())
    state = model.initial_state()
    enable_profiling().reset()
    model.run_days(state, 0.25)
    disable_profiling()
    profile = take_profile(label="coupled test run, 0.25 days",
                           meta={"dtype": model.policy.name})
    print(f"captured: {profile.label}\n")

    # Step 2: the measured Figure-2-style table, grouped by layer.  Self
    # time is a span's own work, inclusive time counts the spans inside;
    # the names are the ledger's (benchmarks/e2e --trace 1).
    print(profile.format_table(min_fraction=0.005))
    print()
    print(format_calibration(profile))

    # Step 3: drive the event simulator from the measured costs instead
    # of the analytic 1997 machine model.  The serial run transposed
    # nothing; on 16 ranks the modeled machine charges the alltoall, at the
    # profiled run's element size.
    mc = calibrate_from_profile(profile)
    modeled = analytic_costs(16, 1, AtmosphereCost(item_bytes=mc.item_bytes),
                             OceanCost())
    sim = simulate_coupled_day(
        16, 1, replace(mc, transpose_seconds=modeled.transpose_seconds), seed=0)
    print(f"\nreplayed on 16+1 modeled ranks: "
          f"wall {sim.wall_seconds:.3f} s for one simulated day "
          f"({sim.speedup:,.0f}x real time)")
    busy = sim.traces.breakdown()
    total = sum(busy.values())
    for activity, seconds in sorted(busy.items(), key=lambda kv: -kv[1]):
        print(f"  {activity:12s} {100 * seconds / total:5.1f}% of rank-time")

    # Profiles serialise to JSON for archiving / diffing across commits:
    #   profile.save("profile.json"); RunProfile.load("profile.json")
    # or from the command line:
    #   PYTHONPATH=src python -m repro.perf.report --days 0.5 --json out.json


if __name__ == "__main__":
    main()
