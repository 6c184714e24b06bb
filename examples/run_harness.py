#!/usr/bin/env python
"""Run harness tour: one plan, every execution mode, bitwise-resumable.

Declares a :class:`~repro.runs.RunPlan` (world + duration + output
cadences), runs it through the :class:`~repro.runs.RunHarness` with
streaming history and checkpoints, kills the run three steps in — inside a
forcing window and a radiation interval — resumes it from that checkpoint
on *concurrent* rank pools, and shows the final state is bitwise what the
uninterrupted serial run produces.  Finishes by
loading the streamed history files back as one time series.

Run:  python examples/run_harness.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core.history import load_history
from repro.runs import CheckpointSpec, HistorySpec, RunHarness, RunPlan


def main() -> None:
    workdir = Path(tempfile.mkdtemp(prefix="foam_harness_"))
    plan = RunPlan(
        scenario="control", days=1.0,
        history=HistorySpec(str(workdir / "history"), interval_days=0.25),
        checkpoint=CheckpointSpec(str(workdir / "ckpt"), interval_days=0.5))

    print("=== FOAM run harness tour ===")
    print(f"plan: scenario={plan.scenario} days={plan.days} "
          f"mode={plan.mode}")
    print(f"run key (cache identity, mode-independent): "
          f"{plan.run_key()[:16]}…")

    # --- the reference: one uninterrupted serial run ---------------------
    result = RunHarness(plan).run()
    print(f"\nserial run: {result.steps} steps in "
          f"{result.wall_seconds:.2f} s wall")
    print(f"  checkpoints: {[p.name for p in result.checkpoints]}")
    print(f"  history files: {[p.name for p in result.history_files]}")

    # --- the interrupted version: a checkpoint is the state, at any step -
    # 0.125 day is 3 steps at this size: neither a coupling boundary (6)
    # nor a radiation one (12).
    cut = RunHarness(RunPlan(scenario="control", days=0.125,
                             checkpoint=CheckpointSpec(
                                 str(workdir / "ckpt2"),
                                 interval_days=0.125))).run()
    ckpt = cut.checkpoints[-1]
    assert ckpt.name == "ckpt_00000003.npz"
    print(f"\ninterrupted at day 0.125 -> {ckpt.name}")

    # --- resume onto the concurrent rank pools ---------------------------
    resumed = RunHarness(RunPlan(
        scenario="control", days=1.0,
        mode="concurrent")).run(resume_from=ckpt)
    print(f"resumed on forked rank pools: "
          f"{resumed.steps} more steps "
          f"(hidden ocean fraction {resumed.hidden_fraction:.0%})")

    same = all(
        np.array_equal(a, b) for a, b in [
            (resumed.state.atm_curr.vort, result.state.atm_curr.vort),
            (resumed.state.ocean.temp, result.state.ocean.temp),
            (resumed.state.coupler.ice.thickness,
             result.state.coupler.ice.thickness),
        ])
    print(f"bitwise identical to the uninterrupted serial run: {same}")
    assert same

    # --- the streamed history reads back as one series -------------------
    series = load_history(result.history_files)
    sst = series["sst"]
    print(f"\nhistory: {sst.shape[0]} snapshots of {sorted(series)} "
          f"({sst.shape=})")
    for t, snap in zip(series["time"], sst):
        ocean = snap[snap != 0.0]
        print(f"  day {t / 86400.0:4.2f}: mean ocean SST "
              f"{ocean.mean():6.2f} C")
    print(f"\nartifacts kept in {workdir}")


if __name__ == "__main__":
    main()
