"""Measured time-allocation report: the wall-clock analogue of Figure 2.

``python -m repro.perf.report`` runs a short coupled integration through
the run harness with the profiler enabled, prints the per-span table, and
shows the event-simulator calibration derived from it
(:func:`repro.perf.costmodel.calibrate_from_profile`) — closing the loop
between the real Python components and the modeled 1997 machine::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python -m repro.perf.report --days 0.5
    PYTHONPATH=src python -m repro.perf.report --json profile.json
    PYTHONPATH=src python -m repro.perf.report --load profile.json
    PYTHONPATH=src python -m repro.perf.report --atm-ranks 2

The flags mean what they mean to ``python -m repro.scenarios run``
(:func:`repro.runs.plan_from_flags`): ``--ensemble N`` profiles a batched
run, ``--atm-ranks`` a rank-pool run whose table sums the spans of every
rank process and is followed by the blocking-wait summary.

This module imports :mod:`repro.runs` (the whole coupled model), so it is
*not* re-exported from ``repro.perf`` — the instrumented component modules
import ``repro.perf.profiler`` and must not be pulled in circularly.
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.atmosphere.spectral import legendre_plan_stats
from repro.backend import workspace_totals
from repro.core.config import NAMED_CONFIGS
from repro.perf.costmodel import calibrate_from_profile
from repro.perf.profiler import (
    RunProfile,
    disable_profiling,
    enable_profiling,
    take_profile,
)
from repro.runs import RunHarness, RunPlan, RunResult, plan_from_flags


def format_blas_threads(profile: RunProfile) -> str:
    """The header line: what set this run's BLAS thread count.  The shell
    decides it here; ``benchmarks/e2e`` pins all three to 1 (unpinned, thread
    sync on 18 x 18 matmuls inflates ``atmosphere.implicit`` fivefold)."""
    env = profile.meta.get("blas_threads")
    if env is None:
        return "BLAS threads: not recorded in this profile"
    seen = " ".join(f"{var}={value or 'unset'}" for var, value in env)
    return f"BLAS threads: {seen}; the ledger runs with 1"


def format_kernel_caches(profile: RunProfile) -> str:
    """Render the kernel-cache health block from profile metadata."""
    stats = profile.meta.get("kernel_caches")
    if not stats:
        return "kernel caches: not recorded in this profile"
    plan, ws = stats["legendre_plan"], stats["workspace"]
    requests = ws["hits"] + ws["misses"]
    lines = [
        "kernel caches:",
        f"  legendre plans   {plan['builds']} built, {plan['hits']} cache hits",
        f"  workspace        {ws['hits']} hits / {ws['misses']} misses "
        f"({ws['hits'] / max(requests, 1):.1%} hit rate), "
        f"{ws['buffers']} buffers, {ws['nbytes'] / 1e6:.1f} MB resident",
    ]
    exchange = profile.meta.get("exchange_plans")
    if exchange:        # in-process coupler only; a pool run records none
        lines.append(f"  exchange plans   {exchange['built']} built / "
                     f"{exchange['requests']} requests")
    return "\n".join(lines)


def profile_run(plan: RunPlan) -> tuple[RunProfile, RunResult]:
    """Execute ``plan`` through :class:`RunHarness` with profiling on.

    The profiling window is ``harness.run`` alone: model construction and
    the initial state are built before it opens (in a pool run each rank
    resets its recorder after its own construction), so only stepping is
    measured.  Returns the profile — for a pool run the sum over rank
    processes — and the harness result (its ``concurrent`` segments carry
    the waits).  The metadata records what ran, including the dtype
    :func:`calibrate_from_profile` sizes communication volumes with, and
    the kernel-cache counters (the rank arenas' on a pool run; the
    coupler's exchange-plan counter where the coupler ran in this process).
    """
    harness = RunHarness(plan)
    state = harness.initial_state()
    enable_profiling().reset()
    try:
        result = harness.run(state=state)
    finally:
        disable_profiling()
    cfg = harness.config
    workspace = workspace_totals()
    if result.concurrent:       # the parent's arena is idle: sum the ranks'
        workspace = {key: sum(ws[key] for seg in result.concurrent
                              for ws in seg.ws_stats) for key in workspace}
    coupler = harness.model.coupler         # idle when ranks did the run
    exchange = None if result.concurrent else {
        "built": coupler.plans_built, "requests": coupler.plan_requests}
    shape = {"serial": "", "ensemble": f", nens={plan.nens}",
             "concurrent": f", {plan.n_atm} atm + 1 cpl + 1 ocn ranks"}
    return take_profile(
        label=f"{plan.mode} run{shape[plan.mode]}, {result.steps} steps "
              f"({plan.days:g} days)",
        meta={"mode": plan.mode, "nens": plan.nens, "days": plan.days,
              "nsteps": result.steps, "atm_dt": cfg.atm_dt, "seed": cfg.seed,
              "atm_grid": [cfg.atm_nlat, cfg.atm_nlon, cfg.atm_nlev],
              "ocn_grid": [cfg.ocn_ny, cfg.ocn_nx, cfg.ocn_nlev],
              "dtype": cfg.dtype_policy.name,
              # recorded, never acted on: (name, value or None) pairs
              "blas_threads": [
                  ("OPENBLAS_NUM_THREADS", os.environ.get("OPENBLAS_NUM_THREADS")),
                  ("OMP_NUM_THREADS", os.environ.get("OMP_NUM_THREADS")),
                  ("MKL_NUM_THREADS", os.environ.get("MKL_NUM_THREADS"))],
              "exchange_plans": exchange,
              "kernel_caches": {"legendre_plan": legendre_plan_stats(),
                                "workspace": workspace}}), result


def format_waits(result) -> str:
    """Render a concurrent run's blocking-recv wait accounting."""
    lines = [f"blocking waits over {result.wall_seconds:.3f} s wall "
             f"({result.nsteps} steps, "
             f"{result.layout.world_size} rank processes):"]
    for kind in sorted(result.waits):
        lines.append(f"  {kind:12s} {result.waits[kind]:10.3f} s")
    lines.append(f"  ocean busy  {result.ocean_busy_seconds:10.3f} s "
                 f"({result.hidden_fraction:.0%} hidden under the "
                 "atmosphere/coupler overlap)")
    return "\n".join(lines)


def format_calibration(profile: RunProfile) -> str:
    """Render the event-simulator costs calibrated from ``profile``."""
    try:
        mc = calibrate_from_profile(profile)
    except ValueError as err:
        return f"calibration unavailable: {err}"
    lines = [
        "calibrated event-simulator costs (summed-rank seconds):",
        f"  ordinary atmosphere step  {mc.step_seconds:12.6f}",
        f"  radiation atmosphere step {mc.radiation_step_seconds:12.6f}"
        f"  ({mc.radiation_step_seconds / mc.step_seconds:.2f}x ordinary)",
        f"  coupler per step          {mc.coupler_seconds:12.6f}"
        f"  (exposed {mc.coupler_exposed_seconds:.6f})",
        f"  dynamics overlap window   {mc.dynamics_seconds:12.6f}",
        f"  ocean call                {mc.ocean_call_seconds:12.6f}",
    ]
    if mc.transpose_seconds > 0.0:
        lines.append(f"  transpose per step        {mc.transpose_seconds:12.6f}")
    else:
        lines.append("  transpose: not exercised; simulator falls back to "
                     "the byte-volume model")
    lines.append("feed these into simulate_coupled_day(..., measured=...) "
                 "or predict_concurrent_speedup(...).")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.perf.report",
        description="Measured per-section time allocation of a coupled run "
                    "(the wall-clock analogue of the paper's Figure 2).")
    parser.add_argument("--days", type=float, default=1.0,
                        help="simulated days to integrate (default: 1)")
    parser.add_argument("--config", default="test",
                        choices=tuple(NAMED_CONFIGS),
                        help="model resolution (default: test)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's RNG seed")
    parser.add_argument("--dtype", default=None,
                        choices=("float64", "float32"),
                        help="array precision (default: FOAM_DTYPE or float64)")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the RunProfile as JSON to PATH")
    parser.add_argument("--load", metavar="PATH", default=None,
                        help="render a previously saved profile instead of "
                             "running the model")
    parser.add_argument("--min-fraction", type=float, default=0.0,
                        help="hide sections below this share of total time")
    parser.add_argument("--atm-ranks", type=int, default=None, metavar="N",
                        help="run concurrently with N atmosphere-pool ranks "
                             "(adds a coupler rank and an ocean rank)")
    parser.add_argument("--ensemble", type=int, default=None, metavar="N",
                        help="profile a batched N-member ensemble run "
                             "(section times are for the whole batch)")
    args = parser.parse_args(argv)

    segments = []
    if args.load is not None:
        profile = RunProfile.load(args.load)
    else:
        try:
            plan = plan_from_flags(
                size=args.config, days=args.days, seed=args.seed,
                dtype=args.dtype, ensemble=args.ensemble,
                atm_ranks=args.atm_ranks)
        except ValueError as err:
            parser.error(str(err))
        profile, result = profile_run(plan)
        segments = result.concurrent

    print(format_blas_threads(profile))
    print(profile.format_table(min_fraction=args.min_fraction))
    print()
    for segment in segments:
        print(format_waits(segment))
        print()
    print(format_calibration(profile))
    print()
    print(format_kernel_caches(profile))

    if args.json is not None:
        profile.save(args.json)
        print(f"\nprofile written to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
