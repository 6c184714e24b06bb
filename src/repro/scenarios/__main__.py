"""Scenario CLI: list, describe, and run the registered worlds.

Usage::

    python -m repro.scenarios list [--json]
    python -m repro.scenarios describe NAME [--json]
    python -m repro.scenarios run NAME [--days D] [--size test|small|paper]
                                       [--ensemble N]
                                       [--atm-ranks N]
                                       [--checkpoint-dir DIR]
                                       [--checkpoint-days D]
                                       [--history-dir DIR] [--history-days D]
                                       [--resume CKPT] [--json]
    python -m repro.scenarios golden [--days D] [--out PATH] [NAME ...]

``run`` builds a declarative :class:`~repro.runs.RunPlan` and executes it
through the :class:`~repro.runs.RunHarness` — the same stepping loop and
the same climatology report whatever the mode: serial (default),
``--ensemble N`` (N perturbed members as one batch: one climatology per
member, spread reported), or ``--atm-ranks N`` (N atmosphere ranks, a
coupler rank and an ocean rank, each a forked process; reports the end
state).
``--checkpoint-dir`` streams bitwise-resumable checkpoints,
``--history-dir`` streams rolling history files, and ``--resume CKPT``
continues any prior run's checkpoint up to ``--days`` total — in any
mode, not just the one that wrote it.  An ensemble run reports
``ic_max_wind_ms``, the step-0 largest grid wind of each member (what
``--perturb`` amounts to at the run's truncation).  A run whose state goes
non-finite stops at the next coupling boundary and exits 1 with the
:class:`~repro.runs.NonFiniteStateError` message.  ``golden`` regenerates
the committed regression climatologies.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.core.config import NAMED_CONFIGS
from repro.runs import (
    CheckpointSpec,
    HistorySpec,
    NonFiniteStateError,
    RunHarness,
    RunPlan,
    plan_from_flags,
)
from repro.scenarios.climatology import (
    GOLDEN_DAYS,
    ClimatologyObserver,
    max_wind_ms,
    member_rows,
    scenario_climatology,
    state_metrics,
)
from repro.scenarios.registry import all_scenarios, get_scenario, scenario_names


# ----------------------------------------------------------------------
def cmd_list(args) -> int:
    scenarios = all_scenarios()
    if args.json:
        print(json.dumps(
            [{"name": s.name, "description": s.description,
              "tags": list(s.tags), "knobs": s.knobs}
             for s in scenarios], indent=2))
        return 0
    width = max(len(s.name) for s in scenarios)
    for s in scenarios:
        knobs = ", ".join(f"{k}={v}" for k, v in s.knobs.items())
        print(f"{s.name:<{width}}  {s.description}")
        if knobs:
            print(f"{'':<{width}}  knobs: {knobs}")
    return 0


def cmd_describe(args) -> int:
    s = get_scenario(args.name)
    cfg = s.config(args.size)
    info = {"name": s.name, "description": s.description,
            "tags": list(s.tags), "knobs": s.knobs,
            "config": cfg.to_dict()}
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    print(f"{s.name}: {s.description}")
    if s.tags:
        print(f"  tags: {', '.join(s.tags)}")
    for k, v in s.knobs.items():
        print(f"  {k} = {v}")
    print(f"  config ({args.size}): atm {cfg.atm_nlon}x{cfg.atm_nlat}"
          f"x{cfg.atm_nlev} R{cfg.atm_mmax}, "
          f"ocean {cfg.ocn_nx}x{cfg.ocn_ny}x{cfg.ocn_nlev} "
          f"({cfg.ocean_mode})")
    return 0


# ----------------------------------------------------------------------
def _plan_from_args(scenario, args) -> RunPlan:
    """Translate CLI flags into the declarative run plan."""
    try:
        return plan_from_flags(
            size=args.size, days=args.days, scenario=scenario.name,
            ensemble=args.ensemble, perturb=args.perturb,
            atm_ranks=args.atm_ranks,
            history=(HistorySpec(args.history_dir,
                                 interval_days=args.history_days)
                     if args.history_dir else None),
            checkpoint=(CheckpointSpec(args.checkpoint_dir,
                                       interval_days=args.checkpoint_days)
                        if args.checkpoint_dir else None))
    except ValueError as err:
        raise SystemExit(str(err)) from None


def cmd_run(args) -> int:
    scenario = get_scenario(args.name)
    plan = _plan_from_args(scenario, args)
    harness = RunHarness(plan)
    # A pool run surfaces the state at declared cadences and at the end
    # only: it reports the end state, not an every-step climatology.
    pooled = plan.mode == "concurrent"
    observers = () if pooled else (ClimatologyObserver(harness.model),)
    body: dict = {"mode": plan.mode}
    state = None
    if plan.mode == "ensemble" and not args.resume:
        # What the perturbation amplitude produced on the grid, per member.
        state = harness.initial_state()
        body["ic_max_wind_ms"] = [
            float(w) for w in max_wind_ms(harness.model, state)]
    result = harness.run(state=state, resume_from=args.resume,
                         observers=observers)

    body["run_key"] = result.run_key
    if pooled:
        body.update(world_size=harness.layout.world_size,
                    nsteps=result.steps,
                    wall_seconds=result.wall_seconds,
                    hidden_fraction=result.hidden_fraction,
                    final_state=member_rows(
                        state_metrics(harness.model, result.state))[0])
    else:
        # One row per member, each with the serial run's keys.
        members = member_rows(observers[0].metrics(result.state))
        if plan.mode == "serial":
            body["climatology"] = members[0]
        else:
            ts = [m["ts_global_k"] for m in members]
            body.update(nens=plan.nens, members=members,
                        ts_global_k_mean=sum(ts) / len(ts),
                        ts_spread_k=max(ts) - min(ts))
    if args.resume:
        body["resumed_from_step"] = result.start_step
    if result.checkpoints:
        body["checkpoints"] = [str(p) for p in result.checkpoints]
    if result.history_files:
        body["history_files"] = [str(p) for p in result.history_files]

    out = {"scenario": scenario.name, "days": args.days,
           "size": args.size, **body}
    if args.json:
        print(json.dumps(out, indent=2, sort_keys=True))
        return 0
    print(f"{scenario.name}: {args.days} simulated days "
          f"({args.size} resolution, {body['mode']})")
    if args.resume:
        print(f"  resumed from step        {result.start_step} "
              f"({result.steps} steps run)")
    table = body.get("climatology") or body.get("final_state") or {}
    for k in sorted(table):
        print(f"  {k:<24} {table[k]:.6g}")
    if body["mode"] == "ensemble":
        print(f"  members                  {body['nens']}")
        if "ic_max_wind_ms" in body:
            print(f"  ic_max_wind_ms           "
                  f"{max(body['ic_max_wind_ms']):.3g} (largest member)")
        print(f"  ts_global_k_mean         {body['ts_global_k_mean']:.6g}")
        print(f"  ts_spread_k              {body['ts_spread_k']:.3g}")
    if pooled:
        print(f"  wall_seconds             {body['wall_seconds']:.3g}")
        print(f"  hidden_fraction          {body['hidden_fraction']:.3g}")
    if result.checkpoints:
        print(f"  checkpoints              {len(result.checkpoints)} "
              f"(last: {result.checkpoints[-1]})")
    if result.history_files:
        print(f"  history files            {len(result.history_files)}")
    return 0


def cmd_golden(args) -> int:
    names = args.names or scenario_names()
    out = {"_meta": {"days": args.days, "size": "test",
                     "command": "python -m repro.scenarios golden"},
           "scenarios": {}}
    for name in names:
        model, state = get_scenario(name).build("test")
        _, clim = scenario_climatology(model, state, days=args.days)
        out["scenarios"][name] = clim
        print(f"{name}: ts={clim['ts_global_k']:.3f} K  "
              f"ice={clim['ice_fraction']:.3f}  "
              f"precip={clim['precip_mm_day']:.3f} mm/day", file=sys.stderr)
    text = json.dumps(out, indent=2, sort_keys=True) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="python -m repro.scenarios",
        description="FOAM scenario world-builder: list, describe, run.")
    sub = p.add_subparsers(dest="command", required=True)

    lp = sub.add_parser("list", help="list registered scenarios")
    lp.add_argument("--json", action="store_true")
    lp.set_defaults(func=cmd_list)

    dp = sub.add_parser("describe", help="show one scenario's knobs/config")
    dp.add_argument("name")
    dp.add_argument("--size", default="test",
                    choices=tuple(NAMED_CONFIGS))
    dp.add_argument("--json", action="store_true")
    dp.set_defaults(func=cmd_describe)

    rp = sub.add_parser("run", help="integrate a scenario and summarize")
    rp.add_argument("name")
    rp.add_argument("--days", type=float, default=1.0)
    rp.add_argument("--size", default="test",
                    choices=tuple(NAMED_CONFIGS))
    rp.add_argument("--ensemble", type=int, default=0, metavar="N",
                    help="run N perturbed members as one batch")
    rp.add_argument("--perturb", type=float, default=1e-8,
                    help="ensemble IC vorticity noise amplitude "
                         "(matches the model's own 1e-8 IC noise; much "
                         "larger values destabilize polar land caps)")
    rp.add_argument("--atm-ranks", type=int, default=None, metavar="N",
                    help="run concurrently on forked rank pools with N "
                         "atmosphere ranks (adds a coupler rank and an "
                         "ocean rank)")
    rp.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                    help="stream bitwise-resumable checkpoints here")
    rp.add_argument("--checkpoint-days", type=float, default=0.5,
                    help="checkpoint cadence in simulated days")
    rp.add_argument("--history-dir", default=None, metavar="DIR",
                    help="stream rolling history files here")
    rp.add_argument("--history-days", type=float, default=0.25,
                    help="history sampling cadence in simulated days")
    rp.add_argument("--resume", default=None, metavar="CKPT",
                    help="resume from a checkpoint file; --days is the "
                         "run's total duration from time zero")
    rp.add_argument("--json", action="store_true")
    rp.set_defaults(func=cmd_run)

    gp = sub.add_parser("golden",
                        help="regenerate the regression climatologies")
    gp.add_argument("names", nargs="*", metavar="NAME")
    gp.add_argument("--days", type=float, default=GOLDEN_DAYS)
    gp.add_argument("--out", default="tests/data/scenario_climatology.json")
    gp.set_defaults(func=cmd_golden)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NonFiniteStateError as err:
        print(f"NonFiniteStateError: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
