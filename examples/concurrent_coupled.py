#!/usr/bin/env python
"""Concurrent coupled execution on disjoint rank pools (ISSUE 5 demo).

Runs the same coupled trajectory twice — serially and split across an
atmosphere pool, a dedicated coupler rank, and an ocean rank, each a forked
rank process — verifies the float64 trajectories are bitwise
identical, and prints the overlap/wait accounting plus the calibrated
event-simulator prediction of the pool-split speedup.

Run:  python examples/concurrent_coupled.py --atm-ranks 2 --days 1
"""

import argparse
import time

import numpy as np

from repro.core.config import test_config
from repro.core.foam import FoamModel
from repro.parallel.coupled import PoolLayout, run_concurrent_coupled
from repro.perf.costmodel import (
    AtmosphereCost,
    OceanCost,
    calibrate_from_profile,
)
from repro.perf.eventsim import predict_concurrent_speedup
from repro.perf.profiler import disable_profiling, enable_profiling, take_profile
from repro.perf.report import format_waits
from repro.runs.plan import days_to_steps


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--atm-ranks", type=int, default=2,
                        help="atmosphere-pool ranks (default: 2)")
    parser.add_argument("--days", type=float, default=1.0,
                        help="simulated days (default: 1)")
    args = parser.parse_args()

    cfg = test_config()
    layout = PoolLayout(n_atm=args.atm_ranks)
    nsteps = days_to_steps(args.days, cfg)
    print(f"pool layout: atm ranks {list(layout.atm_ranks)}, coupler rank "
          f"{layout.cpl_rank}, ocean rank {layout.ocn_rank}  "
          f"({nsteps} steps)")

    # Serial reference, profiled.
    model = FoamModel(cfg)
    state = model.initial_state()
    enable_profiling().reset()
    t0 = time.perf_counter()
    for _ in range(nsteps):
        state = model.coupled_step(state)
    serial_wall = time.perf_counter() - t0
    disable_profiling()
    serial_profile = take_profile(label="serial",
                                  meta={"dtype": cfg.dtype_policy.name})

    # Concurrent pool-split run, profiled the same way: the spans every
    # rank process records come home into this process's profiler.
    enable_profiling().reset()
    res = run_concurrent_coupled(model, model.initial_state(), nsteps, layout)
    disable_profiling()
    conc_profile = take_profile(label="concurrent",
                                meta={"dtype": cfg.dtype_policy.name})

    bitwise = (
        np.array_equal(res.state.atm_curr.vort, state.atm_curr.vort)
        and np.array_equal(res.state.atm_curr.q, state.atm_curr.q)
        and np.array_equal(res.state.ocean.temp, state.ocean.temp)
        and np.array_equal(res.sst, model.ocean.sst(state.ocean),
                           equal_nan=True))
    print(f"\nserial wall      {serial_wall:8.3f} s")
    print(f"concurrent wall  {res.wall_seconds:8.3f} s   "
          f"(functional speedup {serial_wall / res.wall_seconds:.3f}x)")
    print(f"trajectory bitwise identical: {bitwise}")
    print()
    print(format_waits(res))

    serial_costs = calibrate_from_profile(serial_profile)
    conc_costs = calibrate_from_profile(conc_profile)
    atm = AtmosphereCost(nlat=cfg.atm_nlat, nlon=cfg.atm_nlon,
                         nlev=cfg.atm_nlev, mmax=cfg.atm_mmax, dt=cfg.atm_dt)
    ocn = OceanCost(nx=cfg.ocn_nx, ny=cfg.ocn_ny, nlev=cfg.ocn_nlev,
                    dt_long=cfg.ocean_coupling_interval)
    pred = predict_concurrent_speedup(serial_costs, conc_costs, layout.n_atm,
                                      atm=atm, ocn=ocn)
    print(f"\nevent-simulator prediction: speedup {pred['speedup']:.3f}x "
          f"(functional {serial_wall / res.wall_seconds:.3f}x)")
    if not bitwise:
        raise SystemExit("trajectory mismatch")


if __name__ == "__main__":
    main()
