#!/usr/bin/env python
"""Quickstart: run the coupled FOAM model for a few simulated days.

Builds the full coupled system (spectral atmosphere + fast ocean + overlap
coupler) at a small resolution, integrates five simulated days, and prints
the diagnostics a climate modeler looks at first: global-mean surface
pressure (mass conservation), SST statistics, precipitation, and the water
inventory of the closed hydrological cycle.

Run:  python examples/quickstart.py [--dtype float32] [--days N]
"""

import argparse
import tempfile
import time

import numpy as np

from repro.core import FoamModel, HistoryWriter, load_history, test_config
from repro.runs import HistoryObserver


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dtype", default=None,
                        choices=("float64", "float32"),
                        help="array precision (default: FOAM_DTYPE or float64)")
    parser.add_argument("--days", type=float, default=5.0,
                        help="simulated days to integrate")
    args = parser.parse_args()

    print("=== FOAM quickstart ===")
    cfg = test_config()
    cfg.dtype = args.dtype
    print(f"precision:  {cfg.dtype_policy.name}")
    print(f"atmosphere: R{cfg.atm_mmax} spectral, {cfg.atm_nlon}x{cfg.atm_nlat}"
          f"x{cfg.atm_nlev}, dt = {cfg.atm_dt:.0f} s")
    print(f"ocean:      {cfg.ocn_nx}x{cfg.ocn_ny}x{cfg.ocn_nlev} Mercator, "
          f"called every {cfg.ocean_coupling_interval / 3600:.0f} h")

    model = FoamModel(cfg)
    state = model.initial_state()

    # Watching a run = an observer reading the state: daily SST snapshots
    # stream to history files, read back below.
    days = args.days
    wall0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        history = HistoryObserver(HistoryWriter(tmp), fields=("sst",),
                                  interval_steps=round(86400.0 / cfg.atm_dt))
        state = model.run_days(state, days, observers=(history,))
        sst_daily = load_history(history.writer.files_written)["sst"]
    wall = time.time() - wall0

    sim_seconds = days * 86400.0
    print(f"\nintegrated {days:g} simulated days in {wall:.1f} s wall "
          f"(model speedup ~{sim_seconds / wall:,.0f}x real time)")

    d = model.dycore.diagnose(state.atm_curr)
    sst = model.ocean.sst(state.ocean)
    print(f"\nglobal-mean surface pressure: {model.dycore.global_mass(state.atm_curr):,.0f} Pa")
    print(f"atmosphere T range:           {d.temp.min():.1f} .. {d.temp.max():.1f} K")
    print(f"max wind speed:               {np.abs(d.u).max():.1f} m/s")
    print(f"SST range:                    {np.nanmin(sst):.2f} .. {np.nanmax(sst):.2f} C")
    print(f"sea-ice cells:                {int(state.coupler.ice.mask.sum())}")

    inv = model.global_water_inventory(state)
    print("\nwater inventory (kg):")
    for name, kg in inv.items():
        print(f"  {name:12s} {kg:.3e}")

    mean_sst = sst_daily.mean(axis=0)
    print(f"\n{len(sst_daily)}-sample mean SST (zonal means, S->N):")
    zonal = np.nanmean(np.where(model.ocean.mask2d, mean_sst, np.nan), axis=1)
    lats = np.degrees(model.ocean_grid.lats)
    for j in range(0, len(lats), max(1, len(lats) // 8)):
        print(f"  lat {lats[j]:+6.1f}: {zonal[j]:6.2f} C")


if __name__ == "__main__":
    main()
