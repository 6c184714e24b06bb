#!/usr/bin/env python
"""Figure 3 workflow: model SST climatology vs (synthetic) observations.

Runs the coupled model long enough to accumulate an SST climatology, then
compares it against the synthetic observed climatology (the stand-in for
the Shea-Trenberth-Reynolds atlas of the paper's Figure 3(b)) and prints
the three-panel summary: model field, observed field, and the difference,
each reduced to zonal means plus the error statistics.

The paper's qualitative findings to look for in the output:
* the broad SST structure (warm tropics, cold poles) is captured;
* western-boundary-current gradients are smeared at coarse resolution;
* the largest errors sit in the Antarctic (the crude sea-ice scheme).

Run:  python examples/sst_climatology.py [--days N]
"""

import argparse
import tempfile
import time

import numpy as np

from repro.analysis import sst_error_statistics, synthetic_sst_climatology
from repro.core import FoamModel, HistoryWriter, load_history, test_config
from repro.runs import HistoryObserver


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--days", type=float, default=20.0,
                        help="simulated days to average over")
    args = parser.parse_args()

    model = FoamModel(test_config())
    state = model.initial_state()

    print(f"running {args.days:.0f} simulated days ...")
    t0 = time.time()
    with tempfile.TemporaryDirectory() as tmp:
        daily = HistoryObserver(HistoryWriter(tmp), fields=("sst",),
                                interval_steps=round(86400.0 / model.config.atm_dt))
        state = model.run_days(state, args.days, observers=(daily,))
        model_sst = load_history(daily.writer.files_written)["sst"].mean(axis=0)
    print(f"done in {time.time() - t0:.1f} s wall")

    g = model.ocean_grid
    obs_sst = synthetic_sst_climatology(g.lats, g.lons)
    mask = model.ocean.mask2d
    weights = g.cell_areas()

    stats = sst_error_statistics(model_sst, obs_sst, weights, mask)
    print("\n=== Figure 3 reproduction: SST climatology ===")
    print(f"bias:                {stats['bias']:+.2f} C")
    print(f"rmse:                {stats['rmse']:.2f} C")
    print(f"pattern correlation: {stats['pattern_correlation']:.3f}")

    lats = np.degrees(g.lats)
    zonal_m = np.nanmean(np.where(mask, model_sst, np.nan), axis=1)
    zonal_o = np.nanmean(np.where(mask, obs_sst, np.nan), axis=1)
    print("\n  lat     model    obs     diff   (zonal means, C)")
    for j in range(0, len(lats), max(1, len(lats) // 12)):
        if np.isfinite(zonal_m[j]):
            print(f"  {lats[j]:+6.1f}  {zonal_m[j]:6.2f}  {zonal_o[j]:6.2f}  "
                  f"{zonal_m[j] - zonal_o[j]:+6.2f}")

    # The Antarctic-error finding of the paper, quantified.
    south = lats < -50
    rest = ~south
    err = np.where(mask, np.abs(model_sst - obs_sst), np.nan)
    print(f"\nmean |error| south of 50S: {np.nanmean(err[south]):.2f} C")
    print(f"mean |error| elsewhere:    {np.nanmean(err[rest]):.2f} C")
    print("(the paper attributes the Antarctic excess to the crude sea ice)")


if __name__ == "__main__":
    main()
