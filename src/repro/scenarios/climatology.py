"""Reduce a scenario run to a compact, regression-checkable climatology.

``scenario_climatology`` integrates a built world for a few simulated days
and boils the trajectory down to a handful of scalar diagnostics — global
surface temperature, ocean SST, a precipitation proxy, ice cover, ocean
kinetic energy, and mass/heat drift measures.  These are the numbers the
per-scenario CI regression matrix pins against the committed goldens in
``tests/data/scenario_climatology.json``: one drifting world shows up as
one named red job, not a buried tier-1 failure.

Tolerances are physically motivated (what a climate scientist would call
"the same short run"), wide enough to absorb BLAS/platform noise and
narrow enough to catch a real numerics change.
"""

from __future__ import annotations

import numpy as np

from repro.core.foam import FoamModel, FoamState
from repro.ocean.model import member_sum
from repro.runs.observers import StepObserver

#: Days every golden climatology is integrated for (test-size grids).
#: Four days: long enough for the doubled-CO2 column-temperature signal to
#: clear platform noise by orders of magnitude, short enough that weather
#: chaos has not yet swamped the forced surface-temperature ordering.
GOLDEN_DAYS = 4.0

#: Per-metric golden tolerances: (absolute, relative).  A comparison
#: passes when |got - want| <= abs_tol + rel_tol * |want|.
TOLERANCES: dict[str, tuple[float, float]] = {
    "ts_global_k": (0.5, 0.0),
    "t_atm_k": (0.5, 0.0),
    "sst_ocean_c": (0.25, 0.0),
    "precip_mm_day": (0.05, 0.15),
    "evap_mm_day": (0.2, 0.1),
    "ice_fraction": (0.05, 0.0),
    "ocean_ke_j": (1.0, 0.25),
    "mass_drift_rel": (1e-5, 0.0),
    "ocean_heat_uptake_wm2": (10.0, 0.0),
}


def _area_weights(model: FoamModel) -> np.ndarray:
    a = model.coupler.atm_cell_areas
    return a / a.sum()


def _ocean_areas(model: FoamModel) -> np.ndarray:
    return np.where(model.ocean.mask2d, model.ocean.grid.cell_areas(), 0.0)


def state_metrics(model: FoamModel, state: FoamState) -> dict:
    """Instantaneous diagnostics of one coupled state, each reduced over
    levels and the horizontal: what is left is the member axis (a scalar for
    a serial state, ``(nens,)`` for a batched one, equal member by member).

    One diagnose/synthesis pass over the whole (level[, member]) stack, so
    a batched state costs one batched diagnose — not nens serial ones plus
    a deep copy of every field.
    """
    w = _area_weights(model)
    sst = model.ocean.sst(state.ocean)
    t_sfc = model.coupler.surface_temperature(state.coupler, sst)
    oa = _ocean_areas(model)
    oa_total = oa.sum()
    diag = model.dycore.diagnose(state.atm_curr)
    hax = (-2, -1)
    # Mass-weighted global-mean air temperature: the fast-responding
    # greenhouse metric (CO2 cuts OLR immediately; the heat shows up in
    # the column long before the ocean skin moves).
    dsig = model.dycore.vg.dsigma.reshape((-1,) + (1,) * diag.ps.ndim)
    wdp = dsig * diag.ps[None] * w
    return {
        "ts_global_k": np.sum(t_sfc * w, axis=hax),
        "t_atm_k": member_sum(diag.temp * wdp) / member_sum(wdp),
        "sst_ocean_c": np.sum(np.nan_to_num(sst) * oa, axis=hax) / oa_total,
        "ice_fraction": np.sum(np.where(state.coupler.ice.mask, oa, 0.0),
                               axis=hax) / oa_total,
        "ocean_ke_j": model.ocean.total_kinetic_energy(state.ocean),
        "mean_ps_pa": model.transform.global_mean(diag.ps),
        # The last step's global-mean rain and evaporation
        # (mm/day == kg m^-2 day^-1).
        "precip_mm_day": np.sum(state.coupler.precip * w, axis=hax) * 86400.0,
        "evap_mm_day": np.sum(state.coupler.evap * w, axis=hax) * 86400.0,
        "ocean_heat_j": model.ocean.heat_content(state.ocean),
    }


def max_wind_ms(model: FoamModel, state: FoamState) -> np.ndarray:
    """Largest grid wind speed (m/s) of the current atmosphere over every
    level and cell: ``(nens,)`` for a batched state, 0-d for a serial one.

    At step 0 of an ensemble this is what ``ic_perturbation`` means on the
    grid: the noise is white over the spectral coefficients, so its grid
    effect depends on the truncation.
    """
    diag = model.dycore.diagnose(state.atm_curr)
    speed = np.moveaxis(np.hypot(diag.u, diag.v), 0, -3)
    return np.max(speed.reshape(speed.shape[:-3] + (-1,)), axis=-1)


def member_rows(metrics: dict) -> list[dict]:
    """Per-member metrics as one dict of floats per member (one row for a
    serial state)."""
    columns = {k: np.atleast_1d(v) for k, v in metrics.items()}
    return [{k: float(col[e]) for k, col in columns.items()}
            for e in range(len(columns["ts_global_k"]))]


class ClimatologyObserver(StepObserver):
    """Accumulates the regression climatology as a run-harness observer.

    Reduces the trajectory with :func:`state_metrics` after every coupled
    step — the state carries the step's rain and evaporation — so one
    observer serves serial and batched runs (every figure is per member),
    and the committed goldens.  Attach it to any in-process harness run and
    call :meth:`metrics` afterwards.
    """

    #: Averaged over every step.  Precip is the real thing; evaporation is
    #: the active spin-up proxy for hydrological-cycle intensity (the default
    #: dry-start atmosphere takes weeks to first saturate, so precip pins at
    #: 0 early on).
    MEANS = ("ts_global_k", "t_atm_k", "sst_ocean_c", "ice_fraction",
             "precip_mm_day", "evap_mm_day")

    def __init__(self, model: FoamModel):
        self.model = model
        self.sums = dict.fromkeys(self.MEANS, 0.0)
        self.nsteps = 0
        self._start = None

    def on_start(self, model, state) -> None:
        self._start = state_metrics(self.model, state)

    def on_step(self, model, state) -> None:
        inst = state_metrics(self.model, state)
        for k in self.sums:
            self.sums[k] = self.sums[k] + inst[k]
        self.nsteps += 1

    def metrics(self, state: FoamState) -> dict:
        """The climatology dict for the trajectory observed so far: a float
        per metric for a serial run, a list (one per member) for a batched
        one."""
        if self.nsteps == 0 or self._start is None:
            raise RuntimeError("no steps observed yet")
        model, start = self.model, self._start
        end = state_metrics(model, state)
        elapsed = self.nsteps * model.config.atm_dt
        oa_total = float(_ocean_areas(model).sum())
        out = {k: total / self.nsteps for k, total in self.sums.items()}
        out.update({
            "ocean_ke_j": end["ocean_ke_j"],
            "mass_drift_rel": np.abs(end["mean_ps_pa"] - start["mean_ps_pa"])
            / start["mean_ps_pa"],
            "ocean_heat_uptake_wm2": (end["ocean_heat_j"]
                                      - start["ocean_heat_j"])
            / (oa_total * elapsed),
        })
        return {k: np.asarray(v).tolist() for k, v in out.items()}


def scenario_climatology(model: FoamModel, state: FoamState,
                         days: float = GOLDEN_DAYS
                         ) -> tuple[FoamState, dict]:
    """Integrate ``days`` and reduce to the regression climatology dict.

    Time-mean quantities (surface temperature, SST, ice cover, precip) are
    averaged over every coupled step; drift diagnostics compare the end
    state against the start.  Drives the run harness's shared stepping
    loop with a :class:`ClimatologyObserver`.  Returns ``(final_state,
    metrics)``.
    """
    from repro.runs.harness import drive_steps
    from repro.runs.plan import days_to_steps

    nsteps = days_to_steps(days, model.config)
    observer = ClimatologyObserver(model)
    state = drive_steps(model, state, nsteps, (observer,))
    return state, observer.metrics(state)


def compare_climatology(got: dict, want: dict) -> list[str]:
    """Tolerance-checked comparison; returns human-readable violations.

    Metrics present in ``want`` but missing from ``got`` (or vice versa)
    are violations too — a climatology that silently loses a diagnostic
    is as suspect as one that drifts.
    """
    problems = []
    for key in sorted(want):
        if key not in got:
            problems.append(f"{key}: missing from run output")
            continue
        abs_tol, rel_tol = TOLERANCES.get(key, (0.0, 0.05))
        limit = abs_tol + rel_tol * abs(want[key])
        err = abs(got[key] - want[key])
        if not np.isfinite(got[key]) or err > limit:
            problems.append(
                f"{key}: got {got[key]:.6g}, golden {want[key]:.6g} "
                f"(|err| {err:.3g} > tol {limit:.3g})")
    for key in sorted(set(got) - set(want)):
        problems.append(f"{key}: not in golden (regenerate goldens)")
    return problems
