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


def _metric_arrays(model: FoamModel, state: FoamState) -> dict:
    """Each metric reduced over levels and the horizontal; what is left is
    the member axis (0-d for a serial state, ``(nens,)`` for a batched one).

    One diagnose/synthesis pass over the whole (level[, member]) stack, so
    a batched state costs one batched diagnose — not nens serial ones plus
    a deep copy of every field.
    """
    w = _area_weights(model)
    sst = model.ocean.sst(state.ocean)
    surface = model.coupler.surface_state_for_atm(state.coupler, sst)
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
        "ts_global_k": np.sum(surface.t_sfc * w, axis=hax),
        "t_atm_k": (np.sum(diag.temp * wdp, axis=(0,) + hax)
                    / np.sum(wdp, axis=(0,) + hax)),
        "sst_ocean_c": np.sum(np.nan_to_num(sst) * oa, axis=hax) / oa_total,
        "ice_fraction": np.sum(np.where(state.coupler.ice.mask, oa, 0.0),
                               axis=hax) / oa_total,
        "ocean_ke_j": model.ocean.total_kinetic_energy(state.ocean),
        "mean_ps_pa": model.transform.global_mean(diag.ps),
    }


def state_metrics(model: FoamModel, state: FoamState) -> dict:
    """Instantaneous scalar diagnostics of one (serial) coupled state."""
    return {k: float(v) for k, v in _metric_arrays(model, state).items()}


def ensemble_member_metrics(model: FoamModel, state: FoamState) -> list[dict]:
    """:func:`state_metrics` of every member of a batched ensemble state."""
    arrays = _metric_arrays(model, state)
    return [{k: float(v[e]) for k, v in arrays.items()}
            for e in range(len(arrays["mean_ps_pa"]))]


def _ocean_heat_content(model: FoamModel, state: FoamState) -> float:
    from repro.core.diagnostics import ocean_heat_content
    return ocean_heat_content(state.ocean.temp, model.ocean.dz3d,
                              model.ocean.grid.cell_areas())


class ClimatologyObserver:
    """Accumulates the regression climatology as a run-harness observer.

    A :class:`~repro.runs.StepObserver` that reduces the trajectory the
    exact way the old inline loop did (``state_metrics`` after every
    coupled step plus the coupler's precip/evap totals), so the committed
    goldens are untouched by the harness refactor.  Attach it to any
    serial harness run and call :meth:`metrics` afterwards.
    """

    def __init__(self, model: FoamModel):
        self.model = model
        self.sums = {k: 0.0 for k in ("ts_global_k", "t_atm_k",
                                      "sst_ocean_c", "ice_fraction")}
        self.precip_sum = 0.0
        self.evap_sum = 0.0
        self.nsteps = 0
        self._start = None
        self._ohc0 = None

    def on_start(self, model, state) -> None:
        self._start = state_metrics(self.model, state)
        self._ohc0 = _ocean_heat_content(self.model, state)

    def on_step(self, model, state) -> None:
        inst = state_metrics(self.model, state)
        for k in self.sums:
            self.sums[k] += inst[k]
        cpl = self.model.last_coupler_diagnostics
        if cpl is not None:
            self.precip_sum += cpl.precip_total     # kg/s, global
            self.evap_sum += cpl.evap_total
        self.nsteps += 1

    def on_end(self, model, state) -> None:
        pass

    def metrics(self, state: FoamState) -> dict:
        """The climatology dict for the trajectory observed so far."""
        if self.nsteps == 0 or self._start is None:
            raise RuntimeError("no steps observed yet")
        model = self.model
        end = state_metrics(model, state)
        elapsed = self.nsteps * model.config.atm_dt
        ohc1 = _ocean_heat_content(model, state)
        oa_total = float(_ocean_areas(model).sum())
        area_atm = float(model.coupler.atm_cell_areas.sum())
        out = {k: self.sums[k] / self.nsteps for k in self.sums}
        out.update({
            # mm/day == kg m^-2 day^-1 of the global-mean rate.  Precip
            # is the real thing; evaporation is the active spin-up proxy
            # for hydrological-cycle intensity (the default dry-start
            # atmosphere takes weeks to first saturate, so precip pins at
            # 0 early on).
            "precip_mm_day": self.precip_sum / self.nsteps / area_atm
            * 86400.0,
            "evap_mm_day": self.evap_sum / self.nsteps / area_atm * 86400.0,
            "ocean_ke_j": end["ocean_ke_j"],
            "mass_drift_rel": abs(end["mean_ps_pa"] - self._start["mean_ps_pa"])
            / self._start["mean_ps_pa"],
            "ocean_heat_uptake_wm2": (ohc1 - self._ohc0)
            / (oa_total * elapsed),
        })
        return out


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

    nsteps = max(1, int(round(days * 86400.0 / model.config.atm_dt)))
    observer = ClimatologyObserver(model)
    state = drive_steps(model, state, nsteps, (observer,))
    return state, observer.metrics(state)


def compare_climatology(got: dict, want: dict,
                        tolerances: dict | None = None) -> list[str]:
    """Tolerance-checked comparison; returns human-readable violations.

    Metrics present in ``want`` but missing from ``got`` (or vice versa)
    are violations too — a climatology that silently loses a diagnostic
    is as suspect as one that drifts.
    """
    tol = dict(TOLERANCES)
    if tolerances:
        tol.update(tolerances)
    problems = []
    for key in sorted(want):
        if key not in got:
            problems.append(f"{key}: missing from run output")
            continue
        abs_tol, rel_tol = tol.get(key, (0.0, 0.05))
        limit = abs_tol + rel_tol * abs(want[key])
        err = abs(got[key] - want[key])
        if not np.isfinite(got[key]) or err > limit:
            problems.append(
                f"{key}: got {got[key]:.6g}, golden {want[key]:.6g} "
                f"(|err| {err:.3g} > tol {limit:.3g})")
    for key in sorted(set(got) - set(want)):
        problems.append(f"{key}: not in golden (regenerate goldens)")
    return problems
