"""The five workloads, their seeded inputs, and their correctness checks.

Every workload advances in *windows* of half a simulated day -- the
smallest homogeneous unit of a FOAM run (one radiation call, two ocean
calls) -- through the program's public entry points only: ``RunHarness``
for the coupled runs, ``OceanModel.step`` for the ocean alone.  A window
returns what it cost and what it produced; the measurement loop in
``worker.py`` decides how many to run.

This module imports numpy and ``repro``; ``worker.py`` imports it only
after taking the process-start timestamp, so that cost lands in
``setup_s``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from pathlib import Path

import numpy as np

from repro.atmosphere.spectral import legendre_plan_stats
from repro.backend import get_workspace
from repro.core.config import paper_config, test_config
from repro.core.history import HistoryWriter, load_history
from repro.ocean.grid import OceanGrid, topography_by_name
from repro.ocean.model import OceanForcing, OceanModel
from repro.runs import (
    HISTORY_FIELDS,
    CheckpointObserver,
    CheckpointSpec,
    HistoryObserver,
    HistorySpec,
    RunHarness,
    RunPlan,
    StepObserver,
)

WINDOW_DAYS = 0.5
NENS = 16
IC_PERTURBATION = 1e-8

# Per-seed invariants.  The drifts are measured against the state the run
# started from; seeds 0..9 over up to 10 simulated days stay below 4e-7 on
# both, so the tolerances leave a factor of 25 (README, "Checks").
SST_MAX_C = 40.0
DRIFT_TOL = {"atm_mass": 1e-5,       # relative, area-mean surface pressure
             "ocean_salt": 1e-5}     # relative, volume-mean salinity
#: Seed-0 reference scalars are taken at this simulated day (warm-up plus
#: two measured windows: reached by ``--quick`` and by every full run).
REFERENCE_DAY = 1.5
REFERENCE_RTOL = 1e-6

#: History files per ``load_history`` call when reading the output back.
READ_CHUNK_FILES = 4

SPECTRAL_METHODS = ("analyze", "synthesize", "synthesize_many",
                    "uv_from_vortdiv", "vortdiv_from_uv", "gradient")


# ----------------------------------------------------------------------
# state inspection
# ----------------------------------------------------------------------
def prognostic_arrays(state) -> list[np.ndarray]:
    """Every ndarray of a (nested) state dataclass, in field order."""
    arrays = []
    for f in dataclasses.fields(state):
        value = getattr(state, f.name)
        if isinstance(value, np.ndarray):
            arrays.append(value)
        elif dataclasses.is_dataclass(value):
            arrays.extend(prognostic_arrays(value))
    return arrays


def state_digest(state) -> str:
    """SHA-256 over the raw bytes of every prognostic array (bitwise)."""
    h = hashlib.sha256()
    for arr in prognostic_arrays(state):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def all_finite(state) -> bool:
    return all(np.isfinite(arr).all() for arr in prognostic_arrays(state))


@dataclasses.dataclass
class Window:
    """What one window cost and produced."""

    wall: float                       # seconds that count towards the rate
    steps_ms: list[float]             # per coupled step / ocean call
    attempted: int                    # operations (steps, calls, legs)
    failed: int = 0
    detail: dict = dataclasses.field(default_factory=dict)
    # Filled in by the measurement loop around the call:
    call_wall: float = 0.0            # whole window() call, spawn included
    cpu: float = 0.0                  # user + system, self and children
    speed: float = 1.0                # host-speed factor around the window
    traced: bool = False


class Workload:
    """What the measurement loop needs from a workload.

    Subclasses provide ``setup()``, ``window()``, ``install(tracer)``,
    ``scalars()``, ``drift()``, ``invariants()`` and keep the current
    prognostic state in ``self.state``.
    """

    name = ""
    nens = 1
    traceable = True        # in-process: public methods can be wrapped

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self.windows_done = 0
        self.failures: list[str] = []

    @property
    def sim_day(self) -> float:
        return self.windows_done * WINDOW_DAYS

    def halfway(self) -> None:
        """Called once when half the time box is spent."""

    def finish(self) -> dict:
        """Post-run work (reads); returns extra detail for the result."""
        return {}

    def backend_counters(self) -> dict[str, float]:
        ws = get_workspace()
        return _backend_metrics(ws.hits, ws.misses, ws.nbytes, len(ws))


class StepStamps(StepObserver):
    """Timestamp after every coupled step (the loop's own observer hook)."""

    def __init__(self):
        self.stamps: list[float] = []

    def on_start(self, model, state) -> None:
        self.stamps.append(time.perf_counter())

    def on_step(self, model, state) -> None:
        self.stamps.append(time.perf_counter())

    def steps_ms(self) -> list[float]:
        return [(b - a) * 1e3 for a, b in zip(self.stamps, self.stamps[1:])]


# ----------------------------------------------------------------------
# coupled workloads (RunHarness)
# ----------------------------------------------------------------------
class CoupledWorkload(Workload):
    """Shared driver of the four ``RunHarness`` workloads."""

    mode = "serial"
    paper = True

    # -- plan -----------------------------------------------------------
    def config(self):
        base = paper_config() if self.paper else test_config()
        return dataclasses.replace(base, seed=self.seed)

    def plan_kwargs(self) -> dict:
        return {}

    def plan(self, days: float) -> RunPlan:
        return RunPlan(config=self._config, days=days, mode=self.mode,
                       **self.plan_kwargs())

    # -- lifecycle ------------------------------------------------------
    def setup(self) -> None:
        self._config = self.config()
        self.harness = self._new_harness()
        self.state = self.harness.initial_state()
        self._mass0, self._salt0 = self._drift_scalars()

    def _new_harness(self) -> RunHarness:
        harness = RunHarness(self.plan(WINDOW_DAYS))
        if harness.ensemble is not None:
            # The seed also picks the members' IC perturbation stream.
            harness.ensemble.config.perturb_seed = 100 + 1000 * self.seed
        return harness

    @property
    def model(self):
        return self.harness.model

    def _run(self, **kwargs):
        """One more window through ``RunHarness.run``.

        ``plan.days`` is a run's total length from time zero, so each
        window swaps in a plan half a day longer; nothing the harness
        built from the plan (the model, the ensemble) depends on it.
        """
        self.harness.plan = self.plan(self.sim_day + WINDOW_DAYS)
        stamps = StepStamps()
        result = self.harness.run(observers=(stamps,), **kwargs)
        self.state = result.state
        self.windows_done += 1
        return result, stamps

    def window(self, **run_kwargs) -> Window:
        ops0 = self.model.ocean.op_count
        result, stamps = self._run(**(run_kwargs or {"state": self.state}))
        ocean_calls = result.steps // self._config.atm_steps_per_coupling
        # One operation per coupled step and per ocean call.
        return Window(wall=result.wall_seconds, steps_ms=stamps.steps_ms(),
                      attempted=result.steps + ocean_calls,
                      detail={"ocean_ops": self.model.ocean.op_count - ops0,
                              "history_files": len(result.history_files),
                              "history_bytes": _bytes_of(result.history_files),
                              "checkpoint_bytes": _bytes_of(result.checkpoints)})

    # -- tracing --------------------------------------------------------
    def install(self, tracer) -> None:
        m = self.model
        tracer.wrap(m, "coupled_step", "runs.coupled_step")
        tracer.wrap(m, "atm_diagnose", "atmosphere.diagnose")
        tracer.wrap(m, "atm_advance", "atmosphere.advance")
        tracer.wrap(m, "atm_dynamics", "atmosphere.dynamics")
        tracer.wrap(m.physics, "compute", "atmosphere.physics")
        for method in SPECTRAL_METHODS:
            tracer.wrap(m.transform, method, f"spectral.{method}")
        tracer.wrap(m, "merge_surface", "coupler.merge_surface")
        tracer.wrap(m.coupler, "turbulent_fluxes", "coupler.fluxes")
        tracer.wrap(m, "accumulate_forcing", "coupler.accumulate")
        tracer.wrap(m.coupler, "step_land_and_rivers", "coupler.land_rivers")
        tracer.wrap(m, "ocean_forcing", "coupler.ocean_forcing")
        tracer.wrap(m.ocean, "step", "ocean.step")
        tracer.wrap(m.ocean.baro, "step", "ocean.barotropic")
        # The harness builds its output observers inside run(): reach them
        # through their classes.
        tracer.wrap(HistoryObserver, "on_step", "runs.observer")
        tracer.wrap(CheckpointObserver, "on_step", "checkpoint.write")
        for method in ("record", "flush", "close"):
            tracer.wrap(HistoryWriter, method, f"history.{method}")

    # -- checks ---------------------------------------------------------
    def _member(self, state, e: int):
        if self.harness.ensemble is None:
            return state
        return self.harness.ensemble.member_state(state, e)

    def _drift_scalars(self) -> tuple[float, float]:
        member = self._member(self.state, 0)
        return (self.model.dycore.global_mass(member.atm_curr),
                self.model.ocean.mean_salinity(member.ocean))

    def scalars(self) -> dict[str, float]:
        """Global scalars of member 0 (the seed-0 reference compares them)."""
        member = self._member(self.state, 0)
        m = self.model
        return {
            "atm_mass_pa": m.dycore.global_mass(member.atm_curr),
            "atm_energy_j_m2": m.dycore.total_energy(member.atm_curr),
            "sst_mean_c": float(np.nanmean(m.ocean.sst(member.ocean))),
            "ocean_temp_mean_c": m.ocean.mean_temperature(member.ocean),
            "ocean_salt_mean_psu": m.ocean.mean_salinity(member.ocean),
        }

    def drift(self) -> dict[str, float]:
        """Relative drift of the conserved scalars since the initial state."""
        mass, salt = self._drift_scalars()
        return {"atm_mass": mass / self._mass0 - 1.0,
                "ocean_salt": salt / self._salt0 - 1.0}

    def invariants(self) -> list[str]:
        """Violated per-seed invariants of the current state (ideally [])."""
        sst = self.model.ocean.sst(self.state.ocean)
        clamp = float(np.min(self.model.ocean.params.sst_clamp))
        return _violations(sst, clamp, self.drift())


def _violations(sst: np.ndarray, clamp: float, drift: dict) -> list[str]:
    bad = []
    if np.nanmin(sst) < clamp - 1e-9 or np.nanmax(sst) > SST_MAX_C:
        bad.append(f"SST outside [{clamp:.2f}, {SST_MAX_C}] C: "
                   f"{np.nanmin(sst):.3f}..{np.nanmax(sst):.3f}")
    bad.extend(f"{what} drift {value:.2e} exceeds {DRIFT_TOL[what]:.0e}"
               for what, value in drift.items()
               if abs(value) > DRIFT_TOL[what])
    return bad


def _bytes_of(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def _backend_metrics(hits: int, misses: int, nbytes: int, buffers: int) -> dict:
    return {"backend.ws_hit_rate": hits / max(hits + misses, 1),
            "backend.ws_resident_mb": nbytes / 2**20,
            "backend.ws_buffers": buffers,
            "backend.legendre_plans_built": legendre_plan_stats()["builds"]}


class SerialPaper(CoupledWorkload):
    name = "serial_paper"


class ConcurrentPaper(CoupledWorkload):
    """1 atmosphere + 1 coupler + 1 ocean rank process, one pool per leg."""

    name = "concurrent_paper"
    mode = "concurrent"
    traceable = False       # the work happens in forked rank processes

    def plan_kwargs(self) -> dict:
        return {"substrate": "process", "n_atm": 1, "n_ocn": 1}

    def window(self) -> Window:
        t0 = time.perf_counter()
        result, _stamps = self._run(state=self.state)
        legs = result.concurrent
        pool_wall = sum(seg.wall_seconds for seg in legs)
        self._last_ws = legs[-1].ws_stats
        detail = {
            "leg_start": t0,
            "spawn_s": result.wall_seconds - pool_wall,
            "waits": [seg.waits for seg in legs],
            "ocean_busy_s": sum(seg.ocean_busy_seconds for seg in legs),
            "overlap_s": sum(seg.overlap_seconds for seg in legs),
            "msgs": sum(c.msgs_sent for seg in legs for c in seg.comm_stats),
            "bytes": sum(c.bytes_sent for seg in legs for c in seg.comm_stats),
            "steps": result.steps,
            "ocean_calls": result.steps // self._config.atm_steps_per_coupling,
            "ranks": [{"rank": w["rank"], "role": w["role"], "wall": wall,
                       "waits": {k: v for k, v in w.items()
                                 if k not in ("rank", "role")}}
                      for seg in legs
                      for w, wall in zip(seg.rank_waits, seg.rank_walls)],
        }
        # One pool leg is one operation: it either returns a state or raises.
        # Single steps are not visible from outside the pool; the leg's mean
        # step is the finest sample there is.
        return Window(wall=pool_wall,
                      steps_ms=[pool_wall / result.steps * 1e3],
                      attempted=len(legs), detail=detail)

    def backend_counters(self) -> dict[str, float]:
        # The parent's arena is idle; report the rank arenas of the last leg.
        ws = self._last_ws
        return _backend_metrics(sum(w["hits"] for w in ws),
                                sum(w["misses"] for w in ws),
                                sum(w["nbytes"] for w in ws),
                                sum(w["buffers"] for w in ws))


class Ensemble16Test(CoupledWorkload):
    name = "ensemble16_test"
    mode = "ensemble"
    paper = False
    nens = NENS

    def plan_kwargs(self) -> dict:
        return {"nens": NENS, "ic_perturbation": IC_PERTURBATION}


class Ensemble16IoTest(Ensemble16Test):
    """``ensemble16_test`` writing every step, resumed from disk half way."""

    name = "ensemble16_io_test"

    #: Seconds the resume leg's new harness took to build; set by
    #: ``halfway()`` and consumed by the next window.
    _resume_construct_s: float | None = None

    def plan_kwargs(self) -> dict:
        cfg = self._config
        return {**super().plan_kwargs(),
                "history": HistorySpec(
                    directory=str(self.scratch / "history"),
                    interval_days=cfg.atm_dt / 86400.0,
                    fields=tuple(HISTORY_FIELDS), flush_every=6),
                "checkpoint": CheckpointSpec(
                    directory=str(self.scratch / "checkpoints"),
                    interval_days=WINDOW_DAYS)}

    def halfway(self) -> None:
        # Leg B: a new harness picks the run up from the last checkpoint on
        # disk, as a restarted job would.  Built here, before the next
        # window, so that a traced window wraps the model that will run.
        t0 = time.perf_counter()
        self.harness = self._new_harness()
        self._resume_construct_s = time.perf_counter() - t0

    def window(self) -> Window:
        if self._resume_construct_s is None:
            return super().window()
        last_checkpoint = sorted(
            (self.scratch / "checkpoints").glob("ckpt_*.npz"))[-1]
        t0 = time.perf_counter()
        window = super().window(resume_from=last_checkpoint)
        # run() loads the checkpoint before it starts its own clock.
        load_s = time.perf_counter() - t0 - window.wall
        window.detail["checkpoint_load_s"] = load_s
        window.detail["resume_setup_s"] = self._resume_construct_s + load_s
        window.attempted += 1                    # the checkpoint read
        self._resume_construct_s = None
        return window

    def finish(self) -> dict:
        """Read every history file back and check the snapshot schedule.

        Files are read a few at a time so the memory held is one chunk's,
        whatever the number of windows the time box allowed: ``peak_rss_mb``
        must not depend on how fast the host happened to be.
        """
        files = sorted((self.scratch / "history").glob("history_*.npz"))
        times: list[np.ndarray] = []
        failed = 0
        t0 = time.perf_counter()
        for i in range(0, len(files), READ_CHUNK_FILES):
            chunk = files[i:i + READ_CHUNK_FILES]
            try:
                times.append(load_history(chunk)["time"])
            except Exception as exc:        # an unreadable file is a result
                failed += len(chunk)
                self.failures.append(f"load_history({chunk[0].name}..) "
                                     f"raised {exc!r}")
        read_s = time.perf_counter() - t0
        steps = round(self.sim_day * 86400.0 / self._config.atm_dt)
        if not failed:
            times = np.concatenate(times)
            if len(times) != steps + 1:
                self.failures.append(f"history holds {len(times)} snapshots, "
                                     f"expected {steps + 1}")
                failed = 1
            elif not np.all(np.diff(times) > 0):
                self.failures.append(
                    "history times are not strictly increasing")
                failed = 1
        return {"read_s": read_s, "read_attempted": len(files),
                "read_failed": failed}


# ----------------------------------------------------------------------
# ocean alone
# ----------------------------------------------------------------------
class OceanPaper(Workload):
    """``OceanModel.step`` at 128x128x16 under steady seeded forcing."""

    name = "ocean_paper"

    def setup(self) -> None:
        cfg = dataclasses.replace(paper_config(), seed=self.seed)
        grid = OceanGrid(nx=cfg.ocn_nx, ny=cfg.ocn_ny, nlev=cfg.ocn_nlev,
                         dtype=cfg.dtype_policy,
                         rotation_factor=cfg.rotation_factor)
        land, depth = topography_by_name(cfg.topography)(grid)
        self.ocean = OceanModel(grid, land, depth, cfg.ocean_params)
        self.calls_per_window = round(
            WINDOW_DAYS * 86400.0 / cfg.ocean_coupling_interval)
        self.forcing = self._forcing(grid)
        self.state = self.ocean.initial_state(cfg.ocean_init)
        self._salt0 = self.ocean.mean_salinity(self.state)

    def _forcing(self, grid) -> OceanForcing:
        """Trade/westerly wind bands and a tropics-in, poles-out heat flux,
        each with a smooth seed-dependent perturbation; zero net freshwater."""
        rng = np.random.default_rng(self.seed)
        lat = grid.lats[:, None]
        lon = (2.0 * np.pi * np.arange(grid.nx) / grid.nx)[None, :]

        def ripple(amplitude: float) -> np.ndarray:
            phase = rng.uniform(0.0, 2.0 * np.pi, size=3)
            return amplitude * sum(
                np.sin((k + 1) * lon + phase[k]) * np.cos((k + 1) * lat)
                for k in range(3)) / 3.0

        fdt = grid.policy.float_dtype
        taux = -0.08 * np.cos(3.0 * lat) * np.cos(lat) + ripple(0.01)
        tauy = ripple(0.005)
        heat = 40.0 * (np.cos(lat) ** 2 - 0.6) + ripple(5.0)
        return OceanForcing(taux.astype(fdt), tauy.astype(fdt),
                            heat.astype(fdt),
                            np.zeros((grid.ny, grid.nx), dtype=fdt))

    def window(self) -> Window:
        calls_ms = []
        ops0 = self.ocean.op_count
        t0 = time.perf_counter()
        for _ in range(self.calls_per_window):
            t = time.perf_counter()
            self.state = self.ocean.step(self.state, self.forcing)
            calls_ms.append((time.perf_counter() - t) * 1e3)
        wall = time.perf_counter() - t0
        self.windows_done += 1
        return Window(wall=wall, steps_ms=calls_ms,
                      attempted=self.calls_per_window,
                      detail={"ocean_ops": self.ocean.op_count - ops0})

    def install(self, tracer) -> None:
        tracer.wrap(self.ocean, "step", "ocean.step")
        tracer.wrap(self.ocean.baro, "step", "ocean.barotropic")

    def scalars(self) -> dict[str, float]:
        o = self.ocean
        return {"sst_mean_c": float(np.nanmean(o.sst(self.state))),
                "ocean_temp_mean_c": o.mean_temperature(self.state),
                "ocean_salt_mean_psu": o.mean_salinity(self.state),
                "ocean_ke_j": o.total_kinetic_energy(self.state)}

    def drift(self) -> dict[str, float]:
        return {"ocean_salt":
                self.ocean.mean_salinity(self.state) / self._salt0 - 1.0}

    def invariants(self) -> list[str]:
        return _violations(self.ocean.sst(self.state),
                           self.ocean.params.sst_clamp, self.drift())


WORKLOADS = {cls.name: cls for cls in (
    SerialPaper, ConcurrentPaper, OceanPaper, Ensemble16Test,
    Ensemble16IoTest)}
