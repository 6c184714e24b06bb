"""One workload, one process: set up, warm up, measure windows, check, report.

``run.py`` starts this file in a fresh interpreter per workload (and a few
more times with ``--setup-only`` to sample ``setup_s``).  The heavy imports
happen inside :func:`main`, after the start timestamp, so interpreter
start, ``import numpy``/``import repro``, model construction and the
initial state are all inside ``setup_s``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.time()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
import tracing  # noqa: E402

#: Metrics that are seconds per member*simulated day in the trace report.
PER_DAY_SECONDS = sorted(set(tracing.SELF_TIME_METRIC.values())
                         - {"ocean.step_self_s"}) + ["ocean.step_s"]
WAIT_KINDS = ("surface", "atm_state", "atm_phys", "forcing", "sst")


def cpu_seconds() -> float:
    """User + system CPU of this process and of its reaped children."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def peak_rss_mib() -> float:
    return max(resource.getrusage(who).ru_maxrss for who in
               (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


# ----------------------------------------------------------------------
# the measurement loop
# ----------------------------------------------------------------------
class Measurement:
    """Closed loop of windows over one workload, with boundary checks."""

    def __init__(self, workload, wl_module, host, *, trace: bool,
                 reference: dict):
        self.wl = workload
        self.mod = wl_module
        self.host = host
        self.trace = trace and workload.traceable
        self.tracer = tracing.Tracer()
        self.reference = reference
        self.windows = []           # measured Window objects (warm-up dropped)
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}
        self.reference_scalars: dict[str, float] = {}
        self.aborted = False

    def _window(self, traced: bool):
        """Run one window; returns it, or None when it raised."""
        wl = self.wl
        if traced:
            wl.install(self.tracer)
        speed_before = self.host.sample()
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        try:
            window = wl.window()
        except Exception as exc:    # boundary: a failed window is a result
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"window at day {wl.sim_day} raised {exc!r}")
            self.aborted = True
            return None
        finally:
            if traced:
                self.tracer.uninstall()
        window.call_wall = time.perf_counter() - t0
        window.cpu = cpu_seconds() - cpu0
        window.speed = 0.5 * (speed_before + self.host.sample())
        window.traced = traced
        self._check(window)
        return window

    def _check(self, window) -> None:
        """Boundary checks; they are operations too (one per window)."""
        wl = self.wl
        self.attempted += window.attempted + 1
        self.failed += window.failed
        if not self.mod.all_finite(wl.state):
            # Cannot tell which step broke: every operation of the window.
            self.failed += window.attempted - window.failed + 1
            self.failures.append(f"non-finite prognostic field at day {wl.sim_day}")
            self.aborted = True
            return
        bad = wl.invariants()
        if bad:
            self.failed += 1
            self.failures.extend(f"day {wl.sim_day}: {msg}" for msg in bad)
        self.digests[f"{wl.sim_day:g}"] = self.mod.state_digest(wl.state)
        if math.isclose(wl.sim_day, self.mod.REFERENCE_DAY):
            self.reference_scalars = wl.scalars()
            self._check_reference()

    def _check_reference(self) -> None:
        want = self.reference.get(self.wl.name)
        if self.wl.seed != 0 or want is None:
            return
        self.attempted += 1
        rtol = self.mod.REFERENCE_RTOL
        off = [f"{key}: {self.reference_scalars.get(key)!r} vs reference {ref!r}"
               for key, ref in want.items()
               if not math.isclose(self.reference_scalars.get(key, math.nan),
                                   ref, rel_tol=rtol)]
        if off:
            self.failed += 1
            self.failures.append(
                f"seed-0 reference mismatch (rtol {rtol:g}): " + "; ".join(off))

    def run(self, seconds: float, min_windows: int, max_windows: int) -> None:
        if self._window(traced=False) is None:       # warm-up, discarded
            return
        spent = 0.0
        halfway_done = False
        while not self.aborted:
            n = len(self.windows)
            if n >= max_windows or (n >= min_windows and spent >= seconds):
                break
            if (not halfway_done and 2 * n >= min_windows
                    and 2 * spent >= seconds):
                self.wl.halfway()
                halfway_done = True
            # Traced and untraced windows alternate inside one process, so
            # the tracing overhead is a like-for-like difference.
            window = self._window(traced=self.trace and n % 2 == 0)
            if window is None:
                break
            self.windows.append(window)
            spent += window.call_wall
        self.finish_detail = self._finish()

    def _finish(self) -> dict:
        speed_before = self.host.sample()
        cpu0 = cpu_seconds()
        detail = self.wl.finish()
        detail["finish_cpu_s"] = cpu_seconds() - cpu0
        detail["speed"] = 0.5 * (speed_before + self.host.sample())
        self.attempted += detail.get("read_attempted", 0)
        self.failed += detail.get("read_failed", 0)
        self.failures.extend(self.wl.failures)
        return detail


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(meas: Measurement, setup_process_s: float,
               setup_speed: float) -> tuple[dict, dict]:
    """The end-to-end metrics from the *untraced* windows, and their samples.

    Every timing is divided by the host-speed factor sampled around it
    (``hostspeed.py``); ``samples`` keeps the raw seconds as well.
    """
    wl = meas.wl
    windows = [w for w in meas.windows if not w.traced]
    member_days = wl.nens * meas.mod.WINDOW_DAYS
    # Reading the output back is part of the I/O workload's cost: spread
    # it evenly over the windows that wrote it.
    finish = meas.finish_detail
    share = 1.0 / len(meas.windows) if "read_s" in finish else 0.0
    read_wall = finish.get("read_s", 0.0) * share
    read_cpu = finish["finish_cpu_s"] * share
    walls = [w.wall + read_wall for w in windows]
    cpus = [w.cpu + read_cpu for w in windows]
    speeds = [w.speed for w in windows]
    at_nominal = [(w.wall / w.speed + read_wall / finish["speed"],
                   w.cpu / w.speed + read_cpu / finish["speed"])
                  for w in windows]
    # Set-up paid again inside the run: a pool spawn per leg, or the
    # resume leg's new harness and checkpoint load.
    extras = [w.detail[key] / w.speed for w in meas.windows
              for key in ("spawn_s", "resume_setup_s") if key in w.detail]
    setup_extra = stats.median(extras) if extras else 0.0
    metrics = {
        "setup_s": setup_process_s / setup_speed + setup_extra,
        "sim_days_per_s": member_days / stats.median(w for w, _c in at_nominal),
        "cpu_s_per_sim_day": stats.median(c for _w, c in at_nominal) / member_days,
        "peak_rss_mb": peak_rss_mib(),
    }
    samples = {"window_wall_s": stats.summarize(walls),
               "window_cpu_s": stats.summarize(cpus),
               "host_speed_factor": stats.summarize(speeds),
               "raw_sim_days_per_s": member_days / stats.median(walls),
               "raw_cpu_s_per_sim_day": stats.median(cpus) / member_days,
               "setup_process_s": setup_process_s / setup_speed,
               "raw_setup_process_s": setup_process_s,
               "setup_extra_s": setup_extra}
    return metrics, samples


def step_metrics(meas: Measurement) -> dict:
    steps = [ms for w in meas.windows for ms in w.steps_ms]
    pct = stats.tail_percentile(len(steps))
    return {"runs.step_p50_ms": stats.median(steps),
            "runs.step_tail_ms": stats.percentile(steps, pct),
            "runs.step_tail_pct": pct,
            "runs.step_samples": len(steps)}


def per_layer(meas: Measurement, names: list[str]) -> dict:
    """Every per-layer metric (0 where the layer did no work here)."""
    wl = meas.wl
    out = dict.fromkeys(names, 0.0)
    traced = [w for w in meas.windows if w.traced]
    untraced = [w for w in meas.windows if not w.traced]
    member_days = wl.nens * meas.mod.WINDOW_DAYS
    spans = meas.tracer.spans

    if traced:
        days = member_days * len(traced)
        seconds, calls = tracing.attribute(spans)
        seconds["ocean.step_s"] = (seconds["ocean.step_self_s"]
                                   + seconds["ocean.barotropic_s"])
        wall = sum(w.wall for w in traced)
        # What the loop spent outside coupled_step and the observers is
        # harness glue as well.
        seconds["runs.glue_s"] += max(wall - seconds["roots"], 0.0)
        for metric in PER_DAY_SECONDS:
            out[metric] = seconds[metric] / days
        steps = calls.get("runs.coupled_step", 0)
        if steps:
            out["atmosphere.spectral_calls"] = (
                tracing.outermost_calls(spans, "spectral.") / steps)
        ocean_calls = [(end - start) * 1e3 for name, start, end, _p in spans
                       if name == "ocean.step"]
        if ocean_calls:
            out["ocean.call_p50_ms"] = stats.median(ocean_calls)
            out["ocean.ops_per_call"] = (
                sum(w.detail.get("ocean_ops", 0) for w in traced)
                / len(ocean_calls))
        out["trace.coverage_frac"] = 1.0 - seconds["runs.glue_s"] / wall
        if untraced:
            out["trace.overhead_frac"] = (
                stats.median(w.wall for w in traced)
                / stats.median(w.wall for w in untraced) - 1.0)

    out.update(step_metrics(meas))

    all_days = member_days * max(len(meas.windows), 1)
    hist_bytes = sum(w.detail.get("history_bytes", 0) for w in meas.windows)
    ckpt_bytes = sum(w.detail.get("checkpoint_bytes", 0) for w in meas.windows)
    out["history.mb_written"] = hist_bytes / 1e6
    out["history.files"] = sum(w.detail.get("history_files", 0)
                               for w in meas.windows)
    out["checkpoint.mb_written"] = ckpt_bytes / 1e6
    out["output_mb_per_sim_day"] = (hist_bytes + ckpt_bytes) / 1e6 / all_days
    out["history.read_s"] = meas.finish_detail.get("read_s", 0.0) / all_days
    out["checkpoint.load_s"] = sum(w.detail.get("checkpoint_load_s", 0.0)
                                   for w in meas.windows)
    out["host.speed_factor"] = stats.median(w.speed for w in meas.windows)

    if wl.name == "concurrent_paper" and meas.windows:
        legs = [w.detail for w in meas.windows]
        for kind in WAIT_KINDS:
            out[f"parallel.wait_{kind}_s"] = sum(
                seg.get(kind, 0.0) for leg in legs for seg in leg["waits"]
            ) / all_days
        busy = sum(leg["ocean_busy_s"] for leg in legs)
        out["parallel.ocean_busy_s"] = out["ocean.step_s"] = busy / all_days
        out["ocean.call_p50_ms"] = stats.median(
            leg["ocean_busy_s"] / leg["ocean_calls"] * 1e3 for leg in legs)
        out["parallel.hidden_frac"] = (
            sum(leg["overlap_s"] for leg in legs) / busy if busy else 0.0)
        nsteps = sum(leg["steps"] for leg in legs)
        out["parallel.msgs_per_step"] = sum(leg["msgs"] for leg in legs) / nsteps
        out["parallel.mb_per_step"] = (
            sum(leg["bytes"] for leg in legs) / 1e6 / nsteps)
        out["parallel.spawn_s"] = stats.median(leg["spawn_s"] for leg in legs)

    out.update(wl.backend_counters())
    return out


def write_chrome_trace(meas: Measurement, path: Path) -> None:
    if meas.wl.name == "concurrent_paper":
        origin = meas.windows[0].detail["leg_start"] if meas.windows else 0.0
        events = tracing.chrome_trace_ranks(
            [{"start": w.detail["leg_start"] - origin,
              "ranks": w.detail["ranks"]} for w in meas.windows])
    else:
        spans = meas.tracer.spans
        events = tracing.chrome_trace(spans, spans[0][1] if spans else 0.0)
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=12.0)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--min-windows", type=int, default=3)
    ap.add_argument("--max-windows", type=int, default=60)
    ap.add_argument("--spawned-at", type=float, default=_PROCESS_START,
                    help="epoch seconds when the parent started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--scratch", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--chrome-trace", type=Path, default=None)
    args = ap.parse_args(argv)

    import hostspeed
    import workloads            # numpy + repro: part of setup_s

    workload = workloads.WORKLOADS[args.workload](args.seed, args.scratch)
    workload.setup()
    setup_process_s = time.time() - args.spawned_at
    host = hostspeed.HostSpeed()
    setup_speed = host.sample()
    if args.setup_only:
        args.result.write_text(json.dumps(
            {"setup_process_s": setup_process_s / setup_speed,
             "raw_setup_process_s": setup_process_s}))
        return 0

    reference = json.loads((HERE / "reference.json").read_text())
    meas = Measurement(workload, workloads, host, trace=bool(args.trace),
                       reference=reference["scalars"])
    meas.run(args.seconds, args.min_windows, args.max_windows)

    result = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "nens": workload.nens, "windows": len(meas.windows),
        "sim_days": workload.sim_day,
        "attempted": meas.attempted, "failed": meas.failed,
        "failures": meas.failures, "digests": meas.digests,
        "reference_scalars": meas.reference_scalars,
        "drift": workload.drift(),
    }
    if meas.windows:
        factor = stats.median(w.speed for w in meas.windows)
        result["host_speed"] = {"factor": factor,
                                "noisy": factor > hostspeed.NOISY_FACTOR}
    if meas.windows and not meas.aborted:
        result["end_to_end"], result["samples"] = end_to_end(
            meas, setup_process_s, setup_speed)
        if args.trace:
            spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
            result["per_layer"] = per_layer(
                meas, [m["name"] for m in spec["per_layer"]])
            traced = [w.wall for w in meas.windows if w.traced]
            if traced:
                # What the additive per-layer seconds must sum to.
                result["samples"]["traced_wall_s_per_day"] = (
                    sum(traced) / len(traced) / workload.nens
                    / workloads.WINDOW_DAYS)
            if args.chrome_trace is not None:
                write_chrome_trace(meas, args.chrome_trace)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
