"""End-to-end throughput ledger for the FOAM reproduction.

    python3 benchmarks/e2e/run.py                       # all five workloads
    python3 benchmarks/e2e/run.py --workload serial_paper --seed 3
    python3 benchmarks/e2e/run.py --trace 1 --out /tmp/foam-bench
    python3 benchmarks/e2e/run.py --quick               # smoke: 2 windows each

Each workload runs in a fresh single-BLAS-thread subprocess (``worker.py``);
this parent only orchestrates, so it imports nothing heavy.  With exactly
one ``--workload`` the last line of stdout is the JSON object the
acceptance driver reads; README.md in this directory has the metric and
workload tables.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Extra ``--setup-only`` processes per workload; with the measuring
#: process itself that makes three ``setup_s`` samples, reported as a median.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170
#: Other processes using more than this many cores make the host noisy.
NOISY_BUSY_CORES = 0.5
#: (same-seed, same-invocation) pairs whose window-boundary states must be
#: bitwise equal: the pool against serial, the resumed run against the
#: straight one.
DIGEST_PAIRS = (("concurrent_paper", "serial_paper"),
                ("ensemble16_io_test", "ensemble16_test"))


def load_spec() -> dict:
    src = ROOT / "src" / "repro" / "__init__.py"
    spec = ROOT / "BENCHMARK.json"
    for needed in (src, spec):
        if not needed.is_file():
            sys.exit(f"benchmarks/e2e/run.py: {needed} not found -- run it "
                     f"from a checkout of the repository")
    return json.loads(spec.read_text())


def worker_env() -> dict:
    """The fixed baseline: one BLAS thread, no FOAM_* switches, src/ first."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FOAM_")}
    for name in THREAD_ENV:
        env[name] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def capture_environment(env: dict) -> dict:
    """Host and library facts; the probe doubles as the throw-away
    ``import repro`` that warms the page cache before any ``setup_s``."""
    probe = ("import json, numpy, scipy, repro\n"
             "blas = numpy.__config__.CONFIG.get('Build Dependencies', {})"
             ".get('blas', {})\n"
             "print(json.dumps({'numpy': numpy.__version__, "
             "'scipy': scipy.__version__, "
             "'blas': f\"{blas.get('name')} {blas.get('version')}\"}))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    libs = json.loads(out.stdout.strip().splitlines()[-1])
    commit = "unknown"
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        commit = got.stdout.strip() or commit
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_commit": commit, "nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), **libs,
            "thread_env": {name: env[name] for name in THREAD_ENV}}


# ----------------------------------------------------------------------
def spawn_worker(env: dict, scratch: Path, args: list[str]) -> dict:
    result = scratch / f"result-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--scratch", str(scratch), "--result", str(result),
           "--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, env=env, timeout=WORKER_TIMEOUT_S,
                          capture_output=True, text=True)
    if proc.returncode != 0 or not result.is_file():
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"benchmarks/e2e/run.py: worker failed ({' '.join(args)})")
    return json.loads(result.read_text())


def busy_cores(interval: float = 0.25) -> float | None:
    """Cores kept busy by the whole host over ``interval`` (None off Linux).

    The 1-minute load average still remembers this benchmark's previous
    workload; /proc/stat over a short pause while nothing of ours runs
    sees only the neighbours.
    """
    def snapshot() -> tuple[float, float]:
        ticks = [float(x) for x in
                 Path("/proc/stat").read_text().splitlines()[0].split()[1:]]
        return sum(ticks), ticks[3] + ticks[4]          # total, idle + iowait

    try:
        total0, idle0 = snapshot()
        time.sleep(interval)
        total1, idle1 = snapshot()
    except (OSError, ValueError, IndexError):
        return None
    if total1 <= total0:
        return None
    return (1.0 - (idle1 - idle0) / (total1 - total0)) * (os.cpu_count() or 1)


def run_workload(name: str, opts, env: dict) -> dict:
    """Set-up probes, then the measuring worker; returns its merged result."""
    load_start = os.getloadavg()[0]
    busy = busy_cores()
    noisy = busy is not None and busy > NOISY_BUSY_CORES
    if noisy:
        print(f"# noisy host: {busy:.2f} cores busy before {name} started; "
              f"timings are suspect", flush=True)
    scratch = ROOT / ".bench_e2e" / f"{name}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    base = ["--workload", name, "--seed", str(opts.seed)]
    try:
        probes = [] if opts.quick else [
            spawn_worker(env, scratch, base + ["--setup-only"])["setup_process_s"]
            for _ in range(SETUP_PROBES)]
        args = base + ["--trace", str(opts.trace)]
        if opts.quick:
            args += ["--seconds", "0", "--min-windows", "2",
                     "--max-windows", "2"]
        else:
            args += ["--seconds", str(opts.seconds),
                     "--min-windows", "4" if opts.trace else "3"]
        if opts.trace and opts.out:
            args += ["--chrome-trace", str(opts.out / f"trace_{name}.json")]
        result = spawn_worker(env, scratch, args)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            scratch.parent.rmdir()      # only succeeds once it is empty
        except OSError:
            pass
    if "end_to_end" in result:
        samples = result["samples"]
        setups = probes + [samples["setup_process_s"]]
        samples["setup_process_s"] = stats.summarize(setups)
        result["end_to_end"]["setup_s"] = (stats.median(setups)
                                           + samples["setup_extra_s"])
    if result.get("host_speed", {}).get("noisy"):
        noisy = True
        print(f"# noisy host: {name} ran at {result['host_speed']['factor']:.2f}x "
              f"the nominal kernel time; timings are suspect", flush=True)
    result["noisy_host"] = noisy
    result["busy_cores_before"] = busy
    result["load_avg_1m"] = {"start": load_start, "end": os.getloadavg()[0]}
    return result


def cross_checks(results: dict[str, dict]) -> None:
    """Digest pairs and the pool-vs-serial speed-up, when both sides ran."""
    for name, other in DIGEST_PAIRS:
        a, b = results.get(name), results.get(other)
        if not a or not b:
            continue
        shared = sorted(set(a["digests"]) & set(b["digests"]), key=float)
        a["attempted"] += 1
        differ = [day for day in shared if a["digests"][day] != b["digests"][day]]
        if differ or not shared:
            a["failed"] += 1
            a["failures"].append(
                f"state differs from {other} at simulated days {differ}"
                if shared else f"no window boundary shared with {other}")
        a["digest_check"] = {"against": other, "days_compared": shared,
                             "equal": not differ and bool(shared)}
    pool, serial = results.get("concurrent_paper"), results.get("serial_paper")
    if pool and serial and "per_layer" in pool and "end_to_end" in serial:
        pool["per_layer"]["parallel.speedup_vs_serial"] = (
            pool["end_to_end"]["sim_days_per_s"]
            / serial["end_to_end"]["sim_days_per_s"])


# ----------------------------------------------------------------------
def driver_line(result: dict, spec: dict, trace: int) -> str:
    """The one JSON object the acceptance driver parses."""
    section = "per_layer" if trace else "end_to_end"
    values = result[section]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[section]}
    return json.dumps({"correct": result["failed"] == 0,
                       "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def print_report(result: dict, spec: dict) -> None:
    name = result["workload"]
    print(f"\n== {name}  (seed {result['seed']}, {result['windows']} windows "
          f"of 0.5 simulated day, nens {result['nens']}) ==")
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    if "end_to_end" not in result:
        print("  no measurement (the run aborted)")
        return
    e2e = result["end_to_end"]
    for m in spec["end_to_end"]:
        print(f"  {m['name']:24s} {e2e[m['name']]:12.4f} {m['unit']:8s} "
              f"({m['better']} is better, bound {m['bound']:.0%})")
    print(f"  {'x_realtime':24s} {e2e['sim_days_per_s'] * 86400.0:12.0f} "
          f"{'x':8s} (informational)")
    samples = result["samples"]
    print(f"  as timed, before dividing by the host-speed factor "
          f"{samples['host_speed_factor']['median']:.3f}: "
          f"{samples['raw_sim_days_per_s']:.4f} day/s, "
          f"{samples['raw_cpu_s_per_sim_day']:.4f} s/day")
    print(f"  {'failed_frac':24s} "
          f"{result['failed'] / result['attempted']:12.4f} {'ratio':8s} "
          f"({result['failed']} of {result['attempted']} operations)")
    if "digest_check" in result:
        check = result["digest_check"]
        print(f"  bitwise equal to {check['against']} at days "
              f"{check['days_compared']}: {check['equal']}")
    if "per_layer" in result:
        layer = result["per_layer"]
        for m in spec["per_layer"]:
            print(f"    {m['name']:32s} {layer[m['name']]:14.6g} {m['unit']}")
        if layer["trace.coverage_frac"] and layer["trace.coverage_frac"] < 0.95:
            print(f"    unattributed: runs.glue_s = {layer['runs.glue_s']:.4g} "
                  f"s/day sits outside every named layer span")


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", choices=names,
                    help="run only this workload (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"],
                    help="measured time per workload (the time box)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1), help="1: per-layer metrics from spans")
    ap.add_argument("--quick", action="store_true",
                    help="two measured windows per workload, no set-up probes")
    ap.add_argument("--out", type=Path, default=None,
                    help="directory for results.json and Chrome traces")
    ap.add_argument("--update-reference", action="store_true",
                    help="rewrite reference.json from this seed-0 run")
    opts = ap.parse_args(argv)
    selected = opts.workload or names
    if opts.out:
        opts.out.mkdir(parents=True, exist_ok=True)

    env = worker_env()
    environment = capture_environment(env)
    results = {name: run_workload(name, opts, env) for name in selected}
    cross_checks(results)

    for result in results.values():
        print_report(result, spec)
    record = {"environment": environment, "seed": opts.seed,
              "trace": opts.trace, "quick": opts.quick,
              "seconds": opts.seconds, "workloads": results}
    if opts.out:
        (opts.out / "results.json").write_text(json.dumps(record, indent=1))
    if opts.update_reference:
        update_reference(results, opts.seed)
    ok = all(r["failed"] == 0 and "end_to_end" in r for r in results.values())
    if len(selected) == 1:
        result = results[selected[0]]
        if "end_to_end" not in result:
            return 1
        print(driver_line(result, spec, opts.trace))
        return 0
    return 0 if ok else 1


def update_reference(results: dict[str, dict], seed: int) -> None:
    if seed != 0:
        sys.exit("--update-reference needs --seed 0")
    path = HERE / "reference.json"
    reference = json.loads(path.read_text())
    for name, result in results.items():
        reference["scalars"][name] = result["reference_scalars"]
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"\nreference scalars rewritten in {path}")


if __name__ == "__main__":
    sys.exit(main())
