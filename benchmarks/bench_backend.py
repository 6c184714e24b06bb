"""Backend/workspace benchmark (ISSUE 4): precision + allocation reuse.

Times one coupled simulated day of the test configuration under the default
float64 policy and under ``dtype="float32"``, with the profiler's workspace
counters (``ws.hits``/``ws.misses``) recording how many hot-path temporaries
were served from the preallocated :mod:`repro.backend` arena instead of
fresh ``np.empty`` calls.

Persists ``BENCH_backend.json`` (set ``BENCH_BACKEND_PATH`` to move it) —
the machine-checkable record that the workspace layer serves >= 50 % of
per-step temporary requests in the ocean and spectral kernels from reused
buffers.
"""

import json
import os
import time

from conftest import backend_measure_steps, report
from repro.backend import workspace_totals
# Alias keeps pytest from collecting the config factory as a test.
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel
from repro.perf.profiler import enable_profiling, take_profile

WARMUP_STEPS = 2      # enough to populate every (name, shape, dtype) buffer


def _section_ws_counters(profile, prefix: str) -> tuple[float, float]:
    """Sum (ws.hits, ws.misses) over sections whose path starts with prefix."""
    hits = misses = 0.0
    for s in profile.matching(lambda p: p == prefix or p.startswith(prefix + "/")):
        hits += s.counters.get("ws.hits", 0.0)
        misses += s.counters.get("ws.misses", 0.0)
    return hits, misses


def _run_day(dtype: str, steps: int) -> dict:
    """One warmed coupled day; returns wall time + workspace accounting."""
    cfg = _test_config()
    cfg.dtype = dtype
    model = FoamModel(cfg)
    state = model.initial_state()
    for _ in range(WARMUP_STEPS):
        state = model.coupled_step(state)

    before = workspace_totals()
    prof = enable_profiling()
    prof.reset()
    t0 = time.perf_counter()
    try:
        for _ in range(steps):
            state = model.coupled_step(state)
    finally:
        prof.disable()
    wall = time.perf_counter() - t0
    after = workspace_totals()
    profile = take_profile(label=f"backend bench {dtype}")

    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    requests = hits + misses
    ocn_hits, ocn_misses = _section_ws_counters(profile, "ocean")
    atm_hits, atm_misses = _section_ws_counters(profile, "atmosphere")
    return {
        "dtype": dtype,
        "steps": steps,
        "wall_seconds": wall,
        "step_seconds": wall / steps,
        "ws_hits": hits,
        "ws_misses": misses,
        "ws_requests": requests,
        "hit_rate": hits / requests if requests else 0.0,
        "ws_buffers": after["buffers"],
        "ws_nbytes": after["nbytes"],
        "ocean": {"ws_hits": ocn_hits, "ws_misses": ocn_misses},
        "atmosphere": {"ws_hits": atm_hits, "ws_misses": atm_misses},
    }


def test_backend_workspace_day(benchmark):
    steps = backend_measure_steps()

    f64 = benchmark.pedantic(
        _run_day, kwargs={"dtype": "float64", "steps": steps},
        rounds=1, iterations=1)
    f32 = _run_day("float32", steps=steps)

    # ISSUE 4 acceptance: the warmed workspace serves >= 50 % of hot-path
    # temporary requests from reused buffers (it is ~100 % in practice),
    # both overall and within the ocean and spectral-atmosphere sections.
    for run in (f64, f32):
        assert run["ws_requests"] > 0, "workspace layer saw no requests"
        assert run["hit_rate"] >= 0.5, (
            f"{run['dtype']}: hit rate {run['hit_rate']:.2%} below 50 %")
        for part in ("ocean", "atmosphere"):
            h, m = run[part]["ws_hits"], run[part]["ws_misses"]
            assert h + m > 0, f"{part} kernels made no workspace requests"
            assert h / (h + m) >= 0.5, (
                f"{run['dtype']}/{part}: hit rate {h / (h + m):.2%}")

    out_path = os.environ.get("BENCH_BACKEND_PATH", "BENCH_backend.json")
    payload = {
        "config": "test",
        "measured_steps": steps,
        "warmup_steps": WARMUP_STEPS,
        "runs": {"float64": f64, "float32": f32},
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    report("Ebackend: workspace + precision (test config, "
           f"{steps} coupled steps)", [
        ("float64 day wall", "baseline", f"{f64['wall_seconds']:.3f} s"),
        ("float32 day wall", "<= ~baseline", f"{f32['wall_seconds']:.3f} s"),
        ("float64 ws hit rate", ">= 50%", f"{f64['hit_rate']:.1%}"),
        ("float32 ws hit rate", ">= 50%", f"{f32['hit_rate']:.1%}"),
        ("ocean hit rate (f64)", ">= 50%",
         f"{f64['ocean']['ws_hits'] / max(1.0, sum(f64['ocean'].values())):.1%}"),
        ("backend artifact", "BENCH_backend.json", out_path),
    ])
    assert os.path.exists(out_path)


def test_backend_legendre_kernel(benchmark):
    """ISSUE 5 satellite: batched Legendre kernels vs the per-m loop.

    Times the stacked recurrence (``associated_legendre`` +
    ``legendre_derivative``) against the retained loop oracles at the
    paper's R15 table size, asserts bitwise agreement, and merges a
    ``legendre`` entry (speedup + plan-cache stats) into
    ``BENCH_backend.json`` — creating the file when this bench runs alone.
    """
    from repro.atmosphere.spectral import (
        SpectralTransform,
        Truncation,
        _associated_legendre_ref,
        _legendre_derivative_ref,
        associated_legendre,
        clear_legendre_plans,
        gaussian_latitudes,
        legendre_derivative,
        legendre_plan_stats,
    )

    nlat, mmax, nkmax = 40, 15, 17          # R15 extended table
    mu, _ = gaussian_latitudes(nlat)
    repeats = 3 if os.environ.get("FOAM_BENCH_FAST") else 7

    # Bitwise contract first: the batched kernels ARE the loop kernels.
    pbar_ext = associated_legendre(mu, mmax, nkmax)
    assert pbar_ext.tobytes() == _associated_legendre_ref(mu, mmax, nkmax).tobytes()
    assert legendre_derivative(mu, pbar_ext).tobytes() == \
        _legendre_derivative_ref(mu, pbar_ext).tobytes()

    def _kernels_batched():
        p = associated_legendre(mu, mmax, nkmax)
        return legendre_derivative(mu, p)

    def _kernels_loop():
        p = _associated_legendre_ref(mu, mmax, nkmax)
        return _legendre_derivative_ref(mu, p)

    def _min_time(fn):
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    batched = _min_time(_kernels_batched)
    benchmark.pedantic(_kernels_batched, rounds=1, iterations=1)
    loop = _min_time(_kernels_loop)
    speedup = loop / batched

    # Plan cache: two same-resolution transforms share one build.
    clear_legendre_plans()
    SpectralTransform(nlat=nlat, nlon=48, trunc=Truncation(mmax))
    SpectralTransform(nlat=nlat, nlon=48, trunc=Truncation(mmax))
    stats = legendre_plan_stats()
    assert stats["builds"] == 1 and stats["hits"] >= 1

    out_path = os.environ.get("BENCH_BACKEND_PATH", "BENCH_backend.json")
    payload = {}
    if os.path.exists(out_path):
        with open(out_path) as fh:
            payload = json.load(fh)
    payload["legendre"] = {
        "table": {"nlat": nlat, "mmax": mmax, "nkmax": nkmax},
        "loop_seconds": loop,
        "batched_seconds": batched,
        "speedup": speedup,
        "plan_cache": stats,
        "repeats": repeats,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    report("Ebackend: batched Legendre kernels (R15 tables)", [
        ("loop kernels", "baseline", f"{loop * 1e3:.2f} ms"),
        ("batched kernels", "faster", f"{batched * 1e3:.2f} ms"),
        ("kernel speedup", "> 1x", f"{speedup:.2f}x"),
        ("plan builds for 2 transforms", "1", str(stats["builds"])),
    ])
    # The batching exists for speed; at R15 size it must not be slower.
    assert speedup > 1.0, f"batched kernels slower than loop: {speedup:.2f}x"
