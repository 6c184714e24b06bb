"""Spectral-kernel benchmark (ISSUE 10).

Headline number: **fused vs unfused speedup on the batched spectral
transform section** at nens=16 on the tier-1 test grid.  "Fused" is what
:class:`~repro.atmosphere.spectral.SpectralTransform` runs — stacked
Legendre einsums over all (level, member) slices at once,
workspace-resident intermediates, one irfft per direction pair.  "Unfused"
is the seed-era formulation it replaced: a python loop over every
(level, member) slice calling the naive 2-D reference kernels
(``analyze_ref`` & co — the same oracles the bitwise tests pin against).

Persists ``BENCH_kernels.json`` (set ``BENCH_KERNELS_PATH`` to move it):
the machine-checkable record that the fused spectral section beats the
unfused loop by >= 1.5x at nens=16.
"""

import json
import os
import time

import numpy as np

from conftest import report
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.backend import kernels as K
# Alias keeps pytest from collecting the config factory as a test.
from repro.core.config import test_config as _test_config

GATE_NENS = 16
NENS_SWEEP = (1, 4, 16)
WARMUP_REPS = 2


def _fast() -> bool:
    return bool(os.environ.get("FOAM_BENCH_FAST"))


def _section_reps() -> int:
    return 3 if _fast() else 10


def _rounds(nens: int) -> int:
    if _fast():
        return 2
    return 6 if nens == GATE_NENS else 3


def _make_transform() -> SpectralTransform:
    cfg = _test_config()
    return SpectralTransform(cfg.atm_nlat, cfg.atm_nlon,
                             Truncation(cfg.atm_mmax))


def _make_fields(tr: SpectralTransform, nens: int):
    cfg = _test_config()
    rng = np.random.default_rng(7)
    shape = (cfg.atm_nlev, nens) if nens > 1 else (cfg.atm_nlev,)
    spec = (rng.normal(size=shape + tr.spec_shape)
            + 1j * rng.normal(size=shape + tr.spec_shape))
    spec[..., 0, :] = spec[..., 0, :].real
    spec = spec * tr._mask
    grid = rng.normal(size=shape + (tr.nlat, tr.nlon))
    u = rng.normal(size=shape + (tr.nlat, tr.nlon))
    v = rng.normal(size=shape + (tr.nlat, tr.nlon))
    return spec, grid, u, v


def _fused_section(tr, spec, grid, u, v, reps: int) -> None:
    """One batched pass over every transform the dycore's hot loop uses."""
    for _ in range(reps):
        tr.analyze(grid)
        tr.synthesize_many(spec, spec, spec)
        tr.uv_from_vortdiv(spec, spec)
        tr.vortdiv_from_uv(u, v)
        tr.gradient(spec)


def _unfused_section(tr, spec, grid, u, v, reps: int) -> None:
    """The loop the batched transforms replaced: naive 2-D kernels per slice."""
    flat_spec = spec.reshape((-1,) + tr.spec_shape)
    flat_grid = grid.reshape((-1, tr.nlat, tr.nlon))
    flat_u = u.reshape((-1, tr.nlat, tr.nlon))
    flat_v = v.reshape((-1, tr.nlat, tr.nlon))
    n = flat_spec.shape[0]
    for _ in range(reps):
        for i in range(n):
            K.analyze_ref(tr, flat_grid[i])
            for _f in range(3):
                K.synthesize_ref(tr, flat_spec[i])
            K.uv_from_vortdiv_ref(tr, flat_spec[i], flat_spec[i])
            K.vortdiv_from_uv_ref(tr, flat_u[i], flat_v[i])
            K.gradient_ref(tr, flat_spec[i])


def _compare_section(nens: int, reps: int) -> dict:
    """Time fused vs unfused spectral sections, interleaved best-of."""
    tr = _make_transform()
    spec, grid, u, v = _make_fields(tr, nens)
    _fused_section(tr, spec, grid, u, v, WARMUP_REPS)
    _unfused_section(tr, spec, grid, u, v, 1)

    fused_best = unfused_best = float("inf")
    for _ in range(_rounds(nens)):
        t0 = time.perf_counter()
        _fused_section(tr, spec, grid, u, v, reps)
        fused_best = min(fused_best, time.perf_counter() - t0)

        t0 = time.perf_counter()
        _unfused_section(tr, spec, grid, u, v, reps)
        unfused_best = min(unfused_best, time.perf_counter() - t0)

    return {
        "nens": nens,
        "reps": reps,
        "fused_seconds": fused_best,
        "unfused_seconds": unfused_best,
        "speedup": unfused_best / fused_best,
    }


def test_kernel_plan_speedup(benchmark):
    reps = _section_reps()

    runs = {}
    for nens in NENS_SWEEP:
        if nens == GATE_NENS:
            runs[str(nens)] = benchmark.pedantic(
                _compare_section, kwargs={"nens": nens, "reps": reps},
                rounds=1, iterations=1)
        else:
            runs[str(nens)] = _compare_section(nens, reps)

    gate = runs[str(GATE_NENS)]["speedup"]
    # The FAST smoke job measures too few reps for a tight bound; it gates
    # on a sanity threshold and the full run enforces the real one.
    floor = 1.2 if _fast() else 1.5

    # Persist the artifact before asserting so a failed gate still uploads
    # the measurements that explain it.
    out_path = os.environ.get("BENCH_KERNELS_PATH", "BENCH_kernels.json")
    payload = {
        "config": "test",
        "section_reps": reps,
        "rounds": {str(n): _rounds(n) for n in NENS_SWEEP},
        "nens_sweep": list(NENS_SWEEP),
        "gate": {"nens": GATE_NENS, "speedup": gate, "floor": floor},
        "runs": runs,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)

    rows = []
    for nens in NENS_SWEEP:
        r = runs[str(nens)]
        rows.append((f"nens={nens} fused section s", "< unfused",
                     f"{r['fused_seconds']:.4f}"))
        rows.append((f"nens={nens} unfused section s", "baseline",
                     f"{r['unfused_seconds']:.4f}"))
        rows.append((f"nens={nens} speedup", ">= 1.5x @ 16",
                     f"{r['speedup']:.2f}x"))
    rows.append(("kernels artifact", "BENCH_kernels.json", out_path))
    report(f"Spectral kernels: fused vs unfused (test grid, {reps} reps)", rows)

    # ISSUE 10 acceptance: the fused batched spectral section beats the
    # unfused per-slice loop by >= 1.5x at nens=16 on the tier-1 grid.
    assert gate >= floor, (
        f"nens={GATE_NENS} fused speedup {gate:.2f}x below {floor}x")
    # Fusing must never lose to the unfused loop at any batch size.
    for nens in NENS_SWEEP:
        assert runs[str(nens)]["speedup"] >= 1.0, (
            f"nens={nens}: speedup {runs[str(nens)]['speedup']:.2f}x")
