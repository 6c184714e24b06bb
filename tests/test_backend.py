"""Tests for ``repro.backend``: dtype policy, workspace arena, float32
drift bounds, and the bitwise golden regression that pins the default
float64 configuration to the seed model trajectory.
"""

from pathlib import Path

import numpy as np
import pytest

from repro.backend import (
    FLOAT32,
    FLOAT64,
    Workspace,
    default_policy,
    get_workspace,
    policy_from_name,
    workspace_totals,
)
from repro.core.config import test_config as _test_config
from repro.core.foam import FoamModel

GOLDEN = Path(__file__).parent / "data" / "golden_backend_float64.npz"
#: The numerics epoch the golden file was written in (DESIGN.md "State
#: layout": bitwise within a build, tolerances across an epoch).  A deliberate
#: change of arithmetic bumps this and regenerates the file, once, with
#:     PYTHONPATH=src python -m tests.test_backend
#: Epoch 1: the polar smoother's weights are periodic per level.
#: Epoch 2: the atmosphere's Legendre sums and semi-implicit solve are BLAS
#: GEMMs (the file pins one BLAS kernel family, as ``tensordot(G, T)`` and
#: ``inv @ rhs`` already made it).
GOLDEN_EPOCH = 2


def _run_coupled(dtype: str, steps: int):
    cfg = _test_config()
    cfg.dtype = dtype
    model = FoamModel(cfg)
    state = model.initial_state()
    for _ in range(steps):
        state = model.coupled_step(state)
    return model, state


def _golden_fields() -> dict:
    """Six coupled float64 steps of the test config, as the golden names them."""
    _, s = _run_coupled("float64", 6)
    return {
        "vort": s.atm_curr.vort, "temp": s.atm_curr.temp,
        "lnps": s.atm_curr.lnps, "q": s.atm_curr.q,
        "otemp": s.ocean.temp, "osalt": s.ocean.salt,
        "eta": s.ocean.eta, "ubar": s.ocean.ubar, "vbar": s.ocean.vbar,
    }


# ---------------------------------------------------------------------------
# DTypePolicy
# ---------------------------------------------------------------------------
class TestDTypePolicy:
    def test_names_resolve(self):
        """Two names, spelled as the CLIs and ``FOAM_DTYPE`` offer them."""
        assert policy_from_name("float64") is FLOAT64
        assert policy_from_name("float32") is FLOAT32
        for retired in ("f64", "double", "fp64", "f32", "single", "fp32",
                        "Float32"):
            with pytest.raises(ValueError, match="unknown dtype policy"):
                policy_from_name(retired)

    def test_passthrough_and_default(self):
        assert policy_from_name(FLOAT32) is FLOAT32
        assert policy_from_name(None) is default_policy()

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown dtype policy"):
            policy_from_name("float16")

    def test_pairs_and_bytes(self):
        assert FLOAT64.complex_dtype == np.dtype(np.complex128)
        assert FLOAT32.complex_dtype == np.dtype(np.complex64)
        assert FLOAT64.float_dtype == np.dtype(np.float64)
        assert FLOAT32.float_dtype == np.dtype(np.float32)

    def test_env_selection(self, monkeypatch):
        monkeypatch.setenv("FOAM_DTYPE", "float32")
        assert default_policy() is FLOAT32
        monkeypatch.delenv("FOAM_DTYPE")
        assert default_policy() is FLOAT64


# ---------------------------------------------------------------------------
# Workspace arena
# ---------------------------------------------------------------------------
class TestWorkspace:
    def test_hit_miss_accounting(self):
        ws = Workspace()
        a = ws.empty("t.a", (3, 4), np.float64)
        assert ws.misses == 1 and ws.hits == 0
        b = ws.empty("t.a", (3, 4), np.float64)
        assert b is a and ws.hits == 1
        # A different shape or dtype or name is a distinct buffer.
        assert ws.empty("t.a", (4, 3), np.float64) is not a
        assert ws.empty("t.a", (3, 4), np.float32) is not a
        assert ws.empty("t.b", (3, 4), np.float64) is not a
        assert len(ws) == 4

    def test_zeros_refill_bitwise(self):
        ws = Workspace()
        buf = ws.zeros("t.z", (5,), np.float64)
        buf[:] = np.pi
        again = ws.zeros("t.z", (5,), np.float64)
        assert again is buf
        fresh = np.zeros(5)
        assert np.array_equal(again, fresh)
        assert np.array_equal(again.view(np.uint64), fresh.view(np.uint64))

    def test_like_helpers(self):
        ws = Workspace()
        ref = np.ones((2, 2), dtype=np.complex64)
        assert ws.empty_like("t.e", ref).dtype == np.complex64
        z = ws.zeros_like("t.zl", ref)
        assert z.shape == (2, 2) and not z.any()

    def test_nbytes_and_clear(self):
        ws = Workspace()
        ws.empty("t.a", (10,), np.float64)
        assert ws.nbytes == 80
        ws.clear()
        assert len(ws) == 0 and ws.hits == 0 and ws.misses == 0

    def test_totals_aggregate(self):
        # One arena per process: the totals are the default arena's.
        before = workspace_totals()
        ws = get_workspace()
        assert get_workspace() is ws
        ws.empty("t.tot", (7,), np.float64)
        ws.empty("t.tot", (7,), np.float64)
        after = workspace_totals()
        assert after["misses"] - before["misses"] >= 1
        assert after["hits"] - before["hits"] >= 1
        assert after["nbytes"] >= before["nbytes"] + 56


# ---------------------------------------------------------------------------
# Precision: float32 runs, stays float32, and drifts boundedly
# ---------------------------------------------------------------------------
class TestFloat32Integration:
    def test_float32_coupled_day_bounded_drift(self):
        steps = 24                              # one simulated day (test cfg)
        m64, s64 = _run_coupled("float64", steps)
        m32, s32 = _run_coupled("float32", steps)

        # State arrays carry the policy dtype all the way through.
        assert s32.atm_curr.vort.dtype == np.complex64
        assert s32.atm_curr.q.dtype == np.float32
        assert s32.ocean.temp.dtype == np.float32
        assert s32.ocean.eta.dtype == np.float32
        assert s64.atm_curr.vort.dtype == np.complex128

        # Conserved-quantity drift between precisions stays bounded: the
        # trajectories decorrelate pointwise, but mass (area-mean surface
        # pressure), column energy, and ocean kinetic energy must agree to
        # within far-better-than-single-precision-accumulation bounds.
        mass64 = m64.dycore.global_mass(s64.atm_curr)
        mass32 = m32.dycore.global_mass(s32.atm_curr)
        assert np.isfinite(mass32)
        assert abs(mass32 - mass64) / abs(mass64) < 1e-4

        e64 = m64.dycore.total_energy(s64.atm_curr)
        e32 = m32.dycore.total_energy(s32.atm_curr)
        assert np.isfinite(e32)
        assert abs(e32 - e64) / abs(e64) < 1e-3

        ke64 = m64.ocean.total_kinetic_energy(s64.ocean)
        ke32 = m32.ocean.total_kinetic_energy(s32.ocean)
        assert np.isfinite(ke32)
        assert abs(ke32 - ke64) / max(abs(ke64), 1e-12) < 5e-2

        for arr in (s32.atm_curr.temp, s32.atm_curr.q, s32.ocean.temp,
                    s32.ocean.salt, s32.ocean.eta):
            assert np.all(np.isfinite(arr))


# ---------------------------------------------------------------------------
# Bitwise golden regression: default policy == pre-backend trajectory
# ---------------------------------------------------------------------------
class TestGoldenRegression:
    def test_default_float64_bitwise_golden(self):
        """Six coupled steps of the test config reproduce the stored golden
        trajectory bit for bit.  ``dtype`` is pinned explicitly so the test
        also passes under a ``FOAM_DTYPE=float32`` CI environment — it pins
        the *default policy's* arithmetic, not the ambient environment.
        """
        golden = np.load(GOLDEN)
        assert int(golden["epoch"]) == GOLDEN_EPOCH
        for name, arr in _golden_fields().items():
            ref = golden[name]
            assert arr.dtype == ref.dtype, f"{name}: dtype changed"
            assert np.array_equal(arr, ref), (
                f"{name}: trajectory diverged bitwise from the golden file; "
                "the default float64 path must stay bit-identical — if the "
                "numerics changed intentionally, that is a new epoch: see "
                "GOLDEN_EPOCH")


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, epoch=GOLDEN_EPOCH, **_golden_fields())
    print(f"wrote {GOLDEN} (epoch {GOLDEN_EPOCH})")
