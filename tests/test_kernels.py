"""Spectral kernels against the unfused oracles.

The transforms sum their Legendre series as BLAS GEMMs since numerics
epoch 2, the seed-era formulation (``tests/oracles.py``) by ``einsum``:
the two agree to the epoch's stated tolerance
(``tests.helpers.ORACLE_RTOL``), while a batched call equals its own
per-slice calls bit for bit (``TestModeIndependence``).  Covers serial
(2-D) and batched (nlev, nens=3) inputs on a rhomboidal truncation and the
workspace-resident elementwise chains, which stay bitwise.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.atmosphere.dynamics import robert_filter
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.backend import get_workspace
from tests import oracles as K
from tests.helpers import assert_matches_oracle as _matches
from tests.oracles import bitwise as _bitwise

NLAT, NLON, MMAX = 24, 48, 10
L, E = 3, 3


# The id names the truncation: rhomboidal is the only one there is.
@pytest.fixture(params=["rhomboidal"])
def tr():
    return SpectralTransform(NLAT, NLON, Truncation(MMAX))


@pytest.fixture()
def fields(tr):
    rng = np.random.default_rng(42)
    spec = (rng.normal(size=(L, E) + tr.spec_shape)
            + 1j * rng.normal(size=(L, E) + tr.spec_shape))
    spec[..., 0, :] = spec[..., 0, :].real   # m=0 of a real field is real
    grid = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    u = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    v = rng.normal(size=(L, E, tr.nlat, tr.nlon))
    return spec, grid, u, v


# ---------------------------------------------------------------------------
# fused == unfused oracle to the epoch's tolerance, serial and batched
# ---------------------------------------------------------------------------
class TestFusedBitwise:
    """(The name is the epoch-1 one: kernel and oracle were bitwise equal
    while both summed by ``einsum``.)"""

    def test_analyze(self, tr, fields):
        _, grid, _, _ = fields
        batched = tr.analyze(grid)
        _matches(tr, tr.analyze(grid[0, 0]), K.analyze_ref(tr, grid[0, 0]))
        for l in range(L):
            for e in range(E):
                _matches(tr, batched[l, e], K.analyze_ref(tr, grid[l, e]))

    def test_synthesize(self, tr, fields):
        spec, _, _, _ = fields
        batched = tr.synthesize(spec)
        _matches(tr, tr.synthesize(spec[0, 0]), K.synthesize_ref(tr, spec[0, 0]))
        for l in range(L):
            for e in range(E):
                _matches(tr, batched[l, e], K.synthesize_ref(tr, spec[l, e]))

    def test_synthesize_many(self, tr, fields):
        spec, _, _, _ = fields
        a, b, c = spec, spec * 2.0, spec * 0.5
        ga, gb, gc = tr.synthesize_many(a, b, c)
        for got, src in ((ga, a), (gb, b), (gc, c)):
            for l in range(L):
                for e in range(E):
                    _matches(tr, got[l, e], K.synthesize_ref(tr, src[l, e]))

    def test_uv_from_vortdiv(self, tr, fields):
        spec, _, _, _ = fields
        vs, ds = spec, spec * 0.3
        bu, bv = tr.uv_from_vortdiv(vs, ds)
        su, sv = tr.uv_from_vortdiv(vs[0, 0], ds[0, 0])
        ru, rv = K.uv_from_vortdiv_ref(tr, vs[0, 0], ds[0, 0])
        _matches(tr, su, ru)
        _matches(tr, sv, rv)
        for l in range(L):
            for e in range(E):
                ru, rv = K.uv_from_vortdiv_ref(tr, vs[l, e], ds[l, e])
                _matches(tr, bu[l, e], ru)
                _matches(tr, bv[l, e], rv)

    def test_vortdiv_from_uv(self, tr, fields):
        _, _, u, v = fields
        bz, bd = tr.vortdiv_from_uv(u, v)
        for l in range(L):
            for e in range(E):
                rz, rd = K.vortdiv_from_uv_ref(tr, u[l, e], v[l, e])
                _matches(tr, bz[l, e], rz)
                _matches(tr, bd[l, e], rd)

    def test_gradient(self, tr, fields):
        spec, _, _, _ = fields
        bx, by = tr.gradient(spec)
        for l in range(L):
            for e in range(E):
                rx, ry = K.gradient_ref(tr, spec[l, e])
                _matches(tr, bx[l, e], rx)
                _matches(tr, by[l, e], ry)

    def test_roundtrip_identity(self, tr, fields):
        spec, _, _, _ = fields
        back = tr.analyze(tr.synthesize(spec))
        assert np.allclose(back, spec, atol=1e-12)

    @pytest.mark.parametrize("single", [False, True],
                             ids=["double", "single"])
    @pytest.mark.parametrize("pick", [(0, 0), (slice(None), slice(0, 1))],
                             ids=["lone2d", "L1"])
    def test_short_batches_and_single_precision_input(self, tr, fields,
                                                      pick, single):
        """The shortest operands — a lone 2-D field and an ``(L, 1)`` lead
        (a non-contiguous slice: the GEMMs read it in place) — and single
        precision (``complex64`` fields viewed as float32 columns against
        float32 tables): all six operators against the per-field oracles,
        dtype and shape exactly, values to the stated bound."""
        spec, grid, u, v = (a[pick] for a in fields)
        if single:
            tr = SpectralTransform(NLAT, NLON, tr.trunc, dtype="float32")
            spec = spec.astype(np.complex64)
            grid, u, v = (a.astype(np.float32) for a in (grid, u, v))
        lead = spec.shape[:-2]

        def per_field(ref, *args):
            """``ref`` on every leading index, restacked per output."""
            outs = [ref(tr, *(a[i] for a in args)) for i in np.ndindex(lead)]
            if not isinstance(outs[0], tuple):
                outs = [(o,) for o in outs]
            return [np.stack(o).reshape(lead + o[0].shape) for o in zip(*outs)]

        d = spec * 0.3
        cases = (
            ((tr.analyze(grid),), per_field(K.analyze_ref, grid)),
            ((tr.synthesize(spec),), per_field(K.synthesize_ref, spec)),
            (tr.synthesize_many(spec, d),
             per_field(K.synthesize_ref, spec) + per_field(K.synthesize_ref, d)),
            (tr.uv_from_vortdiv(spec, d),
             per_field(K.uv_from_vortdiv_ref, spec, d)),
            (tr.vortdiv_from_uv(u, v), per_field(K.vortdiv_from_uv_ref, u, v)),
            (tr.gradient(spec), per_field(K.gradient_ref, spec)),
        )
        for got, want in cases:
            assert len(got) == len(want)
            for g, w in zip(got, want):
                _matches(tr, g, w)


# ---------------------------------------------------------------------------
# a batched call is its own per-slice calls, bit for bit
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("nens", [1, 3, 16])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("kind", ["rhomboidal"])    # the id, as above
class TestModeIndependence:
    """No GEMM's shape depends on the levels or members present, so the
    ``(L, E, ...)`` call of an operator, its per-level ``(E, ...)`` calls
    (a batched ``lnps`` is one), its per-member ``(L, ...)`` calls
    (non-contiguous slices) and its lone 2-D calls all issue the same GEMMs
    on the same bytes: equal bit for bit, in both precisions."""

    def test_six_operators(self, kind, dtype, nens):
        tr = SpectralTransform(NLAT, NLON, Truncation(MMAX), dtype=dtype)
        rng = np.random.default_rng(7)
        cdt, fdt = tr.policy.complex_dtype, tr.policy.float_dtype

        def spec():
            a = (rng.normal(size=(L, nens) + tr.spec_shape)
                 + 1j * rng.normal(size=(L, nens) + tr.spec_shape))
            a[..., 0, :] = a[..., 0, :].real
            return a.astype(cdt)

        def grid():
            return rng.normal(size=(L, nens, tr.nlat, tr.nlon)).astype(fdt)

        cases = {
            "analyze": (lambda g: (tr.analyze(g),), (grid(),)),
            "synthesize": (lambda a: (tr.synthesize(a),), (spec(),)),
            "synthesize_many": (tr.synthesize_many, (spec(), spec(), spec())),
            "uv_from_vortdiv": (tr.uv_from_vortdiv, (spec(), spec())),
            "vortdiv_from_uv": (tr.vortdiv_from_uv, (grid(), grid())),
            "gradient": (tr.gradient, (spec(),)),
        }
        for name, (op, args) in cases.items():
            whole = op(*args)
            for pick in ([(l,) for l in range(L)]
                         + [(slice(None), e) for e in range(nens)]
                         + [(l, e) for l in range(L) for e in range(nens)]):
                for got, want in zip(whole, op(*(a[pick] for a in args))):
                    assert _bitwise(got[pick], want), (name, pick)

    def test_implicit_update(self, kind, dtype, nens):
        from repro.atmosphere.dynamics import (
            AtmosphereState,
            SpectralDynamicalCore,
        )
        from repro.atmosphere.vertical import VerticalGrid
        from repro.core.ensemble import member_state

        tr = SpectralTransform(NLAT, NLON, Truncation(MMAX), dtype=dtype)
        core = SpectralDynamicalCore(tr, VerticalGrid.ccm_like(nlev=5))
        nlev = core.vg.nlev
        rng = np.random.default_rng(8)

        def spec(lead, scale):
            a = (rng.normal(size=lead + tr.spec_shape)
                 + 1j * rng.normal(size=lead + tr.spec_shape)) * scale
            return a.astype(tr.policy.complex_dtype)

        prev = AtmosphereState(
            vort=spec((nlev, nens), 1e-5), div=spec((nlev, nens), 1e-5),
            temp=spec((nlev, nens), 1.0), lnps=spec((nens,), 1e-2),
            q=np.zeros((nlev, nens, tr.nlat, tr.nlon)))
        n_div, n_temp = spec((nlev, nens), 1e-9), spec((nlev, nens), 1e-5)
        n_pi = spec((nens,), 1e-7)
        whole = core._implicit_update(prev, n_div, n_temp, n_pi)
        for e in range(nens):
            alone = core._implicit_update(*member_state(
                (prev, n_div, n_temp, n_pi), e))
            for got, want in zip(whole, alone):
                assert _bitwise(got[..., e, :, :], want), e


# ---------------------------------------------------------------------------
# fused elementwise chains
# ---------------------------------------------------------------------------
class TestElementwiseChains:
    def test_robert_filter_scalar(self):
        rng = np.random.default_rng(3)
        prev = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        curr = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        new = rng.normal(size=(L, 8, 8)) + 1j * rng.normal(size=(L, 8, 8))
        filt = 0.04
        got = robert_filter(prev, curr, new, filt)
        want = curr + filt * (prev - 2 * curr + new)
        assert _bitwise(got, want)

    def test_robert_filter_per_member(self):
        rng = np.random.default_rng(4)
        shape = (L, E, 8, 8)
        prev, curr, new = (rng.normal(size=shape) for _ in range(3))
        filt = np.array([0.02, 0.04, 0.08]).reshape(E, 1, 1)
        got = robert_filter(prev, curr, new, filt)
        want = curr + filt * (prev - 2 * curr + new)
        assert _bitwise(got, want)

    def test_pp_viscosity_matches_expression(self):
        from repro.ocean.mixing import PPMixingParams, pp_viscosity
        rng = np.random.default_rng(5)
        ri = rng.normal(loc=1.0, scale=2.0, size=(4, 6, 6))
        p = PPMixingParams()
        nu, kappa = pp_viscosity(ri, p)
        ri_c = np.clip(ri, 0.0, p.ri_max)
        denom = 1.0 + p.alpha * ri_c
        nu_ref = p.nu0 / denom**p.exponent + p.nu_background
        kap_ref = (p.nu0 / denom**p.exponent) / denom + p.kappa_background
        unstable = ri < 0.0
        assert _bitwise(nu, np.where(unstable, p.convective_kappa, nu_ref))
        assert _bitwise(kappa, np.where(unstable, p.convective_kappa, kap_ref))

    def test_richardson_matches_expression(self):
        from repro.ocean.mixing import richardson_number
        rng = np.random.default_rng(6)
        u, v = rng.normal(size=(2, 5, 6, 6))
        n_sq = rng.normal(size=(4, 6, 6)) ** 2
        z = -np.cumsum(np.ones(5) * 10.0)
        got = richardson_number(u, v, n_sq, z)
        dz = (z[1:] - z[:-1]).reshape(-1, 1, 1)
        du = (u[1:] - u[:-1]) / dz
        dv = (v[1:] - v[:-1]) / dz
        want = n_sq / (du * du + dv * dv + 1e-10)
        assert _bitwise(got, want)

    def test_zeros_once_keeps_tail(self):
        ws = get_workspace()
        buf = ws.zeros_once("test.zeros_once", (4, 4), np.float64)
        assert np.all(buf == 0.0)
        buf[0] = 7.0
        again = ws.zeros_once("test.zeros_once", (4, 4), np.float64)
        assert again is buf
        assert np.all(again[0] == 7.0)       # hits do NOT re-zero
        assert np.all(again[1:] == 0.0)      # untouched region stays zero


# ---------------------------------------------------------------------------
# batched ensemble diagnostics == per-member serial metrics
# ---------------------------------------------------------------------------
def test_ensemble_member_metrics_match_serial():
    """One ``state_metrics`` for both: a batched state leaves the member
    axis, and each entry is that member's serial value."""
    from repro.core import EnsembleConfig, FoamEnsemble, test_config
    from repro.scenarios.climatology import member_rows, state_metrics

    ens = FoamEnsemble(EnsembleConfig(nens=3, base=test_config(),
                                      ic_perturbation=1e-7))
    state = ens.initial_state()
    for _ in range(4):
        state = ens.step(state)
    batched = member_rows(state_metrics(ens.model, state))
    assert len(batched) == 3
    for e, got in enumerate(batched):
        (want,) = member_rows(
            state_metrics(ens.model, ens.member_state(state, e)))
        assert set(got) == set(want)
        assert want["evap_mm_day"] > 0.0 and want["ocean_heat_j"] > 0.0
        for key in want:
            assert got[key] == want[key], (
                f"member {e} metric {key}")

