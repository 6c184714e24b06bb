"""Tests for the spherical-harmonic transform core (repro.atmosphere.spectral)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atmosphere.spectral import (
    SpectralTransform,
    Truncation,
    associated_legendre,
    gaussian_latitudes,
)
from repro.util.constants import EARTH_RADIUS


@pytest.fixture(scope="module")
def r15():
    """The paper's atmosphere resolution: R15 on a 48x40 grid."""
    return SpectralTransform(nlat=40, nlon=48, trunc=Truncation(15))


# ----------------------------------------------------------- Gaussian grid
def test_gaussian_latitudes_sorted_and_symmetric():
    mu, w = gaussian_latitudes(40)
    assert np.all(np.diff(mu) > 0)
    np.testing.assert_allclose(mu, -mu[::-1], atol=1e-14)
    np.testing.assert_allclose(w, w[::-1], atol=1e-14)
    np.testing.assert_allclose(w.sum(), 2.0, atol=1e-13)


def test_gaussian_quadrature_exact_for_polynomials():
    mu, w = gaussian_latitudes(8)
    # Exact for polynomials up to degree 15.
    for p in range(0, 16, 2):
        np.testing.assert_allclose(np.sum(w * mu**p), 2.0 / (p + 1), atol=1e-12)
    for p in range(1, 16, 2):
        np.testing.assert_allclose(np.sum(w * mu**p), 0.0, atol=1e-13)


def test_gaussian_latitudes_rejects_tiny():
    with pytest.raises(ValueError):
        gaussian_latitudes(1)


# ----------------------------------------------------------- Legendre table
def test_legendre_orthonormality():
    """(1/2) int Pbar_n^m Pbar_l^m dmu = delta_nl via Gaussian quadrature."""
    mu, w = gaussian_latitudes(48)
    pbar = associated_legendre(mu, mmax=10, nkmax=11)
    for m in [0, 1, 5, 10]:
        block = pbar[:, m, :]  # (nlat, nk): columns are n = m..m+10
        gram = np.einsum("j,jk,jl->kl", w / 2.0, block, block)
        np.testing.assert_allclose(gram, np.eye(block.shape[1]), atol=1e-10)


def test_legendre_known_values():
    """Check Pbar against hand-normalized low-order Legendre polynomials."""
    mu, _ = gaussian_latitudes(16)
    pbar = associated_legendre(mu, mmax=2, nkmax=3)
    np.testing.assert_allclose(pbar[:, 0, 0], np.ones_like(mu), atol=1e-13)
    # Pbar_1^0 = sqrt(3) mu
    np.testing.assert_allclose(pbar[:, 0, 1], np.sqrt(3.0) * mu, atol=1e-12)
    # Pbar_2^0 = sqrt(5)/2 (3 mu^2 - 1)
    np.testing.assert_allclose(pbar[:, 0, 2], np.sqrt(5.0) / 2 * (3 * mu**2 - 1), atol=1e-12)
    # Pbar_1^1 = sqrt(3/2) cos(lat)
    np.testing.assert_allclose(pbar[:, 1, 0], np.sqrt(1.5) * np.sqrt(1 - mu**2), atol=1e-12)


# ----------------------------------------------------------- truncation
def test_truncation_validation():
    with pytest.raises(ValueError):
        Truncation(0)


def test_transform_rejects_aliasing_grid():
    with pytest.raises(ValueError, match="alias"):
        SpectralTransform(nlat=40, nlon=24, trunc=Truncation(15))
    with pytest.raises(ValueError, match="quadrature"):
        SpectralTransform(nlat=10, nlon=48, trunc=Truncation(15))


# ----------------------------------------------------------- transforms
def test_roundtrip_bandlimited_field(r15):
    """synthesize(analyze(f)) == f for a field inside the truncation."""
    rng = np.random.default_rng(0)
    spec = (rng.normal(size=r15.spec_shape) + 1j * rng.normal(size=r15.spec_shape))
    spec[0, :] = spec[0, :].real  # m=0 coefficients of real fields are real
    grid = r15.synthesize(spec)
    spec2 = r15.analyze(grid)
    np.testing.assert_allclose(spec2, spec, atol=1e-10)


def test_constant_field_maps_to_mean_mode(r15):
    grid = np.full((40, 48), 7.25)
    spec = r15.analyze(grid)
    assert spec[0, 0] == pytest.approx(7.25, abs=1e-12)
    off = spec.copy()
    off[0, 0] = 0.0
    np.testing.assert_allclose(off, 0.0, atol=1e-12)


def test_global_mean_matches_spec00(r15):
    rng = np.random.default_rng(2)
    spec = rng.normal(size=r15.spec_shape) + 1j * rng.normal(size=r15.spec_shape)
    spec[0, :] = spec[0, :].real
    grid = r15.synthesize(spec)
    assert r15.global_mean(grid) == pytest.approx(spec[0, 0].real, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval_energy_identity(seed):
    """Quadrature norm of the grid field equals the spectral norm (Parseval)."""
    tr = SpectralTransform(nlat=24, nlon=48, trunc=Truncation(8))
    rng = np.random.default_rng(seed)
    spec = rng.normal(size=tr.spec_shape) + 1j * rng.normal(size=tr.spec_shape)
    spec[0, :] = spec[0, :].real
    grid = tr.synthesize(spec)
    grid_norm = np.sum(tr.cell_area_weights * grid**2)
    spec_norm = np.sum(np.abs(spec[0, :]) ** 2) + 2.0 * np.sum(np.abs(spec[1:, :]) ** 2)
    np.testing.assert_allclose(grid_norm, spec_norm, rtol=1e-10)


# ----------------------------------------------------------- operators
def test_laplacian_eigenfunction(r15):
    """Each harmonic is an eigenfunction: del^2 Y_n^m = -n(n+1)/a^2 Y_n^m."""
    spec = np.zeros(r15.spec_shape, dtype=complex)
    spec[3, 2] = 1.0  # m=3, n=5
    lap = r15.laplacian(spec)
    assert lap[3, 2] == pytest.approx(-5 * 6 / EARTH_RADIUS**2)


def test_inverse_laplacian_inverts(r15):
    rng = np.random.default_rng(3)
    spec = rng.normal(size=r15.spec_shape) + 1j * rng.normal(size=r15.spec_shape)
    spec[0, 0] = 0.0
    np.testing.assert_allclose(
        r15.inverse_laplacian(r15.laplacian(spec)), spec, atol=1e-12)


def test_ddlambda_of_zonal_harmonic(r15):
    """d/dlambda of cos^2(lat) sin(2 lambda) = 2 cos^2(lat) cos(2 lambda).

    cos^2(lat) e^{2 i lambda} is proportional to Y_2^2, so the field is
    band-limited and the identity must hold pointwise on the grid.
    """
    lon = r15.lons[None, :]
    cos2 = r15.coslat[:, None] ** 2
    grid = cos2 * np.sin(2 * lon)
    spec = r15.analyze(grid)
    ddx = r15.synthesize(r15.ddlambda(spec))
    np.testing.assert_allclose(ddx, 2 * cos2 * np.cos(2 * lon), atol=1e-12)


def test_gradient_of_zonal_wave(r15):
    """Gradient x-component of f = cos(lat) sin(lambda) is cos(lambda)/a."""
    lon = r15.lons[None, :]
    coslat = r15.coslat[:, None]
    grid = coslat * np.sin(lon)
    fx, fy = r15.gradient(r15.analyze(grid))
    np.testing.assert_allclose(fx, np.cos(lon) / EARTH_RADIUS * np.ones_like(coslat),
                               atol=1e-9 / EARTH_RADIUS * 1e3)
    # f = cos(lat) sin(lon) is the real Y_1^1 harmonic up to scale; its
    # meridional derivative is -sin(lat) sin(lon) / a * ... check numerically:
    mu = r15.mu[:, None]
    expect_fy = -mu * np.sin(lon) / EARTH_RADIUS
    np.testing.assert_allclose(fy, expect_fy, atol=1e-12)


# ----------------------------------------------- wind <-> vorticity/divergence
def test_uv_vortdiv_roundtrip(r15):
    """vortdiv_from_uv(uv_from_vortdiv(z, d)) == (z, d) inside truncation."""
    rng = np.random.default_rng(4)
    nm, nk = r15.spec_shape
    vort = rng.normal(size=(nm, nk)) * 1e-5 + 1j * rng.normal(size=(nm, nk)) * 1e-5
    div = rng.normal(size=(nm, nk)) * 1e-6 + 1j * rng.normal(size=(nm, nk)) * 1e-6
    vort[0, :] = vort[0, :].real
    div[0, :] = div[0, :].real
    vort[0, 0] = 0.0  # mean vorticity/divergence of a flow vanish
    div[0, 0] = 0.0
    # Leave headroom at the rhomboidal boundary: the H operator couples n -> n+1,
    # so the top k row cannot round-trip exactly (standard truncation behavior).
    vort[:, -1] = 0.0
    div[:, -1] = 0.0
    u, v = r15.uv_from_vortdiv(vort, div)
    vort2, div2 = r15.vortdiv_from_uv(u, v)
    np.testing.assert_allclose(vort2[:, :-1], vort[:, :-1], atol=1e-11)
    np.testing.assert_allclose(div2[:, :-1], div[:, :-1], atol=1e-11)


def test_solid_body_rotation_vorticity(r15):
    """u = U0 cos(lat) (solid body) has vorticity 2 U0 sin(lat) / a."""
    u0 = 10.0
    u = u0 * r15.coslat[:, None] * np.ones((1, 48))
    v = np.zeros_like(u)
    vort_spec, div_spec = r15.vortdiv_from_uv(u, v)
    vort = r15.synthesize(vort_spec)
    expect = 2 * u0 * r15.mu[:, None] / EARTH_RADIUS * np.ones((1, 48))
    np.testing.assert_allclose(vort, expect, atol=1e-12)
    np.testing.assert_allclose(r15.synthesize(div_spec), 0.0, atol=1e-12)


def test_purely_divergent_flow_has_no_vorticity(r15):
    rng = np.random.default_rng(5)
    nm, nk = r15.spec_shape
    div = rng.normal(size=(nm, nk)) * 1e-6 + 1j * rng.normal(size=(nm, nk)) * 1e-6
    div[0, :] = div[0, :].real
    div[0, 0] = 0.0
    u, v = r15.uv_from_vortdiv(np.zeros_like(div), div)
    vort2, _ = r15.vortdiv_from_uv(u, v)
    np.testing.assert_allclose(np.abs(vort2), 0.0, atol=1e-12)


# ----------------------------------------------------------- hyperdiffusion
def test_spectral_filter_damps_high_wavenumbers_only(r15):
    """One implicit del^4 step (what the dynamics divides its new fields by)."""
    spec = np.ones(r15.spec_shape, dtype=complex)
    out = spec / r15.damping_denominator(1e16, 1800.0)
    assert out[0, 0] == pytest.approx(1.0)           # mean untouched
    assert abs(out[15, 15]) < abs(out[1, 1])          # small scales damped more
    assert np.all(np.abs(out) <= 1.0 + 1e-15)


# ------------------------------------------- batched Legendre kernels (ISSUE 5)
def test_batched_legendre_bitwise_matches_reference():
    """The stacked per-k recurrence reproduces the per-m loop bit for bit."""
    from tests.oracles import _associated_legendre_ref

    for nlat, mmax, nkmax in ((40, 15, 17), (24, 8, 10), (8, 3, 5)):
        mu, _ = gaussian_latitudes(nlat)
        batched = associated_legendre(mu, mmax, nkmax)
        ref = _associated_legendre_ref(mu, mmax, nkmax)
        assert batched.dtype == ref.dtype
        assert batched.tobytes() == ref.tobytes()


def test_batched_legendre_derivative_bitwise_matches_reference():
    from repro.atmosphere.spectral import legendre_derivative
    from tests.oracles import _legendre_derivative_ref

    for nlat, mmax, nk in ((40, 15, 16), (24, 8, 9)):
        mu, _ = gaussian_latitudes(nlat)
        pbar_ext = associated_legendre(mu, mmax, nk + 1)
        batched = legendre_derivative(mu, pbar_ext)
        ref = _legendre_derivative_ref(mu, pbar_ext)
        assert batched.tobytes() == ref.tobytes()


def test_legendre_plan_cache_shares_tables():
    from repro.atmosphere.spectral import (
        clear_legendre_plans,
        legendre_plan,
        legendre_plan_stats,
    )

    clear_legendre_plans()
    p1, h1 = legendre_plan(24, 8, 10)
    p2, h2 = legendre_plan(24, 8, 10)
    assert p1 is p2 and h1 is h2          # cached, not rebuilt
    assert not p1.flags.writeable and not h1.flags.writeable
    stats = legendre_plan_stats()
    assert stats["builds"] == 1 and stats["hits"] == 1
    legendre_plan(24, 9, 10)              # different key -> new build
    assert legendre_plan_stats()["builds"] == 2
    clear_legendre_plans()
    assert legendre_plan_stats() == {"builds": 0, "hits": 0}


def test_transforms_share_cached_plan():
    """Two transforms at one resolution run the recurrences once; each lays
    the plan out m-major for its GEMMs, and the (j, m, k) names are views of
    those tables holding the plan's values."""
    from repro.atmosphere.spectral import (
        clear_legendre_plans,
        legendre_plan,
        legendre_plan_stats,
    )

    clear_legendre_plans()
    tr1 = SpectralTransform(nlat=24, nlon=32, trunc=Truncation(8))
    tr2 = SpectralTransform(nlat=24, nlon=32, trunc=Truncation(8))
    assert legendre_plan_stats() == {"builds": 1, "hits": 1}
    pbar_ext, hbar = legendre_plan(24, 8, 10)
    for tr in (tr1, tr2):
        assert np.array_equal(tr.pbar, pbar_ext[:, :, :9])
        assert np.array_equal(tr.hbar, hbar)
        half_w = tr.weights[:, None, None] / 2.0
        assert np.array_equal(tr._wp, half_w * pbar_ext[:, :, :9])
        assert np.array_equal(tr._wh, half_w * hbar)
        for view, table in ((tr.pbar, tr._syn), (tr.hbar, tr._syn),
                            (tr._wp, tr._ana), (tr._wh, tr._ana)):
            assert np.shares_memory(view, table) and table.flags.c_contiguous
