"""Tests for semi-Lagrangian moisture transport."""

import math
import re
from pathlib import Path

import numpy as np
import pytest

from repro.atmosphere import semilag
from repro.atmosphere.semilag import (
    _bilinear_sphere,
    advect_semilagrangian,
    departure_points,
)
from repro.atmosphere.spectral import SpectralTransform, Truncation
from tests import oracles as K
from tests.oracles import bitwise as _bitwise


@pytest.fixture(scope="module")
def tr():
    return SpectralTransform(nlat=32, nlon=64, trunc=Truncation(10))


def test_bilinear_reproduces_nodes(tr):
    rng = np.random.default_rng(0)
    field = rng.normal(size=(tr.nlat, tr.nlon))
    lat2 = tr.lats[:, None] * np.ones((1, tr.nlon))
    lon2 = np.ones((tr.nlat, 1)) * tr.lons[None, :]
    out = _bilinear_sphere(field, tr.lats, tr.lons, lat2, lon2)
    np.testing.assert_allclose(out, field, atol=1e-12)


def test_bilinear_linear_in_longitude(tr):
    """Interpolation of a field linear in lon is exact between nodes."""
    field = np.ones((tr.nlat, 1)) * tr.lons[None, :]
    lat_q = np.array([[tr.lats[5]]])
    lon_q = np.array([[0.5 * (tr.lons[3] + tr.lons[4])]])
    out = _bilinear_sphere(field, tr.lats, tr.lons, lat_q, lon_q)
    assert out[0, 0] == pytest.approx(lon_q[0, 0])


def test_bilinear_periodic_wrap(tr):
    """Querying just west of lon=0 must blend the last and first columns."""
    field = np.zeros((tr.nlat, tr.nlon))
    field[:, 0] = 1.0
    eps = 0.25 * (tr.lons[1] - tr.lons[0])
    lat_q = np.full((1, 1), tr.lats[10])
    lon_q = np.full((1, 1), 2 * np.pi - eps)
    out = _bilinear_sphere(field, tr.lats, tr.lons, lat_q, lon_q)
    assert 0.0 < out[0, 0] < 1.0


def test_departure_points_zero_wind(tr):
    u = np.zeros((tr.nlat, tr.nlon))
    lat_d, lon_d = departure_points(tr, u, u, dt=1800.0)
    np.testing.assert_allclose(lat_d, tr.lats[:, None] * np.ones((1, tr.nlon)), atol=1e-14)


def test_departure_points_westerly(tr):
    """Uniform westerly wind: departure longitudes are upstream (west)."""
    u = np.full((tr.nlat, tr.nlon), 10.0)
    v = np.zeros_like(u)
    lat_d, lon_d = departure_points(tr, u, v, dt=1800.0)
    j = tr.nlat // 2
    shift = (tr.lons[None, :] - lon_d)[j]
    expect = 10.0 * 1800.0 / (tr.radius * tr.coslat[j])
    # The expectation divides by the policy-precision ``tr.coslat``.
    rtol = 1e-12 if tr.coslat.dtype == np.float64 else 1e-6
    np.testing.assert_allclose(shift, expect, rtol=rtol)


def test_advection_conserves_constant_field(tr):
    """A spatially constant tracer is invariant under any flow."""
    rng = np.random.default_rng(1)
    u = rng.normal(scale=10.0, size=(2, tr.nlat, tr.nlon))
    v = rng.normal(scale=10.0, size=(2, tr.nlat, tr.nlon))
    q = np.full((2, tr.nlat, tr.nlon), 0.007)
    out = advect_semilagrangian(tr, u, v, q, dt=1800.0)
    np.testing.assert_allclose(out, 0.007, atol=1e-12)


def test_advection_positive_definite(tr):
    rng = np.random.default_rng(2)
    u = rng.normal(scale=30.0, size=(1, tr.nlat, tr.nlon))
    v = rng.normal(scale=30.0, size=(1, tr.nlat, tr.nlon))
    q = np.maximum(rng.normal(size=(1, tr.nlat, tr.nlon)), 0.0) * 1e-3
    out = advect_semilagrangian(tr, u, v, q, dt=3600.0)
    assert np.all(out >= 0.0)


def test_solid_rotation_translates_blob(tr):
    """One full solid-body rotation returns the tracer blob near its start."""
    period = 20 * 86400.0
    u0 = 2 * np.pi * tr.radius / period
    u = (u0 * tr.coslat[:, None] * np.ones((1, tr.nlon)))[None]
    v = np.zeros_like(u)
    # Gaussian blob on the equator.
    lon2 = np.ones((tr.nlat, 1)) * tr.lons[None, :]
    lat2 = tr.lats[:, None] * np.ones((1, tr.nlon))
    q0 = np.exp(-((lon2 - np.pi) ** 2 + lat2**2) / 0.08)[None]
    q = q0.copy()
    nsteps = 200
    dt = period / nsteps
    for _ in range(nsteps):
        q = advect_semilagrangian(tr, u, v, q, dt)
    # Semi-Lagrangian diffuses a little; require the blob back in place with
    # most of its amplitude and its max within one grid cell of the start.
    j_eq = np.argmin(np.abs(tr.lats))
    peak_lon = tr.lons[np.argmax(q[0, j_eq])]
    assert abs(peak_lon - np.pi) < 2 * (tr.lons[1] - tr.lons[0])
    assert q.max() > 0.2  # bilinear interpolation diffuses over 200 steps
    assert q.min() >= 0.0


def test_advection_shape_mismatch_raises(tr):
    u = np.zeros((2, tr.nlat, tr.nlon))
    q = np.zeros((3, tr.nlat, tr.nlon))
    with pytest.raises(ValueError):
        advect_semilagrangian(tr, u, u, q, 1800.0)


# ---------------------------------------------------------------------------
# planned, level-blocked step == the per-level oracle, bitwise
# ---------------------------------------------------------------------------
def _winds(tr, lead, dtype, seed=0):
    rng = np.random.default_rng(seed)
    shape = lead + (tr.nlat, tr.nlon)
    u = rng.normal(scale=30.0, size=shape).astype(dtype)
    v = rng.normal(scale=15.0, size=shape).astype(dtype)
    q = (np.abs(rng.normal(size=shape)) * 1e-3).astype(dtype)
    return u, v, q


def _levels_per_block(tr, lead) -> int:
    return max(1, semilag._BLOCK_ELEMENTS
               // (math.prod(lead[1:]) * tr.nlat * tr.nlon))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("lead", [(11,), (5, 1), (5, 3)])
def test_blocked_advection_matches_per_level_oracle(tr, lead, dtype):
    """Serial ``(L,)`` and member ``(L, E)`` leads, an ``L`` the block size
    does not divide, both precisions: the same bytes as one level at a
    time, and ``q.dtype`` survives the float64 interpolant."""
    per_block = _levels_per_block(tr, lead)
    assert lead[0] % per_block, "want a short last block"
    u, v, q = _winds(tr, lead, dtype)
    got = advect_semilagrangian(tr, u, v, q, 3600.0)
    assert got.dtype == dtype
    assert _bitwise(got, K.advect_semilagrangian_ref(tr, u, v, q, 3600.0))


def test_stencil_pieces_match_oracle(tr):
    """``departure_points`` and ``_bilinear_sphere`` stay importable and are
    the oracle's per-level bodies, bit for bit (one member axis)."""
    u, v, q = _winds(tr, (3,), np.float64, seed=1)
    lat_d, lon_d = (a.copy() for a in departure_points(tr, u, v, 1800.0))
    want_lat, want_lon = K.departure_points_ref(tr, u, v, 1800.0)
    assert _bitwise(lat_d, want_lat) and _bitwise(lon_d, want_lon)
    assert _bitwise(_bilinear_sphere(q, tr.lats, tr.lons, lat_d, lon_d),
                    K.bilinear_sphere_ref(q, tr.lats, lat_d, lon_d))


def test_non_finite_winds_fall_back_like_oracle(tr):
    """A NaN and an Inf in the winds: the guards run once per stencil and
    give the oracle's (finite) field."""
    u, v, q = _winds(tr, (4,), np.float64, seed=2)
    u[0, 3, 4] = np.nan
    v[1, 5, 6] = np.inf
    u[2, 7, 7] = -np.inf
    with np.errstate(invalid="ignore"):
        got = advect_semilagrangian(tr, u, v, q, 3600.0)
        want = K.advect_semilagrangian_ref(tr, u, v, q, 3600.0)
    assert np.isfinite(got).all()
    assert _bitwise(got, want)


def test_two_grids_used_alternately(tr):
    """The geometry comes from the transform handed in, every call: two
    grids interleaved in one process never see each other's arrays."""
    other = SpectralTransform(nlat=24, nlon=32, trunc=Truncation(8))
    for rep in range(3):
        for t in (tr, other, SpectralTransform(24, 32, Truncation(8))):
            u, v, q = _winds(t, (3,), np.float64, seed=rep)
            assert _bitwise(advect_semilagrangian(t, u, v, q, 3600.0),
                            K.advect_semilagrangian_ref(t, u, v, q, 3600.0))


def test_latitude_search_once_per_set_of_departure_points(monkeypatch):
    """An 18-level paper-size column searches the latitude table exactly
    twice per block (midpoint, then departure points): ``u_mid`` and
    ``v_mid`` share one stencil.  One function under ``atmosphere/`` calls
    ``np.searchsorted`` at all."""
    tr = SpectralTransform(nlat=40, nlon=48, trunc=Truncation(15))
    u, v, q = _winds(tr, (18,), np.float64)
    calls = []
    real = np.searchsorted

    def counting(a, x, *args, **kwargs):
        calls.append(np.shape(x))
        return real(a, x, *args, **kwargs)

    monkeypatch.setattr(semilag.np, "searchsorted", counting)
    advect_semilagrangian(tr, u, v, q, 3600.0)
    n_blocks = math.ceil(18 / _levels_per_block(tr, (18,)))
    assert n_blocks == 3
    assert len(calls) == 2 * n_blocks, calls
    sources = "".join(p.read_text() for p in
                      Path(semilag.__file__).parent.glob("*.py"))
    assert len(re.findall(r"np\.searchsorted\(", sources)) == 1
