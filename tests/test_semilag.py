"""Tests for semi-Lagrangian moisture transport."""

import ast
import math
from pathlib import Path

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    """An 18-level paper-size column looks latitudes up exactly twice per
    block (midpoint, then departure points) — ``u_mid`` and ``v_mid`` share
    one stencil — through a table derived once per
    ``advect_semilagrangian`` call.  Nothing under ``atmosphere/`` calls
    ``searchsorted`` any more."""
    tr = SpectralTransform(nlat=40, nlon=48, trunc=Truncation(15))
    u, v, q = _winds(tr, (18,), np.float64)
    tables, stencils = [], []

    class CountingTable(semilag._LatitudeTable):
        def __init__(self, lats):
            tables.append(lats)
            super().__init__(lats)

    real = semilag._stencil

    def counting(shape, table, lat_d, lon_d):
        stencils.append(table)
        return real(shape, table, lat_d, lon_d)

    monkeypatch.setattr(semilag, "_LatitudeTable", CountingTable)
    monkeypatch.setattr(semilag, "_stencil", counting)
    for _ in range(2):
        advect_semilagrangian(tr, u, v, q, 3600.0)
    n_blocks = math.ceil(18 / _levels_per_block(tr, (18,)))
    assert n_blocks == 3
    assert len(tables) == 2 and all(t is tr.lats for t in tables)
    assert len(stencils) == 2 * 2 * n_blocks
    assert len({id(t) for t in stencils}) == 2      # one table per call
    searches = [node for path in Path(semilag.__file__).parent.rglob("*.py")
                for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, ast.Attribute)
                and node.attr == "searchsorted"]
    assert not searches


# ---------------------------------------------------------------------------
# the table lookup is the search; the masked wrap is the modulo
# ---------------------------------------------------------------------------
_GRIDS = {nlat: SpectralTransform(nlat, 48, Truncation(7)).lats
          for nlat in (24, 40)}


def _edge_latitudes(lats):
    return np.concatenate([lats, np.nextafter(lats, np.inf),
                           np.nextafter(lats, -np.inf),
                           [-np.pi, np.pi, -1e300, 1e300, 0.0, -0.0]])


@pytest.mark.parametrize("nlat", sorted(_GRIDS))
def test_table_lookup_is_searchsorted_at_the_edges(nlat):
    """Every node, one ulp either side of it, and values beyond both ends."""
    lats = _GRIDS[nlat]
    v = _edge_latitudes(lats)
    got = semilag._LatitudeTable(lats).search(v)
    assert got.dtype == np.intp
    np.testing.assert_array_equal(got, np.searchsorted(lats, v))


@settings(max_examples=200, deadline=None)
@given(nlat=st.sampled_from(sorted(_GRIDS)),
       v=hnp.arrays(np.float64, st.integers(1, 64),
                    elements=st.floats(allow_nan=False, allow_infinity=False)),
       near=st.lists(st.tuples(st.integers(0, 39), st.integers(-3, 3)),
                     max_size=16))
def test_table_lookup_is_searchsorted_everywhere(nlat, v, near):
    """Arbitrary finite values, and values a few ulps from arbitrary nodes."""
    lats = _GRIDS[nlat]
    close = []
    for j, ulps in near:
        x = lats[j % nlat]
        for _ in range(abs(ulps)):
            x = np.nextafter(x, np.sign(ulps) * np.inf)
        close.append(x)
    v = np.concatenate([v, close])
    np.testing.assert_array_equal(semilag._LatitudeTable(lats).search(v),
                                  np.searchsorted(lats, v))


@pytest.mark.parametrize("lead", [(), (3,), (4, 2)])
def test_adversarial_departure_points_match_oracle(lead):
    """A field of all-distinct values, so a wrong corner index or weight
    changes bytes; blocks seeded with the values the index arithmetic
    special-cases (``+-0.0``, ``2 pi`` and its neighbours, far out of range,
    every grid longitude and latitude, non-finite)."""
    tr = SpectralTransform(nlat=40, nlon=48, trunc=Truncation(15))
    rng = np.random.default_rng(7)
    shape = lead + (tr.nlat, tr.nlon)
    field = rng.permutation(math.prod(shape)).reshape(shape) + 0.5
    two_pi = 2.0 * np.pi
    lon_seeds = np.concatenate([
        [0.0, -0.0, two_pi, np.nextafter(two_pi, 0.0),
         np.nextafter(two_pi, 9.0), -1e-18, -1e-3, -two_pi, -7.0, -13.0,
         2 * two_pi, 13.0, 26.0, 1e300, np.nan, np.inf, -np.inf],
        tr.lons, np.nextafter(tr.lons, 9.0), np.nextafter(tr.lons, -9.0),
        tr.lons - two_pi, tr.lons + two_pi])
    lat_seeds = np.concatenate([_edge_latitudes(tr.lats),
                                [np.nan, np.inf, -np.inf]])
    for rep in range(8):
        lon_d = rng.uniform(-0.1, two_pi + 0.1, shape)
        lat_d = rng.uniform(-1.7, 1.7, shape)
        if rep < 2:                     # the in-model case: nothing to wrap
            lon_d = rng.uniform(0.0, two_pi, shape)
            lat_d = np.clip(lat_d, tr.lats[0], tr.lats[-1])
        else:
            for coord, seeds in ((lon_d, lon_seeds), (lat_d, lat_seeds)):
                where = rng.choice(coord.size, 2 * seeds.size, replace=False)
                coord.reshape(-1)[where] = np.tile(seeds, 2)
        want = _per_slab(K.bilinear_sphere_ref, field, tr.lats, lat_d, lon_d)
        keep = lat_d.copy(), lon_d.copy()
        got = _bilinear_sphere(field, tr.lats, tr.lons, lat_d, lon_d)
        assert _bitwise(got, want), rep
        # the inputs are the caller's (workspace) buffers: left untouched
        assert _bitwise(lat_d, keep[0]) and _bitwise(lon_d, keep[1])


def _per_slab(ref, field, lats, lat_d, lon_d):
    """The oracle takes one (nlat, nlon) or (E, nlat, nlon) field."""
    if field.ndim <= 3:
        return ref(field, lats, lat_d, lon_d)
    return np.stack([ref(f, lats, la, lo)
                     for f, la, lo in zip(field, lat_d, lon_d)])
