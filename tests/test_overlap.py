"""Tests for the overlap grid (Figure 1 / experiment E1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atmosphere.spectral import gaussian_latitudes
from repro.coupler import OverlapGrid, cell_edges_from_centers
from repro.ocean import mercator_latitudes


@pytest.fixture(scope="module")
def grids():
    """Paper configuration in miniature: Gaussian atm 24x16, Mercator ocn 32x32."""
    mu, _ = gaussian_latitudes(16)
    atm_lats = np.arcsin(mu)
    ocn_lats = mercator_latitudes(32)
    return OverlapGrid(atm_lats, 24, ocn_lats, 32)


def test_cell_edges_validation():
    with pytest.raises(ValueError):
        cell_edges_from_centers(np.array([0.3, 0.1]), 0.0, 1.0)


def test_overlap_areas_sum_to_sphere(grids):
    """Overlap cells tile the sphere exactly: total area = 4 pi R^2."""
    from repro.util.constants import EARTH_RADIUS

    assert grids.areas.sum() == pytest.approx(4 * np.pi * EARTH_RADIUS**2, rel=1e-12)


def test_overlap_finer_than_both(grids):
    assert grids.nlat >= 32
    assert grids.nlon >= 32


def test_from_atm_piecewise_constant(grids):
    """Gathering is pure indexing — every overlap value exists in the source."""
    rng = np.random.default_rng(0)
    f = rng.normal(size=(16, 24))
    ov = grids.from_atm(f)
    assert set(np.unique(ov)).issubset(set(np.unique(f)))


def test_atm_roundtrip_identity(grids):
    """to_atm(from_atm(f)) == f exactly: averaging a constant-per-cell field."""
    rng = np.random.default_rng(1)
    f = rng.normal(size=(16, 24))
    np.testing.assert_allclose(grids.to_atm(grids.from_atm(f)), f, atol=1e-12)


def test_ocn_roundtrip_identity(grids):
    rng = np.random.default_rng(2)
    f = rng.normal(size=(32, 32))
    np.testing.assert_allclose(grids.to_ocn(grids.from_ocn(f)), f, atol=1e-12)


def test_flux_conservation_atm_to_ocn(grids):
    """The defining property: the global integral of a flux is identical
    whether counted on the overlap grid or after averaging to either grid.

    This is what lets FOAM close the hydrological cycle without flux
    correction."""
    rng = np.random.default_rng(3)
    flux_ov = rng.normal(size=(grids.nlat, grids.nlon))
    total_overlap = grids.integrate(flux_ov)
    total_atm = grids.integrate_atm(grids.to_atm(flux_ov))
    np.testing.assert_allclose(total_atm, total_overlap, rtol=1e-12)
    # Ocean side: conservation holds over the ocean grid's latitude span.
    valid = grids.ocean_valid_mask()
    total_valid = grids.integrate(np.where(valid, flux_ov, 0.0))
    total_ocn = grids.integrate_ocn(grids.to_ocn(flux_ov))
    np.testing.assert_allclose(total_ocn, total_valid, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 999))
def test_conservation_property_random_grids(seed):
    rng = np.random.default_rng(seed)
    nlat_a = int(rng.integers(6, 20))
    nlon_a = int(rng.integers(8, 30))
    nlat_o = int(rng.integers(8, 30))
    nlon_o = int(rng.integers(8, 30))
    mu, _ = gaussian_latitudes(nlat_a)
    ov = OverlapGrid(np.arcsin(mu), nlon_a, mercator_latitudes(nlat_o), nlon_o)
    flux = rng.normal(size=(ov.nlat, ov.nlon))
    np.testing.assert_allclose(ov.integrate_atm(ov.to_atm(flux)),
                               ov.integrate(flux), rtol=1e-10)


def test_constant_field_maps_to_constant(grids):
    """Averaging preserves constants on both targets (partition of unity)."""
    ov_field = np.full((grids.nlat, grids.nlon), 4.2)
    np.testing.assert_allclose(grids.to_atm(ov_field), 4.2, rtol=1e-12)
    np.testing.assert_allclose(grids.to_ocn(ov_field), 4.2, rtol=1e-12)


def test_polar_caps_are_atm_only(grids):
    """Overlap cells poleward of the ocean grid's span have no ocean index."""
    valid = grids.ocean_valid_mask()
    assert not valid[0].any()      # southernmost band beyond Mercator limit
    assert not valid[-1].any()
    assert valid[grids.nlat // 2].all()


def test_no_interpolation_of_state(grids):
    """'No effort is made to interpolate all state variables to a single
    grid': a sharp front in the source stays sharp (no new extrema, no
    smearing beyond cell granularity)."""
    f = np.zeros((16, 24))
    f[:, :12] = 1.0
    ov = grids.from_atm(f)
    assert set(np.unique(ov)) == {0.0, 1.0}


@pytest.mark.parametrize("target", ["to_atm", "to_ocn"])
def test_scatter_of_stacked_leads_matches_per_slice(grids, target):
    """Any number of leading axes (stacked fields x members) scatters slab
    by slab, bitwise; two batches that share their first axis but not their
    slab count do not share scatter indices."""
    from tests.oracles import bitwise

    rng = np.random.default_rng(6)
    op = getattr(grids, target)
    stacked = rng.normal(size=(3, 2, grids.nlat, grids.nlon))
    members = rng.normal(size=(3, grids.nlat, grids.nlon))
    for batch in (stacked, members, stacked):
        got = op(batch)
        assert got.shape[:-2] == batch.shape[:-2]
        for lead in np.ndindex(*batch.shape[:-2]):
            assert bitwise(got[lead], op(batch[lead])), lead


def test_merge_edges_matches_union1d():
    """Sort-and-collapse merges edge sets as ``np.union1d`` then collapse
    did, with exact duplicates and near ones (within tol) in the mix."""
    from repro.coupler.overlap import _merge_edges
    from tests.oracles import bitwise, merge_edges_ref

    tol = 1e-12
    for k in range(200):
        rng = np.random.default_rng(k)
        a = np.sort(rng.uniform(-2.0, 2.0, int(rng.integers(1, 40))))
        picks = rng.choice(a, int(rng.integers(0, a.size + 1)))
        near = picks + rng.uniform(-tol, tol, picks.size) * (k % 2)
        b = np.sort(np.concatenate(
            [near, rng.uniform(-2.0, 2.0, int(rng.integers(0, 40)))]))
        assert bitwise(_merge_edges(a, b, tol), merge_edges_ref(a, b, tol)), k


@pytest.mark.parametrize("size", ["test", "small", "paper"])
def test_overlap_tables_match_union1d_build(size, monkeypatch):
    """Every index and area table of the model's overlap grid comes out as
    it did when the edges were merged through ``np.union1d``."""
    from repro.core.config import named_config
    from repro.coupler import overlap
    from tests.oracles import bitwise, merge_edges_ref

    cfg = named_config(size)
    args = (np.arcsin(gaussian_latitudes(cfg.atm_nlat)[0]), cfg.atm_nlon,
            mercator_latitudes(cfg.ocn_ny), cfg.ocn_nx)
    got = OverlapGrid(*args)
    monkeypatch.setattr(overlap, "_merge_edges", merge_edges_ref)
    want = OverlapGrid(*args)
    for name in ("lat_edges", "lon_edges", "a_lat_of", "o_lat_of",
                 "a_lon_of", "o_lon_of", "areas", "_a_flat", "_o_flat",
                 "_atm_area", "_ocn_area"):
        assert bitwise(getattr(got, name), getattr(want, name)), name
