"""Tests for stratiform condensation, boundary layer, and surface fluxes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.atmosphere.physics.boundary_layer import (
    BoundaryLayerParams,
    diagnose_pbl_height,
    diffuse_column,
    kprofile_diffusivity,
    solve_tridiagonal,
)
from repro.atmosphere.physics.stratiform import (
    saturation_adjustment,
    stratiform_tendencies,
)
from repro.atmosphere.physics.surface_flux import (
    SurfaceFluxParams,
    bulk_fluxes,
    bulk_richardson,
    neutral_coefficient,
    ocean_fluxes,
    ocean_roughness,
    stability_function,
)
from repro.util.constants import CP, GRAVITY, LATENT_HEAT_VAP
from repro.util.thermo import saturation_mixing_ratio


def column(L=8, nlat=2, nlon=2, t0=285.0, rh=0.5):
    sigma = np.linspace(0.2, 0.98, L)
    ps = np.full((nlat, nlon), 1.0e5)
    p = sigma[:, None, None] * ps[None]
    shape = (L, nlat, nlon)
    temp = np.broadcast_to(t0 - 50.0 * (1.0 - sigma[:, None, None]), shape).copy()
    q = rh * saturation_mixing_ratio(temp, p)
    dp = np.gradient(sigma)[:, None, None] * ps[None]
    return temp, q, p, dp


# ------------------------------------------------------------- stratiform
def test_saturation_adjustment_noop_when_subsaturated():
    temp, q, p, dp = column(rh=0.5)
    t2, q2, cond = saturation_adjustment(temp, q, p)
    np.testing.assert_allclose(t2, temp)
    np.testing.assert_allclose(q2, q)
    assert np.all(cond == 0.0)


def test_saturation_adjustment_removes_supersaturation():
    temp, q, p, dp = column(rh=1.3)
    t2, q2, cond = saturation_adjustment(temp, q, p)
    qsat2 = saturation_mixing_ratio(t2, p)
    assert np.all(q2 <= qsat2 * 1.001)
    assert np.all(cond > 0.0)
    assert np.all(t2 > temp)  # condensational heating


def test_saturation_adjustment_conserves_moist_enthalpy():
    temp, q, p, dp = column(rh=1.4)
    t2, q2, cond = saturation_adjustment(temp, q, p)
    h1 = CP * temp + LATENT_HEAT_VAP * q
    h2 = CP * t2 + LATENT_HEAT_VAP * q2
    np.testing.assert_allclose(h2, h1, rtol=1e-12)


def test_stratiform_precip_reaches_surface_from_saturated_column():
    temp, q, p, dp = column(rh=1.2)
    dtdt, dqdt, prec = stratiform_tendencies(temp, q, p, dp, dt=1800.0)
    assert np.all(prec > 0.0)


def test_stratiform_water_budget_closes():
    """Column moisture loss = surface precipitation exactly."""
    temp, q, p, dp = column(rh=1.2)
    dt = 1800.0
    dtdt, dqdt, prec = stratiform_tendencies(temp, q, p, dp, dt=dt)
    mass = dp / GRAVITY
    col_dq = np.sum(dqdt * mass, axis=0)
    np.testing.assert_allclose(-col_dq, prec, rtol=1e-9)


def test_stratiform_evaporation_moistens_dry_subcloud_layer():
    """Saturate aloft, keep the lowest layers dry: rain must evaporate there."""
    temp, q, p, dp = column(rh=0.2)
    qsat = saturation_mixing_ratio(temp, p)
    q[:3] = 1.3 * qsat[:3]           # supersaturate upper layers only
    dtdt, dqdt, prec = stratiform_tendencies(temp, q, p, dp, dt=1800.0)
    # Subcloud layers (below index 3) gain moisture and cool.
    assert np.any(dqdt[3:] > 0.0)
    assert np.any(dtdt[3:] < 0.0)
    # Evaporation must reduce surface precipitation below the no-evaporation case.
    from repro.atmosphere.physics.stratiform import StratiformParams
    _, _, prec_noevap = stratiform_tendencies(
        temp, q, p, dp, dt=1800.0, params=StratiformParams(evap_efficiency=0.0))
    assert np.all(prec < prec_noevap)


# ------------------------------------------------------------- tridiagonal
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 9999), L=st.integers(2, 12))
def test_tridiagonal_matches_dense_solve(seed, L):
    rng = np.random.default_rng(seed)
    lower = rng.normal(size=(L, 1)) * 0.3
    upper = rng.normal(size=(L, 1)) * 0.3
    diag = rng.normal(size=(L, 1)) + np.sign(rng.normal(size=(L, 1))) * 3.0
    rhs = rng.normal(size=(L, 1))
    x = solve_tridiagonal(lower, diag, upper, rhs)
    A = np.diag(diag[:, 0]) + np.diag(lower[1:, 0], -1) + np.diag(upper[:-1, 0], 1)
    np.testing.assert_allclose(x[:, 0], np.linalg.solve(A, rhs[:, 0]), rtol=1e-8)


def test_diffusion_conserves_column_integral():
    """Zero-flux diffusion preserves the (thickness-weighted) column mean
    on a uniform grid."""
    L = 10
    z = np.linspace(9000.0, 100.0, L)[:, None, None] * np.ones((1, 1, 1))
    rng = np.random.default_rng(1)
    field = rng.normal(size=(L, 1, 1)) + 280.0
    k_half = np.full((L - 1, 1, 1), 50.0)
    out = diffuse_column(field, k_half, z, dt=1800.0)
    np.testing.assert_allclose(out.sum(), field.sum(), rtol=1e-10)


def test_diffusion_smooths_profile():
    L = 10
    z = np.linspace(9000.0, 100.0, L)[:, None, None]
    field = np.zeros((L, 1, 1))
    field[5] = 10.0
    k_half = np.full((L - 1, 1, 1), 80.0)
    out = field
    for _ in range(50):
        out = diffuse_column(out, k_half, z, dt=1800.0)
    assert out.max() < 5.0
    assert out.min() > -1e-10


def test_surface_flux_injection_heats_lowest_layer():
    L = 6
    z = np.linspace(5000.0, 50.0, L)[:, None, None]
    field = np.full((L, 1, 1), 280.0)
    k_half = np.full((L - 1, 1, 1), 0.1)  # almost no mixing
    rho = np.full((L, 1, 1), 1.2)
    out = diffuse_column(field, k_half, z, dt=600.0,
                         surface_flux=np.full((1, 1), 100.0 / CP), rho=rho)
    assert out[-1, 0, 0] > 280.0
    assert abs(out[0, 0, 0] - 280.0) < 1e-6


@pytest.mark.parametrize("lead", [(), (3,)], ids=["serial", "members"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_diffusion_matches_one_call_per_field(lead, dtype):
    """theta, q, u, v diffuse with one K: built and eliminated once, every
    field's bytes are those of its own ``diffuse_column`` call."""
    L, shape = 7, lead + (4, 5)
    rng = np.random.default_rng(2)
    z = (np.linspace(6000.0, 40.0, L).reshape((L,) + (1,) * len(shape))
         + rng.uniform(0.0, 20.0, size=(L,) + shape)).astype(dtype)
    k_half = rng.uniform(0.1, 50.0, size=(L - 1,) + shape).astype(dtype)
    rho = rng.uniform(0.4, 1.2, size=(L,) + shape).astype(dtype)
    fields = [rng.normal(size=(L,) + shape).astype(dtype) for _ in range(4)]
    fluxes = [rng.normal(size=shape).astype(dtype) for _ in range(3)] + [None]
    want = [diffuse_column(f, k_half, z, 1800.0, surface_flux=flux, rho=rho)
            for f, flux in zip(fields, fluxes)]
    got = diffuse_column(fields, k_half, z, 1800.0, surface_flux=fluxes, rho=rho)
    assert isinstance(got, tuple) and len(got) == 4
    for a, b in zip(got, want):
        assert a.dtype == b.dtype == dtype and a.shape == b.shape
        assert np.ascontiguousarray(a).tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        diffuse_column(fields, k_half, z, 1800.0, surface_flux=fluxes)


# ------------------------------------------------------------- PBL height
def test_pbl_height_shallow_when_strongly_stable():
    L = 8
    z = np.linspace(8000.0, 60.0, L)[:, None, None] * np.ones((1, 2, 2))
    theta = 290.0 + np.linspace(40.0, 0.0, L)[:, None, None] * np.ones((1, 2, 2))
    u = np.zeros((L, 2, 2))
    h = diagnose_pbl_height(theta, u, u, z)
    assert np.all(h <= 1500.0)


def test_pbl_height_deep_when_well_mixed():
    L = 8
    z = np.linspace(8000.0, 60.0, L)[:, None, None] * np.ones((1, 2, 2))
    theta = np.full((L, 2, 2), 300.0)       # neutral: Ri never exceeds Ric
    u = np.zeros((L, 2, 2))
    p = BoundaryLayerParams()
    h = diagnose_pbl_height(theta, u, u, z, p)
    np.testing.assert_allclose(h, p.max_pbl_height)


def test_kprofile_zero_outside_pbl():
    p = BoundaryLayerParams()
    z = np.array([100.0, 500.0, 2000.0])
    k = kprofile_diffusivity(z, np.full(3, 1000.0), np.full(3, 0.3), p)
    assert k[2] == pytest.approx(p.k_background)
    assert k[0] > p.k_background


# ------------------------------------------------------------- surface fluxes
def test_bulk_richardson_sign():
    t_air = np.array([280.0])
    wind = np.array([5.0])
    assert bulk_richardson(t_air, np.array([290.0]), wind, 60.0) < 0  # unstable
    assert bulk_richardson(t_air, np.array([270.0]), wind, 60.0) > 0  # stable


def test_stability_function_enhances_unstable():
    p = SurfaceFluxParams()
    assert stability_function(np.array([-1.0]), p) > 1.0
    assert stability_function(np.array([1.0]), p) < 1.0
    assert stability_function(np.array([0.0]), p) == pytest.approx(1.0)


def test_neutral_coefficient_increases_with_roughness():
    c_smooth = neutral_coefficient(np.array([1e-4]), 60.0)
    c_rough = neutral_coefficient(np.array([0.1]), 60.0)
    assert c_rough > c_smooth
    assert 1e-4 < c_smooth < 1e-2


def test_ocean_roughness_grows_with_wind():
    rib = np.zeros(3)
    z0 = ocean_roughness(np.array([2.0, 10.0, 25.0]), rib)
    assert z0[0] < z0[1] < z0[2]


def test_fluxes_warm_ocean_cold_air():
    """Cold air over warm water: upward sensible and latent heat."""
    shape = (3,)
    out = ocean_fluxes(np.full(shape, 280.0), np.full(shape, 0.004),
                       np.full(shape, 8.0), np.zeros(shape),
                       np.full(shape, 1.0e5), np.full(shape, 295.0))
    assert np.all(out["shf"] > 0.0)
    assert np.all(out["lhf"] > 0.0)
    assert np.all(out["evap"] > 0.0)
    assert np.all(out["ustar"] > 0.0)


def test_fluxes_stable_regime_suppressed():
    """Warm air over cold water transfers much less heat."""
    shape = (1,)
    warm_over_cold = ocean_fluxes(np.full(shape, 300.0), np.full(shape, 0.01),
                                  np.full(shape, 8.0), np.zeros(shape),
                                  np.full(shape, 1.0e5), np.full(shape, 285.0))
    cold_over_warm = ocean_fluxes(np.full(shape, 285.0), np.full(shape, 0.005),
                                  np.full(shape, 8.0), np.zeros(shape),
                                  np.full(shape, 1.0e5), np.full(shape, 300.0))
    assert abs(warm_over_cold["shf"][0]) < abs(cold_over_warm["shf"][0])


def test_wetness_scales_evaporation():
    shape = (1,)
    args = (np.full(shape, 285.0), np.full(shape, 0.004), np.full(shape, 6.0),
            np.zeros(shape), np.full(shape, 1.0e5), np.full(shape, 295.0),
            np.full(shape, 1e-3))
    dry = bulk_fluxes(*args, np.full(shape, 0.25))
    wet = bulk_fluxes(*args, np.full(shape, 1.0))
    assert wet["evap"][0] == pytest.approx(4.0 * dry["evap"][0])


def test_stress_opposes_wind():
    shape = (1,)
    out = ocean_fluxes(np.full(shape, 288.0), np.full(shape, 0.008),
                       np.full(shape, -7.0), np.full(shape, 3.0),
                       np.full(shape, 1.0e5), np.full(shape, 289.0))
    assert out["taux"][0] < 0.0 and out["tauy"][0] > 0.0
