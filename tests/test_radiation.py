"""Tests for the radiation package."""

import numpy as np

from repro.atmosphere.physics.radiation import (
    RadiationParams,
    diagnose_cloud_fraction,
    layer_emissivity,
    longwave,
    shortwave,
    solar_zenith_cos,
    vapor_path,
)
from repro.util.constants import SOLAR_CONSTANT, STEFAN_BOLTZMANN


def make_column(nlat=4, nlon=8, L=10, t_sfc=288.0, q0=0.01):
    """A moist tropical-ish column replicated over a small grid."""
    sigma = np.linspace(0.05, 0.99, L)
    ps = np.full((nlat, nlon), 1.0e5)
    p = sigma[:, None, None] * ps[None]
    shape = (L, nlat, nlon)
    temp = np.broadcast_to(t_sfc - 60.0 * (1.0 - sigma[:, None, None]), shape).copy()
    q = np.broadcast_to(q0 * (sigma[:, None, None] ** 3), shape).copy()
    dp = np.gradient(sigma)[:, None, None] * ps[None]
    return temp, q, p, dp


# ------------------------------------------------------------- geometry
def test_zenith_angle_zero_at_night():
    lats = np.deg2rad(np.array([0.0]))
    lons = np.array([0.0])
    # Local midnight at lon 0 (UTC 0 with our hour-angle convention is noon-pi)
    mu_midnight = solar_zenith_cos(lats, 80.0, 0.0, lons)
    mu_noon = solar_zenith_cos(lats, 80.0, 43200.0, lons)
    assert mu_noon[0, 0] > 0.8
    assert mu_midnight[0, 0] == 0.0


def test_diurnal_mean_insolation_structure():
    """The day's mean of the insolation the shortwave sees, hour by hour."""
    lats = np.deg2rad(np.linspace(-89, 89, 37))
    lons = np.zeros(1)
    # Northern summer solstice: pole gets round-the-clock sun.
    q_jun = SOLAR_CONSTANT * np.mean(
        [solar_zenith_cos(lats, 172.0, secs, lons)[:, 0]
         for secs in np.arange(0.0, 86400.0, 900.0)], axis=0)
    assert q_jun[-1] > q_jun[18]      # N pole exceeds equator at solstice
    assert q_jun[0] == 0.0            # polar night in the south
    assert np.all(q_jun >= 0.0)
    assert q_jun.max() < SOLAR_CONSTANT


# ------------------------------------------------------------- clouds
def test_cloud_fraction_zero_when_dry():
    temp, q, p, dp = make_column(q0=1e-6)
    cf = diagnose_cloud_fraction(temp, q, p)
    assert np.all(cf == 0.0)


def test_cloud_fraction_saturated_layer():
    temp, q, p, dp = make_column()
    from repro.util.thermo import saturation_mixing_ratio
    q_sat = saturation_mixing_ratio(temp, p)
    cf = diagnose_cloud_fraction(temp, q_sat * 1.0, p)
    assert np.all(cf >= 0.99)


# ------------------------------------------------------------- shortwave
def test_shortwave_energy_ledger_closes():
    """Insolation = reflected + absorbed_atm + absorbed_sfc exactly."""
    temp, q, p, dp = make_column()
    cosz = np.full(temp.shape[1:], 0.6)
    albedo = np.full_like(cosz, 0.15)
    heat, sfc, refl = shortwave(temp, q, p, dp, cosz, albedo)
    from repro.util.constants import CP, GRAVITY
    absorbed_atm = np.sum(heat * CP * dp / GRAVITY, axis=0)
    total = refl + absorbed_atm + sfc
    insolation = SOLAR_CONSTANT * cosz
    # The single-bounce ledger keeps > 97% of the energy exactly accounted;
    # the residual is the retained cloud-surface multiple reflection term.
    np.testing.assert_allclose(total, insolation, rtol=0.03)
    assert np.all(heat >= 0.0)


def test_shortwave_dark_at_night():
    temp, q, p, dp = make_column()
    cosz = np.zeros(temp.shape[1:])
    albedo = np.full_like(cosz, 0.15)
    heat, sfc, refl = shortwave(temp, q, p, dp, cosz, albedo)
    assert np.all(heat == 0.0) and np.all(sfc == 0.0) and np.all(refl == 0.0)


def test_shortwave_bright_surface_reflects_more():
    temp, q, p, dp = make_column()
    cosz = np.full(temp.shape[1:], 0.7)
    _, sfc_dark, refl_dark = shortwave(temp, q, p, dp, cosz, np.full_like(cosz, 0.1))
    _, sfc_ice, refl_ice = shortwave(temp, q, p, dp, cosz, np.full_like(cosz, 0.7))
    assert np.all(refl_ice > refl_dark)
    assert np.all(sfc_ice < sfc_dark)


# ------------------------------------------------------------- longwave
def test_longwave_isothermal_column_olr_below_blackbody():
    temp, q, p, dp = make_column(t_sfc=288.0)
    t_sfc = np.full(temp.shape[1:], 288.0)
    heat, olr, lw_down, net_sfc = longwave(temp, q, dp, t_sfc)
    bb = STEFAN_BOLTZMANN * 288.0**4
    assert np.all(olr < bb)            # greenhouse: colder emission aloft
    assert np.all(olr > 0.5 * bb)
    assert np.all(lw_down > 0.0)
    assert np.all(net_sfc > 0.0)       # surface loses LW on net


def test_longwave_energy_conservation():
    """Column LW heating integrates to (net absorbed) = -(OLR - surface emission + ...)."""
    temp, q, p, dp = make_column()
    t_sfc = np.full(temp.shape[1:], 290.0)
    heat, olr, lw_down, net_sfc = longwave(temp, q, dp, t_sfc)
    from repro.util.constants import CP, GRAVITY
    atm_gain = np.sum(heat * CP * dp / GRAVITY, axis=0)
    # Energy entering the atmosphere = surface net upward LW - OLR escaping.
    np.testing.assert_allclose(atm_gain, net_sfc - olr + 0.0, rtol=1e-10)


def test_more_co2_means_less_olr():
    temp, q, p, dp = make_column()
    t_sfc = np.full(temp.shape[1:], 288.0)
    _, olr_1x, _, _ = longwave(temp, q, dp, t_sfc, RadiationParams(co2_ppmv=355.0))
    _, olr_2x, _, _ = longwave(temp, q, dp, t_sfc, RadiationParams(co2_ppmv=710.0))
    assert np.all(olr_2x < olr_1x)
    # Forcing of plausible magnitude (a few W/m^2 for doubling).
    forcing = (olr_1x - olr_2x).mean()
    assert 0.3 < forcing < 15.0


def test_emissivity_bounded():
    temp, q, p, dp = make_column(q0=0.05)
    eps = layer_emissivity(q, dp)
    assert np.all(eps >= 0.0) and np.all(eps <= 0.98)


def test_vapor_path_scaling():
    temp, q, p, dp = make_column()
    w = vapor_path(q, dp)
    w2 = vapor_path(2 * q, dp)
    np.testing.assert_allclose(w2, 2 * w)
