"""Tests for the Hack shallow and Zhang-McFarlane deep convection schemes."""

import numpy as np
import pytest

from repro.atmosphere.physics.convection import (
    compute_cape,
    hack_shallow,
    zhang_mcfarlane_deep,
)
from repro.util.constants import CP, GRAVITY, LATENT_HEAT_VAP
from repro.util.thermo import saturation_mixing_ratio
from tests.oracles import bitwise, hack_shallow_ref


def make_sounding(L=12, unstable=False, nlat=2, nlon=3):
    sigma = np.linspace(0.1, 0.99, L)
    ps = np.full((nlat, nlon), 1.0e5)
    p = sigma[:, None, None] * ps[None]
    dp = np.gradient(sigma)[:, None, None] * ps[None]
    shape = (L, nlat, nlon)
    if unstable:
        # Hot, very moist surface under a cool dry troposphere: large CAPE.
        temp = np.broadcast_to(220.0 + 85.0 * sigma[:, None, None] ** 0.8, shape).copy()
        q = np.broadcast_to(
            np.where(sigma[:, None, None] > 0.9, 0.022, 1e-4), shape).copy()
    else:
        # Stable stratification, dry: much warmer aloft than a dry adiabat.
        temp = np.broadcast_to(
            300.0 - 40.0 * (1.0 - sigma[:, None, None]), shape).copy()
        q = np.full(shape, 1e-4)
    geop = np.zeros_like(temp)
    # hydrostatic-ish height
    for l in range(L - 2, -1, -1):
        geop[l] = geop[l + 1] + 287.0 * temp[l] * (np.log(p[l + 1] / p[l]))
    return temp, q, p, dp, geop


# ------------------------------------------------------------- CAPE
def test_cape_zero_for_stable_dry_column():
    temp, q, p, dp, geop = make_sounding(unstable=False)
    cape = compute_cape(temp, q, p)
    assert np.all(cape < 10.0)


def test_cape_large_for_moist_unstable_column():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    cape = compute_cape(temp, q, p)
    assert np.all(cape > 500.0)


def test_cape_monotone_in_low_level_moisture():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    cape_moist = compute_cape(temp, q, p)
    cape_drier = compute_cape(temp, 0.5 * q, p)
    assert np.all(cape_drier <= cape_moist + 1e-9)


# ------------------------------------------------------------- ZM deep
def test_zm_inactive_below_threshold():
    temp, q, p, dp, geop = make_sounding(unstable=False)
    dtdt, dqdt, prec = zhang_mcfarlane_deep(temp, q, p, dp, dt=1800.0)
    assert np.all(dtdt == 0.0) and np.all(dqdt == 0.0) and np.all(prec == 0.0)


def test_zm_fires_and_precipitates_on_unstable_column():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dtdt, dqdt, prec = zhang_mcfarlane_deep(temp, q, p, dp, dt=1800.0)
    assert np.all(prec > 0.0)
    # Heating aloft, drying at low levels.
    assert dtdt.max() > 0.0
    assert dqdt.min() < 0.0


def test_zm_moisture_budget_closes():
    """Column moisture loss equals precipitation."""
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dt = 1800.0
    dtdt, dqdt, prec = zhang_mcfarlane_deep(temp, q, p, dp, dt=dt)
    mass = dp / GRAVITY
    col_dq = np.sum(dqdt * mass, axis=0)
    np.testing.assert_allclose(-col_dq, prec, rtol=1e-10)


def test_zm_never_drives_negative_humidity():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dt = 1800.0
    _, dqdt, _ = zhang_mcfarlane_deep(temp, q, p, dp, dt=dt)
    assert np.all(q + dt * dqdt >= -1e-18)


def test_zm_reduces_cape():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dt = 1800.0
    dtdt, dqdt, _ = zhang_mcfarlane_deep(temp, q, p, dp, dt=dt)
    cape0 = compute_cape(temp, q, p)
    cape1 = compute_cape(temp + dt * dtdt, q + dt * dqdt, p)
    assert np.all(cape1 < cape0)


# ------------------------------------------------------------- Hack shallow
def test_hack_inactive_on_stable_column():
    temp, q, p, dp, geop = make_sounding(unstable=False)
    dtdt, dqdt, prec = hack_shallow(temp, q, p, dp, geop, dt=1800.0)
    assert np.all(dtdt == 0.0) and np.all(prec == 0.0)


def test_hack_transports_mse_upward():
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dtdt, dqdt, prec = hack_shallow(temp, q, p, dp, geop, dt=1800.0)
    # Lowest layer loses energy, some layer above gains.
    assert dtdt[-1].max() <= 0.0 or dqdt[-1].max() <= 0.0
    assert (dtdt[:-1].max() > 0.0) or (dqdt[:-1].max() > 0.0)
    assert np.all(prec >= 0.0)


def test_hack_energy_budget_closes():
    """Column MSE change equals -L*precip (energy leaves as latent in rain...
    rain removes L q, heating stays) — net cp T + L q column change must be
    ~ 0 because condensation converts latent to sensible in place."""
    temp, q, p, dp, geop = make_sounding(unstable=True)
    dt = 1800.0
    dtdt, dqdt, prec = hack_shallow(temp, q, p, dp, geop, dt=dt)
    mass = dp / GRAVITY
    d_cp = np.sum(CP * dtdt * mass, axis=0)
    d_lq = np.sum(LATENT_HEAT_VAP * dqdt * mass, axis=0)
    np.testing.assert_allclose(d_cp + d_lq, 0.0, atol=1e-6 * CP)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hack_matches_the_whole_column_loop_bitwise(dtype):
    """Hack on a superadiabatic, nearly saturated sounding (most of its 17
    level pairs active, several in a row, raining in every column) equals
    the loop that recomputed every level after each active pair, bit for
    bit and in the input's dtype; the caller's T and q are not written
    to."""
    L, rng = 18, np.random.default_rng(3)
    sigma = np.linspace(0.05, 0.995, L)
    ps = 1.0e5 * (1.0 + 0.01 * rng.standard_normal((4, 6)))
    p = sigma[:, None, None] * ps[None]
    dp = np.gradient(sigma)[:, None, None] * ps[None]
    temp = (200.0 + 105.0 * np.sqrt(sigma)[:, None, None]
            + rng.standard_normal(p.shape))
    q = 0.99 * saturation_mixing_ratio(temp, p)
    geop = np.zeros_like(temp)
    for l in range(L - 2, -1, -1):
        geop[l] = geop[l + 1] + 287.0 * temp[l] * np.log(p[l + 1] / p[l])
    temp, q, p, dp, geop = (a.astype(dtype) for a in (temp, q, p, dp, geop))
    before = temp.copy(), q.copy()

    got = hack_shallow(temp, q, p, dp, geop, dt=1800.0)
    want = hack_shallow_ref(temp, q, p, dp, geop, dt=1800.0)
    assert (want[2] > 0.0).all() and (want[0] != 0.0).any(axis=(1, 2)).sum() > 10
    for name, g, w in zip(("dtdt", "dqdt", "precip"), got, want):
        assert g.dtype == dtype and bitwise(g, w), name
    assert bitwise(temp, before[0]) and bitwise(q, before[1])


def test_hack_and_zm_are_independent_of_column_order():
    """Physics is column-local: permuting columns permutes the output."""
    temp, q, p, dp, geop = make_sounding(unstable=True, nlat=1, nlon=4)
    rng = np.random.default_rng(0)
    q = q * (1.0 + 0.2 * rng.random(q.shape))
    perm = np.array([2, 0, 3, 1])
    out1 = zhang_mcfarlane_deep(temp, q, p, dp, 1800.0)[2]
    out2 = zhang_mcfarlane_deep(temp[:, :, perm], q[:, :, perm],
                                p[:, :, perm], dp[:, :, perm], 1800.0)[2]
    np.testing.assert_allclose(out2, out1[:, perm])
