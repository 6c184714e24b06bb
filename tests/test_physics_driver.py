"""Integration test of the full physics suite driver."""

import numpy as np
import pytest

from repro.atmosphere.physics import PhysicsSuite, SurfaceState
from repro.util.constants import SECONDS_PER_DAY
from repro.util.thermo import saturation_mixing_ratio
from repro.util.tree import tree_leaves
from tests.helpers import column_surface_fluxes


@pytest.fixture
def setup():
    L, nlat, nlon = 8, 6, 8
    lats = np.deg2rad(np.linspace(-75, 75, nlat))
    lons = np.linspace(0, 2 * np.pi, nlon, endpoint=False)
    sigma_half = np.linspace(0.0, 1.0, L + 1)
    dsigma = np.diff(sigma_half)
    sigma = 0.5 * (sigma_half[:-1] + sigma_half[1:])
    ps = np.full((nlat, nlon), 1.0e5)
    pressure = sigma[:, None, None] * ps[None]
    shape = (L, nlat, nlon)
    temp = np.broadcast_to(288.0 - 55.0 * (1.0 - sigma[:, None, None]), shape).copy()
    q = 0.6 * saturation_mixing_ratio(temp, pressure)
    u = np.full(shape, 5.0)
    v = np.zeros(shape)
    geop = np.zeros(shape)
    for l in range(L - 2, -1, -1):
        geop[l] = geop[l + 1] + 287.0 * temp[l] * np.log(pressure[l + 1] / pressure[l])
    surface = SurfaceState(t_sfc=np.full((nlat, nlon), 290.0),
                           albedo=np.full((nlat, nlon), 0.1))
    fluxes = column_surface_fluxes(temp, q, u, v, ps, surface.t_sfc, ocean=True)
    return dict(temp=temp, q=q, u=u, v=v, pressure=pressure, ps=ps,
                geopotential=geop, dsigma=dsigma, surface=surface,
                lats=lats, lons=lons, external_fluxes=fluxes)


def test_driver_produces_finite_tendencies(setup):
    suite = PhysicsSuite()
    out = suite.compute(dt=1800.0, time=0.0, **setup)
    for arr in (out.dtdt, out.dqdt, out.dudt, out.dvdt):
        assert np.all(np.isfinite(arr))
    assert np.all(out.precip_conv >= 0.0)
    assert np.all(out.precip_strat >= 0.0)
    assert np.all(out.radiation.olr > 50.0)


def test_driver_radiation_cadence(setup):
    """Radiation runs twice per day: inside the interval a call applies the
    very arrays it was handed; at the interval it hands back new ones."""
    suite = PhysicsSuite()
    first = suite.compute(dt=1800.0, time=0.0, **setup).radiation
    assert first.time == 0.0
    for time in (1800.0, SECONDS_PER_DAY / 2 - 1800.0):
        assert suite.compute(dt=1800.0, time=time, radiation=first,
                             **setup).radiation is first
    due = suite.compute(dt=1800.0, time=SECONDS_PER_DAY / 2, radiation=first,
                        **setup).radiation
    assert due.time == SECONDS_PER_DAY / 2
    for (path, new), (_, old) in zip(tree_leaves(due), tree_leaves(first)):
        assert new is not old, path
    # The suite object remembers nothing: a call without a radiation state
    # computes one, whatever was computed before.
    assert suite.compute(dt=1800.0, time=1800.0, **setup).radiation.time \
        == 1800.0


def test_driver_external_fluxes_respected(setup):
    """The boundary layer is driven by the fluxes handed in, and by nothing
    else: the surface fluxes are the coupler's, the driver has none."""
    suite = PhysicsSuite()
    nlat, nlon = setup["ps"].shape
    zeros = np.zeros((nlat, nlon))
    ext = {"shf": zeros, "lhf": zeros, "evap": zeros,
           "taux": zeros, "tauy": zeros, "ustar": np.full((nlat, nlon), 0.1)}
    calm = suite.compute(dt=1800.0, time=0.0, **{**setup, "external_fluxes": ext})
    assert np.array_equal(
        calm.dtdt,
        suite.compute(dt=1800.0, time=0.0,
                      **{**setup, "external_fluxes": dict(ext)}).dtdt)
    # The lowest level feels the fluxes: moister and windier (stress) with
    # the bulk fluxes than with none.
    bulk = suite.compute(dt=1800.0, time=0.0, **setup)
    assert not np.array_equal(bulk.dqdt[-1], calm.dqdt[-1])
    assert not np.array_equal(bulk.dudt[-1], calm.dudt[-1])
    with pytest.raises(TypeError, match="external_fluxes"):
        suite.compute(dt=1800.0, time=0.0,
                      **{k: v for k, v in setup.items() if k != "external_fluxes"})


def test_driver_tendencies_bounded(setup):
    """One 30-minute step changes T by < 15 K anywhere (physics sanity)."""
    suite = PhysicsSuite()
    out = suite.compute(dt=1800.0, time=0.0, **setup)
    assert np.abs(out.dtdt * 1800.0).max() < 15.0
    q_new = setup["q"] + 1800.0 * out.dqdt
    assert q_new.min() > -1e-10
