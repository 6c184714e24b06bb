"""Tests for the semi-implicit spectral dynamical core."""

import numpy as np
import pytest

from repro.atmosphere.dynamics import (
    AtmosphereState,
    SpectralDynamicalCore,
    robert_filter,
)
from repro.atmosphere.spectral import SpectralTransform, Truncation
from repro.atmosphere.vertical import VerticalGrid
from repro.util.constants import OMEGA, P0
from tests import oracles as K
from tests.helpers import assert_matches_oracle


@pytest.fixture(scope="module")
def small_core():
    """Cheap configuration for fast tests: R8 on 24x48, 5 levels."""
    tr = SpectralTransform(nlat=24, nlon=48, trunc=Truncation(8))
    vg = VerticalGrid.ccm_like(nlev=5)
    return SpectralDynamicalCore(tr, vg, dt=1800.0)


def test_rejects_nonpositive_dt():
    tr = SpectralTransform(nlat=24, nlon=48, trunc=Truncation(8))
    with pytest.raises(ValueError):
        SpectralDynamicalCore(tr, VerticalGrid.ccm_like(5), dt=0.0)


def test_initial_state_shapes(small_core):
    st = small_core.initial_state()
    L = small_core.vg.nlev
    assert st.vort.shape == (L,) + small_core.tr.spec_shape
    assert st.q.shape == (L, 24, 48)
    with pytest.raises(ValueError):
        small_core.initial_state("warm_bubble")


def test_exact_rest_state_stays_at_rest(small_core):
    """Isothermal rest with zero noise is an exact steady state."""
    st = small_core.initial_state(noise_amplitude=0.0)
    out = small_core.run(st, 10)
    assert np.abs(out.vort).max() < 1e-16
    assert np.abs(out.div).max() < 1e-12
    assert np.abs(out.temp).max() < 1e-9
    assert np.abs(out.lnps).max() < 1e-12


def test_noise_stays_bounded_one_day(small_core):
    """Small random vorticity noise must not amplify (gravity-wave stability)."""
    st = small_core.initial_state(noise_amplitude=1e-8, seed=1)
    z0 = np.abs(st.vort).max()
    out = small_core.run(st, 48)
    assert np.abs(out.vort).max() < 50 * z0
    d = small_core.diagnose(out)
    assert np.abs(d.u).max() < 1.0
    assert np.abs(d.temp - small_core.vg.t_ref).max() < 1.0


def test_mass_conservation(small_core):
    """Global-mean surface pressure drifts by < 1e-4 relative over a day."""
    st = small_core.initial_state(noise_amplitude=1e-8, seed=2)
    m0 = small_core.global_mass(st)
    out = small_core.run(st, 48)
    m1 = small_core.global_mass(out)
    assert m0 == pytest.approx(P0, rel=1e-12)
    assert abs(m1 - m0) / m0 < 1e-4


def test_zonal_jet_runs_stably(small_core):
    """A balanced-ish jet integrates for 2 days without blowup."""
    st = small_core.initial_state("zonal_jet")
    out = small_core.run(st, 96)
    d = small_core.diagnose(out)
    assert np.all(np.isfinite(d.u))
    assert np.abs(d.u).max() < 150.0
    assert np.abs(d.temp - 300.0).max() < 60.0


def test_semi_implicit_allows_long_steps():
    """A gravity wave stays bounded over 60 steps of 1800 s, far past the
    explicit gravity-wave CFL limit at R8 — the point of the scheme (and of
    the paper's 30-minute step)."""
    tr = SpectralTransform(nlat=24, nlon=48, trunc=Truncation(8))
    vg = VerticalGrid.ccm_like(nlev=5)
    core = SpectralDynamicalCore(tr, vg, dt=1800.0)
    # Excite a gravity wave directly through a pressure anomaly.
    init = core.initial_state(noise_amplitude=0.0)
    init.lnps[2, 2] = 1e-4
    out = core.run(init, 60)
    assert np.all(np.isfinite(out.div))
    assert np.abs(out.div).max() < 1e-4


def test_hyperdiffusion_selectively_damps(small_core):
    st = small_core.initial_state(noise_amplitude=0.0)
    spec = np.zeros_like(st.vort)
    spec[:, 1, 0] = 1e-5   # large scale (n=1)
    spec[:, 8, 8] = 1e-5   # small scale (n=16)
    out = small_core._hyperdiffuse(spec)
    assert abs(out[0, 8, 8]) < abs(out[0, 1, 0])
    assert abs(out[0, 1, 0]) > 0.99e-5


def test_diagnose_pressure_and_geopotential(small_core):
    st = small_core.initial_state(noise_amplitude=0.0)
    d = small_core.diagnose(st)
    np.testing.assert_allclose(d.ps, P0, rtol=1e-12)
    # Pressure increases downward; geopotential decreases downward.
    assert np.all(np.diff(d.pressure, axis=0) > 0)
    assert np.all(np.diff(d.geopotential, axis=0) < 0)


def test_forward_start_restores_dt(small_core):
    before = small_core.dt
    small_core._forward_start(small_core.initial_state(noise_amplitude=0.0))
    assert small_core.dt == before


def test_forcing_hook_applied(small_core):
    calls = []

    def forcing(core, prev, curr):
        calls.append(curr.time)
        curr.temp[:, 0, 1] += 1e-6

    st = small_core.initial_state(noise_amplitude=0.0)
    out = small_core.run(st, 5, forcing=forcing)
    assert len(calls) == 5
    assert np.abs(out.temp).max() > 0


def test_state_copy_is_deep(small_core):
    st = small_core.initial_state(noise_amplitude=0.0)
    st2 = st.copy()
    st2.vort[0, 0, 0] = 1.0
    assert st.vort[0, 0, 0] == 0.0


# ------------------------------------------------- batched == per-slice oracle
def _random_state(core, rng, members=None):
    """A random spectral state, serial or with a member axis after levels."""
    tr, L = core.tr, core.vg.nlev
    batch = () if members is None else (members,)

    def spec(lead):
        a = (rng.normal(size=lead + tr.spec_shape)
             + 1j * rng.normal(size=lead + tr.spec_shape)) * 1e-5
        a[..., 0, :] = a[..., 0, :].real     # m=0 of a real field is real
        return a

    return AtmosphereState(
        vort=spec((L,) + batch), div=spec((L,) + batch),
        temp=spec((L,) + batch) * 1e5, lnps=spec(batch) * 1e3,
        q=np.zeros((L,) + batch + (tr.nlat, tr.nlon)))


@pytest.mark.parametrize("members", [None, 3])
def test_diagnose_bitwise_matches_per_slice_oracle(small_core, members):
    """The whole-stack transforms of both grid passes — ``diagnose`` (u, v,
    T) and the dynamics' own (zeta, D) — equal the unfused per-level
    (per-member) oracle calls to the epoch's tolerance (bitwise until epoch
    2 moved the Legendre sums to BLAS; batched == per-slice stays bitwise,
    ``test_kernels.py::TestModeIndependence``)."""
    tr = small_core.tr
    st = _random_state(small_core, np.random.default_rng(21), members)
    d = small_core.diagnose(st)
    _, _, _, zeta, div, *_ = small_core._dynamics_grid(st)
    for i in np.ndindex(st.vort.shape[:-2]):       # (l,) or (l, member)
        u, v = K.uv_from_vortdiv_ref(tr, st.vort[i], st.div[i])
        assert_matches_oracle(tr, d.u[i], u)
        assert_matches_oracle(tr, d.v[i], v)
        assert_matches_oracle(
            tr, d.temp[i], K.synthesize_ref(tr, st.temp[i]) + small_core.vg.t_ref)
        assert_matches_oracle(tr, zeta[i], K.synthesize_ref(tr, st.vort[i]))
        assert_matches_oracle(tr, div[i], K.synthesize_ref(tr, st.div[i]))


def test_grid_passes_share_their_fields_bitwise(small_core):
    """u, v and T come out of ``diagnose`` and the dynamics' grid pass with
    the same bytes, serial and batched: the two passes differ only in
    which other fields they build."""
    for members in (None, 3):
        st = _random_state(small_core, np.random.default_rng(23), members)
        d = small_core.diagnose(st)
        u, v, temp, *_ = small_core._dynamics_grid(st)
        for got, want in ((d.u, u), (d.v, v), (d.temp, temp)):
            assert got.tobytes() == want.tobytes()


def test_apply_tendencies_bitwise_matches_per_level_oracle():
    """The batched spectral update equals the per-level oracle loop to the
    epoch's tolerance."""
    from repro.core.config import test_config
    from repro.core.foam import FoamModel

    model = FoamModel(test_config())
    tr, L, dt = model.transform, model.vgrid.nlev, model.config.atm_dt
    rng = np.random.default_rng(22)
    curr = _random_state(model.dycore, rng)
    dtdt, dudt, dvdt, dqdt = rng.normal(size=(4, L, tr.nlat, tr.nlon)) * 1e-5
    got = model._apply_tendencies_kernel(curr, dtdt, dudt, dvdt, dqdt)
    for l in range(L):
        dv, dd = K.vortdiv_from_uv_ref(tr, dudt[l], dvdt[l])
        assert_matches_oracle(tr, got.temp[l],
                              curr.temp[l] + dt * K.analyze_ref(tr, dtdt[l]))
        assert_matches_oracle(tr, got.vort[l], curr.vort[l] + dt * dv)
        assert_matches_oracle(tr, got.div[l], curr.div[l] + dt * dd)


def test_rossby_haurwitz_wave_4_on_the_transform():
    """The non-divergent barotropic vorticity equation, stepped on our own
    transform as a textbook spectral model does it: leapfrog, Robert filter
    0.04, implicit del^4 damping.  Haurwitz's wave 4 (Williamson et al.
    1992, case 6: omega = K = 7.848e-6 / s) is an exact solution that
    travels east at nu = (R (3 + R) omega - 2 Omega) / ((1 + R)(2 + R))
    without changing shape, so its kinetic energy and enstrophy stay put.

    R15 on the paper's 40 x 48 grid, dt = 1800 s, 5 days.  Measured, float64
    (float32): phase speed within 3.4e-5 (2.9e-5) of nu; energy down
    3.487e-3 (3.491e-3), enstrophy down 7.089e-3 (7.091e-3).  Both losses
    are the wave's amplitude, down 3.8e-3: 1.5e-3 to the filter's damping
    of the physical mode, (R nu dt)^2 / 2 * 0.04 a step, and 2.4e-3 to
    the del^4 damping of n = 5 (K4 = 1e16 m^4/s e-folds n = 30 in 2.2
    days, n = 5 in 5.8 years).  With the damping off, both fall by what
    the filter takes of the wave and the rest holds to 3e-16: the
    transform's tendency moves neither anywhere else.
    """
    tr = SpectralTransform(nlat=40, nlon=48, trunc=Truncation(15))
    R, w, dt, nsteps = 4, 7.848e-6, 1800.0, 240
    lon, mu = np.meshgrid(tr.lons, tr.mu)
    f = 2.0 * OMEGA * mu
    zeta = 2.0 * w * mu - (R + 1) * (R + 2) * w * (
        1.0 - mu**2) ** (R / 2) * mu * np.cos(R * lon)
    damping = tr.damping_denominator(1.0e16, 2.0 * dt)

    def winds(z):
        return tr.uv_from_vortdiv(z, np.zeros_like(z))

    def tendency(z):                    # -div((zeta + f) v)
        u, v = winds(z)
        eta = tr.synthesize(z) + f
        return -tr.vortdiv_from_uv(eta * u, eta * v)[1]

    def energy_and_enstrophy(z):
        u, v = winds(z)
        return np.array([tr.global_mean(u * u + v * v),
                         tr.global_mean(tr.synthesize(z) ** 2)]) / 2.0

    prev = tr.analyze(zeta)
    curr = prev + dt * tendency(prev)   # forward start
    turned = np.angle(curr[R, 1] / prev[R, 1])   # slot (m, k = n - m)
    start = energy_and_enstrophy(prev)
    for _ in range(nsteps - 1):
        new = (prev + 2.0 * dt * tendency(curr)) / damping
        prev, curr = robert_filter(prev, curr, new, 0.04), new
        turned += np.angle(curr[R, 1] / prev[R, 1])

    nu = (R * (3 + R) * w - 2.0 * OMEGA) / ((1 + R) * (2 + R))
    assert abs(-turned / (R * nsteps * dt) / nu - 1.0) < 1e-4
    d_energy, d_enstrophy = energy_and_enstrophy(curr) / start - 1.0
    assert -4e-3 < d_energy < 0.0
    assert -8e-3 < d_enstrophy < 0.0
