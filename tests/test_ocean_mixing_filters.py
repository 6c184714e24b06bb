"""Tests for PP mixing, convective adjustment, polar filter, and operators."""

import itertools

import numpy as np
import pytest

from repro.ocean import (
    OceanForcing,
    OceanGrid,
    OceanModel,
    PPMixingParams,
    convective_adjustment,
    mix_column_implicit,
    polar_filter_factors,
    pp_viscosity,
    richardson_number,
    world_topography,
)
from repro.ocean.eos import density_anomaly
from repro.ocean.filters import PolarFilter, _smooth, _smoothing_weights
from repro.ocean.operators import (
    Stencil,
    biharmonic,
    ddx,
    ddy,
    flux_divergence,
    laplacian,
)
from tests.oracles import bitwise


def masked_zonal_smooth(row, row_mask, passes):
    """The mask-aware 1-2-1 smoother a coastal polar row gets, by itself."""
    return _smooth(row, row_mask, _smoothing_weights(row_mask), passes)


# ------------------------------------------------------------- PP mixing
def test_pp_viscosity_decreases_with_richardson():
    ri = np.array([0.0, 0.5, 2.0, 10.0])
    nu, kappa = pp_viscosity(ri)
    assert np.all(np.diff(nu) < 0)
    assert np.all(np.diff(kappa) < 0)
    assert np.all(kappa <= nu + 1e-12)


def test_pp_steeper_exponent_mixes_less_at_moderate_ri():
    """FOAM's steepened exponent (Peters et al.) cuts mixing at Ri ~ 0.5."""
    ri = np.array([0.5])
    nu_pp81, _ = pp_viscosity(ri, PPMixingParams(exponent=2.0))
    nu_foam, _ = pp_viscosity(ri, PPMixingParams(exponent=3.0))
    assert nu_foam[0] < nu_pp81[0]


def test_pp_convective_regime():
    nu, kappa = pp_viscosity(np.array([-0.1]))
    p = PPMixingParams()
    assert kappa[0] == p.convective_kappa


def test_richardson_number_sign_follows_stratification():
    z = np.array([10.0, 100.0])
    u = np.array([[0.1], [0.0]])
    v = np.zeros((2, 1))
    ri_stable = richardson_number(u, v, np.array([[1e-5]]), z)
    ri_unstable = richardson_number(u, v, np.array([[-1e-5]]), z)
    assert ri_stable[0, 0] > 0 > ri_unstable[0, 0]


def test_mix_column_conserves_integral_without_flux():
    dz = np.array([10.0, 20.0, 40.0, 80.0])
    field = np.array([20.0, 15.0, 10.0, 5.0])[:, None]
    kappa = np.full((3, 1), 1e-3)
    out = mix_column_implicit(field, kappa, dz, dt=3600.0)
    np.testing.assert_allclose((out[:, 0] * dz).sum(), (field[:, 0] * dz).sum(),
                               rtol=1e-12)


def test_mix_column_respects_mask():
    """No diffusion across the sea floor: inactive levels stay untouched."""
    dz = np.array([10.0, 20.0, 40.0])
    field = np.array([20.0, 10.0, 0.0])[:, None]
    kappa = np.full((2, 1), 1.0)
    mask = np.array([True, True, False])[:, None]
    out = mix_column_implicit(field, kappa, dz, dt=36000.0, mask=mask)
    assert out[2, 0] == 0.0
    # Active pair mixed toward each other.
    assert out[0, 0] < 20.0 and out[1, 0] > 10.0


def test_surface_flux_enters_top_layer():
    dz = np.array([10.0, 20.0])
    field = np.zeros((2, 1))
    kappa = np.zeros((1, 1))
    out = mix_column_implicit(field, kappa, dz, dt=100.0,
                              surface_flux=np.array([5.0e-2]))
    assert out[0, 0] == pytest.approx(5.0e-2 * 100.0 / 10.0)
    assert out[1, 0] == 0.0


# ------------------------------------------------------------- convective adj
def test_convective_adjustment_stabilizes_column():
    z = np.array([10.0, 50.0, 200.0])
    dz = np.array([20.0, 60.0, 300.0])
    temp = np.array([2.0, 10.0, 12.0])[:, None]   # cold over warm: unstable
    salt = np.full((3, 1), 35.0)
    t2, s2 = convective_adjustment(temp, salt, z, dz, passes=12)
    rho = density_anomaly(t2, s2, 0.0)
    # Pairwise sweeps converge geometrically; a milli-unit residual remains.
    assert np.all(np.diff(rho[:, 0]) >= -2e-3)
    # The original profile was far more unstable than that.
    rho0 = density_anomaly(temp, salt, 0.0)
    assert np.diff(rho0[:, 0]).min() < -1.0


def test_convective_adjustment_conserves_heat():
    z = np.array([10.0, 50.0, 200.0])
    dz = np.array([20.0, 60.0, 300.0])
    temp = np.array([2.0, 10.0, 12.0])[:, None]
    salt = np.full((3, 1), 35.0)
    t2, _ = convective_adjustment(temp, salt, z, dz)
    np.testing.assert_allclose((t2[:, 0] * dz).sum(), (temp[:, 0] * dz).sum(),
                               rtol=1e-12)


def test_convective_adjustment_mask_protects_inactive():
    z = np.array([10.0, 50.0])
    dz = np.array([20.0, 60.0])
    temp = np.array([[10.0], [0.0]])  # inactive placeholder below
    salt = np.array([[35.0], [0.0]])
    mask = np.array([[True], [False]])
    t2, s2 = convective_adjustment(temp, salt, z, dz, mask=mask)
    np.testing.assert_allclose(t2, temp)
    np.testing.assert_allclose(s2, salt)


# ------------------------------------------------------------- polar filter
def test_polar_filter_factors_pass_equatorward():
    f = polar_filter_factors(64, coslat_row=0.9, coslat_crit=0.5)
    np.testing.assert_allclose(f, 1.0)


def test_polar_filter_factors_damp_high_wavenumbers():
    f = polar_filter_factors(64, coslat_row=0.1, coslat_crit=0.5)
    assert f[0] == 1.0
    assert f[-1] < 0.1
    assert np.all(np.diff(f[1:]) <= 1e-12)


def test_polar_filter_preserves_zonal_mean():
    g = OceanGrid(nx=32, ny=32, nlev=2)
    mask = np.ones((32, 32), dtype=bool)
    rng = np.random.default_rng(0)
    field = rng.normal(size=(32, 32))
    out = PolarFilter(g.lats, mask, 50.0)(field.copy())
    np.testing.assert_allclose(out.mean(axis=1), field.mean(axis=1), atol=1e-12)
    # Polar rows actually changed; tropical rows untouched.
    assert not np.allclose(out[-1], field[-1])
    j_eq = 16
    np.testing.assert_allclose(out[j_eq], field[j_eq])


def test_masked_smoother_never_uses_land_values():
    row = np.array([1.0, 2.0, 999.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    mask = np.array([True, True, False, True, True, True, True, True])
    out = masked_zonal_smooth(row, mask, passes=3)
    # Land cell unchanged, ocean values bounded by ocean range.
    assert out[2] == 999.0
    assert out[~(~mask)].max() <= 999.0
    ocean = out[mask]
    assert ocean.max() <= 7.0 + 1e-12 and ocean.min() >= 1.0 - 1e-12


# ------------------------------------------------------------- operators
@pytest.fixture
def opgrid():
    g = OceanGrid(nx=24, ny=24, nlev=2)
    mask = np.ones((24, 24), dtype=bool)
    return g, mask

def test_ddx_of_zonal_wave(opgrid):
    g, mask = opgrid
    field = np.sin(2 * g.lons)[None, :] * np.ones((24, 1))
    d = ddx(field, g.dx, mask)
    expect = 2 * np.cos(2 * g.lons)[None, :] / (g.dx[:, None] * 24 / (2 * np.pi) / 1)
    # centered difference of sin(2x): derivative scaled by sin(k dx)/dx factor
    k = 2
    dlon = 2 * np.pi / 24
    eff = np.sin(k * dlon) / dlon
    expect = eff * np.cos(2 * g.lons)[None, :] * (dlon / g.dx[:, None])
    np.testing.assert_allclose(d, expect, atol=1e-12)


def test_flux_divergence_conservative(opgrid):
    """Global area integral of div(H u) vanishes exactly (closed domain)."""
    g, mask = opgrid
    rng = np.random.default_rng(1)
    hu = rng.normal(size=(24, 24))
    hv = rng.normal(size=(24, 24))
    # Random land too.
    mask = rng.random((24, 24)) > 0.25
    div = flux_divergence(hu, hv, g.dx, g.dy, mask)
    areas = (g.dx * g.dy)[:, None]
    total = np.sum(div * areas)
    assert abs(total) < 1e-8 * np.sum(np.abs(div) * areas + 1e-30)


def test_laplacian_of_constant_is_zero(opgrid):
    g, mask = opgrid
    field = np.full((24, 24), 3.7)
    np.testing.assert_allclose(laplacian(field, g.dx, g.dy, mask), 0.0, atol=1e-18)
    np.testing.assert_allclose(biharmonic(field, g.dx, g.dy, mask), 0.0, atol=1e-18)


def test_laplacian_sign_at_maximum(opgrid):
    g, mask = opgrid
    field = np.zeros((24, 24))
    field[12, 12] = 1.0
    lap = laplacian(field, g.dx, g.dy, mask)
    assert lap[12, 12] < 0
    assert lap[12, 13] > 0


def test_ddx_centered_only_drops_coastal_gradient(opgrid):
    g, _ = opgrid
    mask = np.ones((24, 24), dtype=bool)
    mask[:, 10] = False
    field = np.cumsum(np.ones((24, 24)), axis=1)
    d_onesided = ddx(field, g.dx, mask)
    d_centered = ddx(field, g.dx, mask, centered_only=True)
    # Cells adjacent to the land column: one-sided keeps a gradient,
    # centered-only zeroes it.
    assert d_onesided[5, 9] != 0.0
    assert d_centered[5, 9] == 0.0
    # Interior unchanged between the two.
    np.testing.assert_allclose(d_centered[:, 3], d_onesided[:, 3])


# ---------------------------------------------------------------------------
# Bitwise oracles.  The bodies below are the straightforward formulations —
# recompute everything, shift the mask on every call, filter row by row —
# that the ocean step used before it learnt to do static work once
# (Stencil, PolarFilter, the incremental EOS in convective_adjustment).
# They live here, not in src/, and the fast code must match them bit for
# bit, member axes and single precision included.
# ---------------------------------------------------------------------------
L, NENS = 4, 3


def _walled(arr, fill):
    """(north, south) neighbours of ``arr`` with ``fill`` beyond the walls
    (``None``: replicate the wall row)."""
    north, south = np.roll(arr, -1, axis=-2), np.roll(arr, 1, axis=-2)
    north[..., -1, :] = arr[..., -1, :] if fill is None else fill
    south[..., 0, :] = arr[..., 0, :] if fill is None else fill
    return north, south


def _ref_diff(field, d_row, mask, centered_only, axis):
    if axis == -1:
        ahead, behind = np.roll(field, -1, axis=-1), np.roll(field, 1, axis=-1)
        m_ahead, m_behind = np.roll(mask, -1, axis=-1), np.roll(mask, 1, axis=-1)
    else:
        ahead, behind = _walled(field, None)
        m_ahead, m_behind = _walled(mask, False)
    one_sided = 0.0 if centered_only else np.where(
        m_ahead, ahead - field, np.where(m_behind, field - behind, 0.0))
    d = np.where(m_ahead & m_behind, (ahead - behind) * 0.5, one_sided)
    return np.where(mask, d / d_row[..., :, None], 0.0)


def _ref_laplacian(field, dx_row, dy_row, mask):
    out = np.zeros_like(field)
    east, west = np.roll(field, -1, axis=-1), np.roll(field, 1, axis=-1)
    m_east, m_west = np.roll(mask, -1, axis=-1), np.roll(mask, 1, axis=-1)
    out += (np.where(m_east, east - field, 0.0)
            + np.where(m_west, west - field, 0.0)) / (dx_row[..., :, None] ** 2)
    north, south = _walled(field, 0.0)
    m_north, m_south = _walled(mask, False)
    out += (np.where(m_north, north - field, 0.0)
            + np.where(m_south, south - field, 0.0)) / (dy_row[..., :, None] ** 2)
    return np.where(mask, out, 0.0)


def _ref_flux_divergence(h_u, h_v, dx_row, dy_row, mask):
    area = (dx_row * dy_row)[..., :, None]
    he = 0.5 * (h_u + np.roll(h_u, -1, axis=-1))
    fe = np.where(mask & np.roll(mask, -1, axis=-1), he, 0.0) * dy_row[..., :, None]
    div_x = (fe - np.roll(fe, 1, axis=-1)) / area
    dx_edge = 0.5 * (dx_row[:-1] + dx_row[1:])
    hn = 0.5 * (h_v[..., :-1, :] + h_v[..., 1:, :])
    fn = np.where(mask[..., :-1, :] & mask[..., 1:, :], hn, 0.0) * dx_edge[..., :, None]
    fy = np.empty_like(h_v)
    fy[..., 0, :] = fn[..., 0, :]
    fy[..., 1:-1, :] = fn[..., 1:, :] - fn[..., :-1, :]
    fy[..., -1, :] = -fn[..., -1, :]
    return np.where(mask, div_x + fy / area, 0.0)


def _ref_polar_filter(field, lats, mask, lat_crit_deg):
    out = field.copy()
    nx = field.shape[-1]
    coslat_crit = np.cos(np.deg2rad(lat_crit_deg))
    coslat = np.cos(lats)
    for j in range(len(lats)):
        if coslat[j] >= coslat_crit:
            continue
        row_mask = mask[..., j, :]
        slab = out[..., j, :]
        if row_mask.all():
            spec = np.fft.rfft(slab, axis=-1)
            spec *= polar_filter_factors(nx, float(coslat[j]), float(coslat_crit))
            out[..., j, :] = np.fft.irfft(spec, n=nx, axis=-1)
            continue
        passes = int(np.clip(np.ceil(coslat_crit / max(float(coslat[j]), 1e-3)), 1, 8))
        w_e = np.where(row_mask & np.roll(row_mask, -1, axis=-1), 0.25, 0.0)
        w_w = np.where(row_mask & np.roll(row_mask, 1, axis=-1), 0.25, 0.0)
        for _ in range(passes):
            east, west = np.roll(slab, -1, axis=-1), np.roll(slab, 1, axis=-1)
            slab = np.where(row_mask, (1.0 - w_e - w_w) * slab + w_e * east + w_w * west, slab)
        out[..., j, :] = slab
    return out


def _ref_convective_adjustment(temp, salt, dz, passes, mask):
    t, s = temp.copy(), salt.copy()
    dzf = dz.reshape((-1,) + (1,) * (t.ndim - 1))
    for _ in range(passes):
        for k in range(t.shape[0] - 1):
            rho = density_anomaly(t, s, 0.0)          # everything, every pair
            unstable = (rho[k] > rho[k + 1] + 1e-12) & mask[k] & mask[k + 1]
            w0 = dzf[k] / (dzf[k] + dzf[k + 1])
            t_mix = w0 * t[k] + (1.0 - w0) * t[k + 1]
            s_mix = w0 * s[k] + (1.0 - w0) * s[k + 1]
            for f, mix in ((t, t_mix), (s, s_mix)):
                f[k] = np.where(unstable, mix, f[k])
                f[k + 1] = np.where(unstable, mix, f[k + 1])
    return t, s


@pytest.fixture(params=[(), (NENS,)], ids=["serial", "members"])
def masked(request):
    """(grid, (L, ny, nx) mask, its view against the fields, field maker).

    ``fields(n)`` draws ``n`` Gaussian fields; ``fields(n, kind)`` makes the
    sign-of-zero cases the in-place operators could get wrong: ``"zeros"``
    is all (+-0.0), ``"negzeros"`` Gaussian with 30 % of the cells -0.0.
    """
    lead = request.param
    g = OceanGrid(nx=16, ny=24, nlev=L)
    rng = np.random.default_rng(7)
    mask = rng.random((L, g.ny, g.nx)) > 0.3
    mask[:, :2] = False                  # all-land polar rows
    mask[:, -3:] = True                  # fully open polar rows (FFT)
    mask[1:, -2] = rng.random((L - 1, g.nx)) > 0.3   # open at the top only
    view = mask[(slice(None),) + (None,) * len(lead)]
    shape = (L,) + lead + (g.ny, g.nx)

    def fields(n, kind="normal"):
        out = []
        for _ in range(n):
            f = rng.normal(size=shape)
            if kind == "zeros":
                f = np.where(rng.random(shape) < 0.5, 0.0, -0.0)
            elif kind == "negzeros":
                f[rng.random(shape) < 0.3] = -0.0
            out.append(f.astype(g.policy.float_dtype))
        return out
    return g, mask, view, fields


FIELD_KINDS = ["normal", "zeros", "negzeros"]


def _operator_masks(mask, view):
    """(mask, its view against the fields) for the operator oracles: the
    fixture's, and the same with a level that has no wet cell."""
    dry = mask.copy()
    dry[L - 1] = False
    lift = (slice(None),) + (None,) * (view.ndim - mask.ndim)
    return (mask, view), (dry, dry[lift])


def _layouts(f):
    """``f`` and two non-contiguous arrays of the same values: every other
    column of a wider array, and the leading rows of a taller one (whose
    levels are contiguous when serial, strided with a member axis)."""
    strided = np.repeat(f, 2, axis=-1)[..., ::2]
    rows = np.concatenate([f, f], axis=-2)[..., :f.shape[-2], :]
    assert not strided.flags.c_contiguous and not rows.flags.c_contiguous
    assert not strided[0].flags.c_contiguous
    return f, strided, rows


def _assert_bitwise(got, want):
    """Same dtype, shape and *bytes*: -0.0 is not +0.0 here."""
    assert got.dtype == want.dtype and got.shape == want.shape
    assert bitwise(got, want)


@pytest.mark.parametrize("centered_only", [False, True])
def test_ddx_ddy_match_shift_per_call_oracle(masked, centered_only):
    g, mask, view, fields = masked
    for (mask, view), kind in itertools.product(_operator_masks(mask, view),
                                                FIELD_KINDS):
        (f,) = fields(1, kind)
        stencil = Stencil.of(mask, g.dx, g.dy)
        for op, method, d_row, axis in ((ddx, Stencil.ddx, g.dx, -1),
                                        (ddy, Stencil.ddy, g.dy, -2)):
            want = _ref_diff(f, d_row, view, centered_only, axis)
            assert want.dtype == g.policy.float_dtype
            for a in _layouts(f):
                _assert_bitwise(op(a, d_row, view, centered_only), want)
                for k in range(L):        # the model's use: one level a time
                    _assert_bitwise(
                        method(stencil[k], a[k], centered_only), want[k])


def test_laplacian_flux_divergence_match_shift_per_call_oracle(masked):
    g, mask, view, fields = masked
    for (mask, view), kind in itertools.product(_operator_masks(mask, view),
                                                FIELD_KINDS):
        f, hv = fields(2, kind)
        stencil = Stencil.of(mask, g.dx, g.dy)
        lap = _ref_laplacian(f, g.dx, g.dy, view)
        div = _ref_flux_divergence(f, hv, g.dx, g.dy, view)
        assert lap.dtype == div.dtype == g.policy.float_dtype
        for a, b in zip(_layouts(f), _layouts(hv)):
            _assert_bitwise(laplacian(a, g.dx, g.dy, view), lap)
            _assert_bitwise(biharmonic(a, g.dx, g.dy, view),
                            _ref_laplacian(lap, g.dx, g.dy, view))
            _assert_bitwise(flux_divergence(a, b, g.dx, g.dy, view), div)
            for k in range(L):
                _assert_bitwise(stencil[k].laplacian(a[k]), lap[k])
                _assert_bitwise(
                    stencil[k].flux_divergence(a[k], b[k]), div[k])


def test_stencils_of_two_masks_in_one_buffer_differ():
    """A mask's identity is its contents: rank threads and tests build mask
    after mask in recycled memory, so nothing may key on id()/address."""
    g = OceanGrid(nx=16, ny=24, nlev=2)
    rng = np.random.default_rng(3)
    f = rng.normal(size=(g.ny, g.nx)).astype(g.policy.float_dtype)
    mask_a, mask_b = rng.random((2, g.ny, g.nx)) > 0.3
    buf = np.empty_like(mask_a)
    got = []
    for m in (mask_a, mask_b):
        buf[...] = m
        got.append((laplacian(f, g.dx, g.dy, buf),
                    Stencil.of(buf, g.dx, g.dy).ddx(f)))
        _assert_bitwise(got[-1][0], _ref_laplacian(f, g.dx, g.dy, m))
        _assert_bitwise(got[-1][1], _ref_diff(f, g.dx, m, False, -1))
    assert not np.array_equal(got[0][0], got[1][0])
    assert not np.array_equal(got[0][1], got[1][1])


def test_polar_filter_matches_per_row_oracle(masked):
    g, mask, view, fields = masked
    (f,) = fields(1)
    crit = 20.0                           # wide polar caps: several pass counts
    want = _ref_polar_filter(f, g.lats, view, crit)
    assert want.dtype == g.policy.float_dtype and not np.array_equal(want, f)
    plan = PolarFilter(g.lats, mask, crit)            # the model's (L, ny, nx) plan
    assert len(plan.smooth_groups) >= 2               # the oracle saw >1 pass count
    work = f.copy()
    assert plan(work) is work                         # in place, as the step uses it
    _assert_bitwise(work, want)
    _assert_bitwise(PolarFilter(g.lats, view, crit)(f.copy()), want)
    # 2-D mask (eta, ubar, vbar): open rows take the FFT branch; the level
    # axis of ``f`` now plays the member axis.
    want2d = _ref_polar_filter(f, g.lats, mask[0], crit)
    assert len(PolarFilter(g.lats, mask[0], crit).fft_rows) >= 2
    _assert_bitwise(PolarFilter(g.lats, mask[0], crit)(f.copy()), want2d)
    _assert_bitwise(PolarFilter(g.lats, mask[0], crit)(f[0].copy()), want2d[0])


def test_step_filters_with_the_whole_mask_plan():
    """The step's write-back filters with the plan of the whole 3-D mask.
    Where the bottom level is all dry, as in the paper world, that plan
    sends no row to the FFT, while one cut from the wet box (which leaves
    the dry level out) would send the box's fully open polar rows there
    instead of to the smoother: a different filter, not a cheaper one."""
    g = OceanGrid(nx=32, ny=32, nlev=16)
    model = OceanModel(g, *world_topography(g))
    crit = model.params.polar_filter_lat
    assert not model.mask3d[-1].any()
    rows = model.box.rows[-2]
    cut = PolarFilter(g.lats[rows], model.box.mask3d, crit)
    assert set(cut.fft_rows + rows.start) - set(model.filter3d.fft_rows)
    plan, seen = model.filter3d, []

    def recorded(field):
        seen.append(field.copy())
        return plan(field)
    model.filter3d = recorded
    taux = (0.1 * np.sin(2 * g.lats[:, None]) * model.mask2d).astype(
        g.policy.float_dtype)
    forcing = OceanForcing(taux, *(np.zeros_like(taux) for _ in range(3)))
    out = model.step(model.initial_state(), forcing)
    assert len(seen) == 4 and np.abs(out.u).max() > 0.0
    for before, after in zip(seen, (out.u, out.v, out.temp, out.salt)):
        _assert_bitwise(after, _ref_polar_filter(before, g.lats,
                                                 model.mask3d, crit))


def test_convective_adjustment_matches_recompute_everything_oracle(masked):
    g, mask, view, fields = masked
    temp, salt = fields(2)
    temp, salt = 10.0 + 5.0 * temp, 35.0 + salt       # plenty of unstable pairs
    want = _ref_convective_adjustment(temp, salt, g.dz, 3, view)
    assert not np.array_equal(want[0], temp)
    got = convective_adjustment(temp, salt, g.z_full, g.dz, mask=view)
    for a, b in zip(got, want):
        assert b.dtype == g.policy.float_dtype
        _assert_bitwise(a, b)


def _adjustment_case(case, fields):
    """(temp, salt, passes) of a named convective-adjustment case."""
    noise_t, noise_s, pick = fields(3)
    lev = np.arange(L).reshape((L,) + (1,) * (noise_t.ndim - 1))
    salt = 35.0 + 0.01 * noise_s
    if case == "deep":                        # warmer with depth all the way
        return ((2.0 + 4.0 * lev + noise_t).astype(noise_t.dtype), salt, 12)
    # Stable (colder with depth by 4 K a level; noise of 0.1 K never flips
    # a pair) ...
    temp = 20.0 - 4.0 * lev + 0.1 * noise_t
    if case != "stable":
        # ... but for ~1 % of the pairs, whose lower cell is made warmer.
        flip = pick[:-1] > 2.33
        temp[1:] = np.where(flip, temp[:-1] + 2.0, temp[1:])
    temp = temp.astype(noise_t.dtype)
    if case == "strided":                     # as the stacked solve returns them
        stacked = np.stack([temp, salt], axis=1)
        temp, salt = stacked[:, 0], stacked[:, 1]
        assert not temp.flags.c_contiguous
    return temp, salt, 3


@pytest.mark.parametrize("case", ["sparse", "stable", "deep", "strided"])
def test_convective_adjustment_on_unstable_cells_only(masked, case):
    """The adjustment touches only a pair's unstable cells: the same bytes
    as mixing whole levels, for a percent of unstable pairs, none, a whole
    column of them, and the strided fields the stacked mixing solve hands
    over."""
    g, mask, view, fields = masked
    temp, salt, passes = _adjustment_case(case, fields)
    before = temp.copy(), salt.copy()
    rho = density_anomaly(temp, salt, 0.0)
    unstable = (rho[:-1] > rho[1:] + 1e-12) & view[:-1] & view[1:]
    share = unstable.sum() / np.broadcast_to(view[:-1] & view[1:],
                                             unstable.shape).sum()
    assert {"stable": share == 0.0, "deep": share > 0.9}.get(
        case, 0.002 < share < 0.03)
    want = _ref_convective_adjustment(temp, salt, g.dz, passes, view)
    got = convective_adjustment(temp, salt, g.z_full, g.dz, passes=passes,
                                mask=view)
    for a, b in zip(got, want):
        assert b.dtype == g.policy.float_dtype
        _assert_bitwise(a, b)
    for x, x0 in zip((temp, salt), before):
        _assert_bitwise(x, x0)                # the inputs are not written
    if case == "stable":
        for a, x0 in zip(got, before):
            _assert_bitwise(a, x0)
    else:
        assert not np.array_equal(got[0], before[0])


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_stacked_mix_column_matches_one_call_per_field(masked, dtype):
    """One elimination for fields that share a diffusivity: the matrix does
    not depend on the right-hand side, so every field's bits are those of
    its own call — with and without surface fluxes, member axes included."""
    g, mask, view, fields = masked
    t, s, u, kappa = (f.astype(dtype) for f in fields(4))
    kappa = np.abs(kappa[1:]) * dtype(1e-3)
    dz = g.dz.astype(dtype)
    fluxes = [f[0] * dtype(1e-4) for f in (t, s)] + [None]
    want = [mix_column_implicit(f, kappa, dz, 3600.0, flux, mask=view)
            for f, flux in zip((t, s, u), fluxes)]
    got = mix_column_implicit((t, s, u), kappa, dz, 3600.0, fluxes, mask=view)
    assert isinstance(got, tuple) and len(got) == 3
    for a, b in zip(got, want):
        assert b.dtype == dtype
        _assert_bitwise(a, b)
    (alone,) = mix_column_implicit([u], kappa, dz, 3600.0)
    _assert_bitwise(alone, mix_column_implicit(u, kappa, dz, 3600.0))


def test_masked_smoother_is_periodic_per_level():
    """Cell ``[l, nx-1]`` takes its eastern openness from ``[l, 0]``, not from
    ``[l+1, 0]`` (numerics epoch 1: the mask rolls used to run over the
    flattened (L, nx) array)."""
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(2, 8))
    mask = np.ones((2, 8), dtype=bool)
    mask[1, 0] = False           # land on level 1 must not close level 0's seam
    out = masked_zonal_smooth(rows, mask, passes=2)
    for lev in range(2):
        np.testing.assert_array_equal(
            out[lev], masked_zonal_smooth(rows[lev], mask[lev], passes=2))
