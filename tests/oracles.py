"""Test-only oracles: the seed-era formulations the kernels are pinned against.

The spectral transforms the model runs
(:class:`~repro.atmosphere.spectral.SpectralTransform`) are a few large
NumPy calls over the whole (level, member) batch — stacked operands,
workspace-resident intermediates, pre-zeroed inverse-FFT pads, the
all-``True`` rhomboidal mask multiplies skipped.  Every one of those
transformations is bitwise-neutral: the same IEEE operations in the same
order, just batched and buffered.  The ``*_ref`` functions below keep the
naive formulation — per-field calls, fresh allocations, one einsum per
term, Python loops over (m, k) for the Legendre recurrences — as the
oracle ``test_kernels.py`` / ``test_dynamics.py`` / ``test_spectral.py``
compare against.  The semi-Lagrangian step
(:mod:`repro.atmosphere.semilag`) is pinned the same way: the per-level
loop that rebuilt its geometry and searched the latitude table three
times per level (``np.mod`` on every longitude, ``np.searchsorted`` on
every latitude) is the oracle ``test_semilag.py`` holds the planned,
level-blocked, table-lookup step to, bit for bit.  So is the coupler's
exchange (:meth:`repro.coupler.FluxCoupler.turbulent_fluxes`): the
whole-grid formulation — both bulk formulas on every overlap cell, merged
by ``np.where``, the Louis stability function three times per ocean cell,
every ocean-bound field through a whole-grid ``to_ocn`` — is the oracle
``test_flux_coupler.py`` holds the planned exchange to.  So is the
ocean's barotropic subcycle: the allocate-per-operation loop is the oracle
``test_ocean_model.py`` holds the in-place subcycle to.  So are the
coupler's static tables: the per-cell Python loops that built the river
network (distance to the ocean, D8 directions, routing destinations) and
the ``np.union1d`` merge of overlap edges are the oracles
``test_land_hydrology.py`` / ``test_overlap.py`` hold the array-op builds
to.  So is Hack shallow convection: the loop that copied T and q and
recomputed every level after each active pair is the oracle
``test_convection.py`` holds the two-level update to.  Nothing in
``src/`` imports this module.
"""

from __future__ import annotations

import numpy as np

from repro.atmosphere.physics.convection import (
    ConvectionParams,
    moist_static_energy_profile,
)
from repro.atmosphere.physics.surface_flux import (
    CHARNOCK,
    bulk_richardson,
    neutral_coefficient,
    stability_function,
)
from repro.atmosphere.spectral import _epsilon
from repro.coupler.hydrology import wetness_factor
from repro.coupler.river import NEIGHBORS
from repro.coupler.seaice import SEAICE_ROUGHNESS, SeaIceModel
from repro.util.constants import CP, GRAVITY, LATENT_HEAT_VAP, RD
from repro.util.thermo import saturation_mixing_ratio


def bitwise(a, b) -> bool:
    """Same dtype, shape and bytes (whatever the memory layout)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return a.dtype == b.dtype and a.shape == b.shape \
        and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# Unfused oracles: the seed-era per-field formulation, fresh allocations
# ---------------------------------------------------------------------------
def fourier_ref(tr, grid: np.ndarray) -> np.ndarray:
    """Unfused forward FFT: full-width normalize, then truncate."""
    return (np.fft.rfft(grid, axis=-1) / tr.nlon)[..., : tr.trunc.nm]


def inverse_fourier_ref(tr, fm: np.ndarray) -> np.ndarray:
    """Unfused inverse FFT: fresh zero pad per call."""
    full = np.zeros(fm.shape[:-1] + (tr.nlon // 2 + 1,), fm.dtype)
    full[..., : tr.trunc.nm] = fm
    full *= tr.nlon
    return np.fft.irfft(full, n=tr.nlon, axis=-1)


def analyze_ref(tr, grid: np.ndarray) -> np.ndarray:
    """Unfused analysis of one (nlat, nlon) grid field."""
    return np.einsum("jm,jmk->mk", fourier_ref(tr, grid), tr._wp)


def synthesize_ref(tr, spec: np.ndarray) -> np.ndarray:
    """Unfused synthesis of one (nm, nk) spectral field."""
    return inverse_fourier_ref(
        tr, np.einsum("mk,jmk->jm", spec, tr.pbar))


def uv_from_vortdiv_ref(tr, vort_spec: np.ndarray, div_spec: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Unfused winds from one (nm, nk) vorticity/divergence pair."""
    psi = vort_spec * tr._invlap
    chi = div_spec * tr._invlap
    u_fm = (np.einsum("mk,jmk->jm", tr._im * chi, tr.pbar)
            - np.einsum("mk,jmk->jm", psi, tr.hbar)) / tr.radius
    v_fm = (np.einsum("mk,jmk->jm", tr._im * psi, tr.pbar)
            + np.einsum("mk,jmk->jm", chi, tr.hbar)) / tr.radius
    cos = tr.coslat[:, None]
    return inverse_fourier_ref(tr, u_fm) / cos, inverse_fourier_ref(tr, v_fm) / cos


def vortdiv_from_uv_ref(tr, u: np.ndarray, v: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Unfused (zeta, D) from one (nlat, nlon) wind pair."""
    cos = tr.coslat[:, None]
    over_c2 = 1.0 / (cos[:, 0] ** 2)
    u_fm = fourier_ref(tr, u * cos) * over_c2[:, None]
    v_fm = fourier_ref(tr, v * cos) * over_c2[:, None]
    vort = (tr._im * np.einsum("jm,jmk->mk", v_fm, tr._wp)
            + np.einsum("jm,jmk->mk", u_fm, tr._wh)) / tr.radius
    div = (tr._im * np.einsum("jm,jmk->mk", u_fm, tr._wp)
           - np.einsum("jm,jmk->mk", v_fm, tr._wh)) / tr.radius
    return vort, div


def gradient_ref(tr, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unfused sphere gradient of one (nm, nk) spectral field."""
    fx = inverse_fourier_ref(
        tr, np.einsum("mk,jmk->jm", spec * tr._im, tr.pbar)) / tr._rcos
    fy = inverse_fourier_ref(
        tr, np.einsum("mk,jmk->jm", spec, tr.hbar)) / tr._rcos
    return fx, fy


# ---------------------------------------------------------------------------
# Legendre recurrences: per-m / per-(m, k) loops
# ---------------------------------------------------------------------------
def _associated_legendre_ref(mu: np.ndarray, mmax: int, nkmax: int) -> np.ndarray:
    """Reference per-m loop implementation of :func:`associated_legendre`.

    The bitwise oracle for the batched kernel (``tests/test_spectral.py``).
    """
    mu = np.asarray(mu, dtype=float)
    nlat = mu.size
    cos2 = 1.0 - mu * mu
    pbar = np.zeros((nlat, mmax + 1, nkmax))
    pmm = np.ones(nlat)
    for m in range(mmax + 1):
        pbar[:, m, 0] = pmm
        pnm2 = np.zeros(nlat)
        pnm1 = pmm
        for k in range(1, nkmax):
            n = m + k
            e_n = _epsilon(n, m)
            e_nm1 = _epsilon(n - 1, m)
            pn = (mu * pnm1 - e_nm1 * pnm2) / e_n
            pbar[:, m, k] = pn
            pnm2, pnm1 = pnm1, pn
        if m < mmax:
            pmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * np.sqrt(cos2) * pmm
    return pbar


def _legendre_derivative_ref(mu: np.ndarray, pbar_ext: np.ndarray) -> np.ndarray:
    """Reference double-loop implementation of :func:`legendre_derivative`."""
    nlat, nm, nk_ext = pbar_ext.shape
    nk = nk_ext - 1
    h = np.zeros((nlat, nm, nk))
    for m in range(nm):
        for k in range(nk):
            n = m + k
            term_up = -n * _epsilon(n + 1, m) * pbar_ext[:, m, k + 1]
            term_dn = (n + 1) * _epsilon(n, m) * pbar_ext[:, m, k - 1] if k >= 1 else 0.0
            h[:, m, k] = term_up + term_dn
    return h


# ---------------------------------------------------------------------------
# Semi-Lagrangian transport: the per-level loop, three stencils per level
# ---------------------------------------------------------------------------
def bilinear_sphere_ref(field: np.ndarray, lats: np.ndarray,
                        lat_d: np.ndarray, lon_d: np.ndarray) -> np.ndarray:
    """Reference bilinear interpolation on one (nlat, nlon) or (E, nlat,
    nlon) field: stencil and interpolant in one expression-form body."""
    nlat, nlon = field.shape[-2:]
    dlon = 2.0 * np.pi / nlon
    lon_d = np.nan_to_num(lon_d, nan=0.0, posinf=0.0, neginf=0.0)
    lat_d = np.nan_to_num(lat_d, nan=0.0, posinf=0.0, neginf=0.0)
    lon_d = np.mod(lon_d, 2.0 * np.pi)
    x = lon_d / dlon
    i0 = np.floor(x).astype(int) % nlon
    i1 = (i0 + 1) % nlon
    wx = x - np.floor(x)
    j1 = np.searchsorted(lats, lat_d)
    j1 = np.clip(j1, 1, nlat - 1)
    j0 = j1 - 1
    denom = lats[j1] - lats[j0]
    wy = np.clip((lat_d - lats[j0]) / denom, 0.0, 1.0)
    if field.ndim > 2:
        e = np.arange(field.shape[0]).reshape(-1, 1, 1)
        f00, f01 = field[e, j0, i0], field[e, j0, i1]
        f10, f11 = field[e, j1, i0], field[e, j1, i1]
    else:
        f00, f01, f10, f11 = (field[j0, i0], field[j0, i1],
                              field[j1, i0], field[j1, i1])
    wx1 = (1.0 - wx).astype(np.float64)
    wy1 = (1.0 - wy).astype(np.float64)
    return wy1 * (wx1 * f00 + wx * f01) + wy * (wx1 * f10 + wx * f11)


def departure_points_ref(tr, u: np.ndarray, v: np.ndarray, dt: float
                         ) -> tuple[np.ndarray, np.ndarray]:
    """Reference departure points of one level: geometry rebuilt at full
    size, ``u_mid`` and ``v_mid`` each through their own stencil."""
    lat2 = np.empty(u.shape)
    lat2[:] = tr.lats[:, None]
    lon2 = np.empty(u.shape)
    lon2[:] = tr.lons[None, :]
    a = tr.radius
    acoslat = np.maximum(np.cos(lat2), 0.05) * a
    fdt = np.result_type(u, np.float64)
    t_lat = np.multiply(v, 0.5 * dt, out=np.empty(u.shape, fdt))
    t_lat /= a
    lat_mid = lat2 - t_lat
    t_lon = np.multiply(u, 0.5 * dt, out=np.empty(u.shape, fdt))
    t_lon /= acoslat
    lon_mid = lon2 - t_lon
    u_mid = bilinear_sphere_ref(u, tr.lats, lat_mid, lon_mid)
    v_mid = bilinear_sphere_ref(v, tr.lats, lat_mid, lon_mid)
    v_mid *= dt
    v_mid /= a
    lat_d = lat2 - v_mid
    u_mid *= dt
    u_mid /= acoslat
    lon_d = lon2 - u_mid
    return np.clip(lat_d, tr.lats[0], tr.lats[-1]), lon_d


def advect_semilagrangian_ref(tr, u: np.ndarray, v: np.ndarray,
                              q: np.ndarray, dt: float) -> np.ndarray:
    """Reference advection: one level at a time, narrowed to ``q.dtype`` by
    the store, clipped at zero."""
    out = np.empty_like(q)
    for l in range(q.shape[0]):
        lat_d, lon_d = departure_points_ref(tr, u[l], v[l], dt)
        out[l] = bilinear_sphere_ref(q[l], tr.lats, lat_d, lon_d)
    return np.maximum(out, 0.0)


# ---------------------------------------------------------------------------
# Surface exchange: both formulas on every overlap cell, merged by np.where
# ---------------------------------------------------------------------------
def bulk_fluxes_ref(t_air, q_air, u_air, v_air, p_sfc, t_sfc, z0, wetness,
                    params) -> dict:
    """Reference bulk transfer fluxes: wind, Richardson number and stability
    factor all computed here."""
    wind = np.sqrt(u_air**2 + v_air**2)
    wind = np.maximum(wind, params.min_wind)
    rib = bulk_richardson(t_air, t_sfc, wind, params.z_ref)
    cn = neutral_coefficient(z0, params.z_ref)
    f = np.maximum(stability_function(rib, params), 0.02)
    cd = cn * f
    ch = cd
    rho = p_sfc / (RD * 0.5 * (t_air + t_sfc))
    shf = rho * CP * ch * wind * (t_sfc - t_air)
    qsat_sfc = saturation_mixing_ratio(t_sfc, p_sfc)
    evap = rho * ch * wind * wetness * np.maximum(qsat_sfc - q_air, -q_air)
    lhf = LATENT_HEAT_VAP * evap
    taux = rho * cd * wind * u_air
    tauy = rho * cd * wind * v_air
    ustar = np.sqrt(cd) * wind
    return {"shf": shf, "lhf": lhf, "evap": evap, "taux": taux, "tauy": tauy,
            "ustar": ustar, "cd": cd, "ch": ch, "rib": rib}


def ocean_roughness_ref(wind, rib, p) -> np.ndarray:
    """Reference Charnock iteration: the stability factor re-evaluated in
    each of the two passes."""
    w = np.maximum(wind, p.min_wind)
    z0 = np.full_like(w, 1.0e-4)
    for _ in range(2):
        cn = neutral_coefficient(z0, p.z_ref)
        f = np.maximum(stability_function(rib, p), 0.05)
        ustar = np.sqrt(cn * f) * w
        z0 = np.maximum(CHARNOCK * ustar**2 / GRAVITY, p.z0_ocean_min)
    return z0


def ocean_fluxes_ref(t_air, q_air, u_air, v_air, p_sfc, sst, params) -> dict:
    """Reference air-sea fluxes: three stability-function evaluations on one
    Richardson number (two in the roughness loop, one in the bulk body)."""
    wind = np.sqrt(u_air**2 + v_air**2)
    rib = bulk_richardson(t_air, sst, np.maximum(wind, params.min_wind),
                          params.z_ref)
    z0 = ocean_roughness_ref(wind, rib, params)
    return bulk_fluxes_ref(t_air, q_air, u_air, v_air, p_sfc, sst, z0,
                           np.ones_like(sst), params)


def turbulent_fluxes_ref(coupler, state, *, t_air, q_air, u_air, v_air, ps,
                         sst_celsius) -> dict:
    """Reference exchange: every input gathered onto the whole overlap grid
    one field at a time, both formulas on all of it, nine fields averaged
    back one ``to_atm`` / ``to_ocn`` call each."""
    ov = coupler.overlap
    water = coupler._water_overlap
    ice_ov = ov.from_ocn(state.ice.mask.astype(float), fill=0.0) > 0.5
    open_water = water & ~ice_ov

    ta = ov.from_atm(t_air)
    qa = ov.from_atm(q_air)
    ua = ov.from_atm(u_air)
    va = ov.from_atm(v_air)
    pa = ov.from_atm(ps)

    sst_k = np.nan_to_num(sst_celsius, nan=-1.92) + 273.15
    sst_ov = ov.from_ocn(sst_k, fill=271.23)
    ice_skin_ov = ov.from_ocn(state.ice.surface_temp, fill=271.23)
    land_skin_ov = ov.from_atm(coupler.land_model.skin_temperature(state.land))
    wet_land_ov = ov.from_atm(wetness_factor(
        state.hydrology, coupler.land_model.soil_type == 4))
    z0_land_ov = ov.from_atm(coupler.land_model.roughness)

    f_ocean = ocean_fluxes_ref(ta, qa, ua, va, pa, sst_ov, coupler.flux_params)
    t_solid = np.where(ice_ov, ice_skin_ov, land_skin_ov)
    z0_solid = np.where(ice_ov, SEAICE_ROUGHNESS, z0_land_ov)
    wet_solid = np.where(ice_ov, 1.0, wet_land_ov)
    f_solid = bulk_fluxes_ref(ta, qa, ua, va, pa, t_solid, z0_solid,
                              wet_solid, coupler.flux_params)

    fluxes_ov = {k: np.where(open_water, f_ocean[k], f_solid[k])
                 for k in f_ocean}
    atm_fluxes = {k: ov.to_atm(v) for k, v in fluxes_ov.items()}

    taux_ov, tauy_ov = SeaIceModel.stress_to_ocean(
        fluxes_ov["taux"], fluxes_ov["tauy"], ice_ov)
    zero = np.zeros_like(taux_ov)
    return {
        "atm": atm_fluxes,
        "overlap": fluxes_ov,
        "ocn_taux": ov.to_ocn(np.where(water, taux_ov, zero)),
        "ocn_tauy": ov.to_ocn(np.where(water, tauy_ov, zero)),
        "ocn_turb_heat_loss": ov.to_ocn(np.where(
            water, fluxes_ov["shf"] + fluxes_ov["lhf"], zero)),
        "ocn_evap": ov.to_ocn(np.where(water, fluxes_ov["evap"], zero)),
    }


def water_to_ocn_ref(coupler, atm_field: np.ndarray) -> np.ndarray:
    """Reference water-only regrid of an atmosphere-grid flux: the whole
    overlap grid through ``to_ocn``, dry cells as explicit zeros."""
    ov = coupler.overlap
    return ov.to_ocn(np.where(coupler._water_overlap,
                              ov.from_atm(atm_field), 0.0))


# ---------------------------------------------------------------------------
# Barotropic subcycle: a fresh array per operation, np.where masking
# ---------------------------------------------------------------------------
def barotropic_step_ref(solver, eta, ubar, vbar, gx, gy, dt_outer):
    """:meth:`repro.ocean.BarotropicSolver.step` as the seed wrote it: every
    substep allocates its temporaries, the rotation factors are ``(ny, 1)``
    columns and the masking is ``np.where``."""
    n = solver.n_substeps(dt_outer)
    dt = dt_outer / n
    dt_slow = dt / solver.params.gamma
    drag = solver.params.bottom_drag
    m, st, f = solver.mask, solver.stencil, solver.grid.f
    cosf = np.cos(f * dt_slow)
    sinf = np.sin(f * dt_slow)
    for _ in range(n):
        div = st.flux_divergence(solver.depth * ubar, solver.depth * vbar)
        eta = np.where(m, eta - dt * div, 0.0)
        detax = st.ddx(eta)
        detay = st.ddy(eta)
        u_rot = ubar * cosf + vbar * sinf
        v_rot = -ubar * sinf + vbar * cosf
        ubar = u_rot + dt_slow * (-GRAVITY * detax + gx) - dt * drag * u_rot
        vbar = v_rot + dt_slow * (-GRAVITY * detay + gy) - dt * drag * v_rot
        ubar = np.where(m, ubar, 0.0)
        vbar = np.where(m, vbar, 0.0)
    return eta, ubar, vbar, n


# ---------------------------------------------------------------------------
# Coupler static tables: per-cell Python loops, np.union1d
# ---------------------------------------------------------------------------
def distance_to_ocean_ref(land_mask: np.ndarray) -> np.ndarray:
    """:func:`repro.coupler.river.distance_to_ocean` as a queue-free BFS
    over a Python list of frontier cells."""
    ny, nx = land_mask.shape
    dist = np.where(land_mask, np.iinfo(np.int32).max, 0).astype(np.int64)
    frontier = [(j, i) for j in range(ny) for i in range(nx)
                if not land_mask[j, i]]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for j, i in frontier:
            for dj, di in NEIGHBORS:
                jj, ii = j + dj, (i + di) % nx
                if 0 <= jj < ny and land_mask[jj, ii] and dist[jj, ii] > d:
                    dist[jj, ii] = d
                    nxt.append((jj, ii))
        frontier = nxt
    return dist


def derive_flow_directions_ref(land_mask: np.ndarray,
                               rng_seed: int = 0) -> np.ndarray:
    """:func:`repro.coupler.river.derive_flow_directions` cell by cell, the
    ties broken by ``rng.choice`` on the list of tied neighbors."""
    ny, nx = land_mask.shape
    dist = distance_to_ocean_ref(land_mask)
    rng = np.random.default_rng(rng_seed)
    direction = np.full((ny, nx), -1, dtype=int)
    for j in range(ny):
        for i in range(nx):
            if not land_mask[j, i]:
                continue
            best = []
            best_d = dist[j, i]
            for n, (dj, di) in enumerate(NEIGHBORS):
                jj, ii = j + dj, (i + di) % nx
                if not 0 <= jj < ny:
                    continue
                if dist[jj, ii] < best_d:
                    best_d = dist[jj, ii]
                    best = [n]
                elif dist[jj, ii] == best_d and best and dist[jj, ii] < dist[j, i]:
                    best.append(n)
            if best:
                direction[j, i] = best[0] if len(best) == 1 else int(rng.choice(best))
    return direction


def routing_ref(direction: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``RiverModel``'s (dest_j, dest_i) tables, one cell at a time."""
    ny, nx = direction.shape
    dest_j = np.full((ny, nx), -1, dtype=int)
    dest_i = np.full((ny, nx), -1, dtype=int)
    for j in range(ny):
        for i in range(nx):
            n = direction[j, i]
            if n < 0:
                continue
            dj, di = NEIGHBORS[n]
            jj, ii = j + dj, (i + di) % nx
            if 0 <= jj < ny:
                dest_j[j, i] = jj
                dest_i[j, i] = ii
    return dest_j, dest_i


def merge_edges_ref(edges_a: np.ndarray, edges_b: np.ndarray,
                    tol: float = 1e-12) -> np.ndarray:
    """The overlap grid's edge merge through ``np.union1d``."""
    merged = np.union1d(edges_a, edges_b)
    keep = np.concatenate([[True], np.diff(merged) > tol])
    return merged[keep]


# ---------------------------------------------------------------------------
# Hack shallow convection: whole-column copies and recomputes per pair
# ---------------------------------------------------------------------------
def hack_shallow_ref(temp, q, pressure, dp, geopotential, dt,
                     params: ConvectionParams = ConvectionParams()):
    """:func:`repro.atmosphere.physics.convection.hack_shallow` as the seed
    wrote it: every active pair copies T and q and recomputes h, qsat and
    hsat on every level."""
    L = temp.shape[0]
    h = moist_static_energy_profile(temp, q, geopotential)
    qsat = saturation_mixing_ratio(temp, pressure)
    hsat = CP * temp + geopotential + LATENT_HEAT_VAP * qsat

    dtdt = np.zeros_like(temp)
    dqdt = np.zeros_like(q)
    precip = np.zeros_like(temp[0])
    for l in range(L - 1, 0, -1):
        below_h = h[l]
        above_hsat = hsat[l - 1]
        instab = below_h - above_hsat - params.hack_mse_threshold
        active = instab > 0.0
        if not np.any(active):
            continue
        rate = np.where(active, instab / params.hack_adjustment_time, 0.0)
        de = rate * dt
        de = np.minimum(de, np.maximum(instab, 0.0) * 0.5)
        latent_avail = LATENT_HEAT_VAP * np.maximum(q[l], 0.0)
        lat_frac = np.clip(latent_avail / np.maximum(below_h, 1.0), 0.0, 0.5)
        d_sensible = de * (1.0 - lat_frac)
        d_latent = de * lat_frac
        mass_l = dp[l] / GRAVITY
        mass_u = dp[l - 1] / GRAVITY
        dtl = -d_sensible / CP
        dtu = d_sensible / CP * (mass_l / mass_u)
        dql = -d_latent / LATENT_HEAT_VAP
        dqu_all = d_latent / LATENT_HEAT_VAP * (mass_l / mass_u)
        q_up_new = q[l - 1] + dqu_all
        qsat_u = qsat[l - 1]
        excess = np.maximum(q_up_new - qsat_u, 0.0)
        dqu = dqu_all - excess
        dtu = dtu + LATENT_HEAT_VAP * excess / CP
        precip += excess * mass_u / np.maximum(dt, 1e-12)
        dtdt[l] += dtl / dt
        dtdt[l - 1] += dtu / dt
        dqdt[l] += dql / dt
        dqdt[l - 1] += dqu / dt
        temp = temp.copy()
        q = q.copy()
        temp[l] += dtl
        temp[l - 1] += dtu
        q[l] += dql
        q[l - 1] += dqu
        h = moist_static_energy_profile(temp, q, geopotential)
        qsat = saturation_mixing_ratio(temp, pressure)
        hsat = CP * temp + geopotential + LATENT_HEAT_VAP * qsat
    return dtdt, dqdt, np.maximum(precip, 0.0)
