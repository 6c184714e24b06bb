"""Spherical-harmonic spectral transform core (what the PCCM2 dynamics is built on).

The FOAM atmosphere is a spectral transform model: fields live both on a
longitude x Gaussian-latitude grid and as spherical-harmonic coefficients
under a rhomboidal truncation (R15 in the paper: zonal wavenumbers
m = 0..15, total wavenumbers n = m..m+15, on a 48 x 40 grid).  This module
implements, from scratch:

* Gaussian latitudes and quadrature weights;
* normalized associated Legendre functions ``Pbar`` and their derivative
  combination ``H = (1-mu^2) dPbar/dmu`` by stable three-term recurrence;
* grid <-> spectral transforms (FFT in longitude, Gauss-Legendre quadrature
  in latitude);
* the spectral differential operators a GCM dynamical core needs: zonal
  derivative, Laplacian and its inverse, and the wind <-> (vorticity,
  divergence) relations in the integrated-by-parts form of Bourke (1972)
  that avoids grid-space differentiation.

Normalization: ``(1/2) \\int_{-1}^{1} Pbar_n^m(mu)^2 dmu = 1`` and Fourier
coefficients carry a 1/nlon factor on analysis, so a spectral coefficient
(m=0, n=0) equals the global mean of the field.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.backend import DTypePolicy, get_workspace, policy_from_name
from repro.perf.profiler import profiled
from repro.util.constants import EARTH_RADIUS


@dataclass(frozen=True)
class Truncation:
    """Spectral truncation: rhomboidal (CCM/R15 style) or triangular.

    ``mmax`` is the highest zonal wavenumber; for each m the retained total
    wavenumbers are n = m .. m + nextra (rhomboidal, nextra = K) or
    n = m .. mmax (triangular, nextra decreasing).
    """

    mmax: int
    kind: str = "rhomboidal"

    def __post_init__(self):
        if self.mmax < 1:
            raise ValueError(f"mmax must be >= 1, got {self.mmax}")
        if self.kind not in ("rhomboidal", "triangular"):
            raise ValueError(f"unknown truncation kind {self.kind!r}")

    @property
    def nm(self) -> int:
        """Number of zonal wavenumbers (m = 0..mmax)."""
        return self.mmax + 1

    @property
    def nk(self) -> int:
        """Number of retained n per m (k index 0..nk-1, n = m + k)."""
        return self.mmax + 1

    def mask(self) -> np.ndarray:
        """Boolean (nm, nk) mask of retained coefficients."""
        m = np.arange(self.nm)[:, None]
        k = np.arange(self.nk)[None, :]
        if self.kind == "rhomboidal":
            return np.ones((self.nm, self.nk), dtype=bool)
        return (m + k) <= self.mmax

    def n_values(self) -> np.ndarray:
        """Total wavenumber n at each (m, k) slot."""
        m = np.arange(self.nm)[:, None]
        k = np.arange(self.nk)[None, :]
        return m + k


def gaussian_latitudes(nlat: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian quadrature nodes mu = sin(lat) (south->north) and weights."""
    if nlat < 2:
        raise ValueError(f"need at least 2 latitudes, got {nlat}")
    mu, w = np.polynomial.legendre.leggauss(nlat)
    order = np.argsort(mu)
    return mu[order], w[order]


def _epsilon(n: np.ndarray | float, m: np.ndarray | int) -> np.ndarray | float:
    """Recurrence coefficient eps_n^m = sqrt((n^2 - m^2) / (4 n^2 - 1))."""
    n = np.asarray(n, dtype=float)
    return np.sqrt(np.maximum(n * n - m * m, 0.0) / (4.0 * n * n - 1.0))


def associated_legendre(mu: np.ndarray, mmax: int, nkmax: int) -> np.ndarray:
    """Normalized associated Legendre functions on Gaussian nodes.

    Returns ``pbar`` of shape (nlat, mmax+1, nkmax) with
    ``pbar[j, m, k] = Pbar_{m+k}^m(mu_j)``.  Normalization is
    ``(1/2) int Pbar^2 dmu = 1``; computed with the stable sectoral seed +
    three-term recurrence in n, batched across every m column at once
    (bitwise identical to :func:`_associated_legendre_ref` — same
    elementwise IEEE operations, just stacked).
    """
    mu = np.asarray(mu, dtype=float)
    nlat = mu.size
    cos2 = 1.0 - mu * mu  # cos^2(lat)
    pbar = np.zeros((nlat, mmax + 1, nkmax))
    # Sectoral functions Pbar_m^m built multiplicatively to avoid overflow;
    # this seed chain is inherently sequential in m (and cheap).
    pmm = np.ones(nlat)  # Pbar_0^0 = 1 under this normalization
    for m in range(mmax + 1):
        pbar[:, m, 0] = pmm
        # Seed for the next m: Pbar_{m+1}^{m+1} = sqrt((2m+3)/(2m+2)) cos(lat) Pbar_m^m
        if m < mmax:
            pmm = np.sqrt((2.0 * m + 3.0) / (2.0 * m + 2.0)) * np.sqrt(cos2) * pmm
    # Upward recurrence in n, all (nlat, m) columns per k step:
    #   Pbar_n = (mu Pbar_{n-1} - eps_{n-1} Pbar_{n-2}) / eps_n
    m_arr = np.arange(mmax + 1, dtype=float)
    mu_col = mu[:, None]
    pnm2 = np.zeros((nlat, mmax + 1))
    pnm1 = pbar[:, :, 0]
    for k in range(1, nkmax):
        n_arr = m_arr + k
        e_n = _epsilon(n_arr, m_arr)
        e_nm1 = _epsilon(n_arr - 1.0, m_arr)
        pn = (mu_col * pnm1 - e_nm1 * pnm2) / e_n
        pbar[:, :, k] = pn
        pnm2, pnm1 = pnm1, pn
    return pbar


def _associated_legendre_ref(mu: np.ndarray, mmax: int, nkmax: int) -> np.ndarray:
    """Reference per-m loop implementation of :func:`associated_legendre`.

    Kept as the bitwise oracle for the batched kernel
    (``tests/test_spectral.py``).
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


def legendre_derivative(mu: np.ndarray, pbar_ext: np.ndarray) -> np.ndarray:
    """H_n^m = (1 - mu^2) dPbar_n^m/dmu from the extended Pbar table.

    ``pbar_ext`` must hold one extra k row (n up to m + nk), since
    ``H_n = (n+1) eps_n Pbar_{n-1} - n eps_{n+1} Pbar_{n+1}``.
    Returns shape (nlat, nm, nk) where nk = pbar_ext.shape[2] - 1.
    Fully vectorized over (m, k); bitwise identical to
    :func:`_legendre_derivative_ref` (the k = 0 down-term is a zeros
    column, so ``term_up + term_dn`` reproduces the reference's
    ``term_up + 0.0`` including its -0.0 -> +0.0 normalization).
    """
    nlat, nm, nk_ext = pbar_ext.shape
    nk = nk_ext - 1
    m = np.arange(nm, dtype=float)[:, None]
    k = np.arange(nk, dtype=float)[None, :]
    n = m + k
    up = (-n) * _epsilon(n + 1.0, m)            # (nm, nk)
    dn = (n + 1.0) * _epsilon(n, m)
    h = up[None, :, :] * pbar_ext[:, :, 1:nk + 1]
    term_dn = np.zeros_like(h)
    term_dn[:, :, 1:] = dn[None, :, 1:] * pbar_ext[:, :, 0:nk - 1]
    return h + term_dn


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
# Cached Legendre plan tables
# ---------------------------------------------------------------------------
_plan_cache: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_plan_stats = {"builds": 0, "hits": 0}


def legendre_plan(nlat: int, mmax: int, nkmax: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached read-only float64 ``(pbar_ext, hbar)`` tables for one grid.

    Every :class:`SpectralTransform` for the same (nlat, mmax, nkmax) —
    including the replicated per-rank models the concurrent coupled driver
    constructs, which inherit the caller's cache at fork — shares one
    table, so pool workers never redo the recurrences the caller already
    did.  The arrays are marked non-writeable;
    ``.astype(float64, copy=False)`` on them returns the shared array.
    """
    key = (int(nlat), int(mmax), int(nkmax))
    plan = _plan_cache.get(key)
    if plan is not None:
        _plan_stats["hits"] += 1
        return plan
    mu, _ = gaussian_latitudes(nlat)
    pbar_ext = associated_legendre(mu, mmax, nkmax)
    hbar = legendre_derivative(mu, pbar_ext)
    pbar_ext.setflags(write=False)
    hbar.setflags(write=False)
    plan = _plan_cache[key] = (pbar_ext, hbar)
    _plan_stats["builds"] += 1
    return plan


def legendre_plan_stats() -> dict:
    """Copy of the plan-cache counters: {"builds": ..., "hits": ...}."""
    return dict(_plan_stats)


def clear_legendre_plans() -> None:
    """Drop all cached plan tables and zero the counters (test hook)."""
    _plan_cache.clear()
    _plan_stats["builds"] = 0
    _plan_stats["hits"] = 0


class SpectralTransform:
    """Grid <-> spectral transform engine for one (nlat, nlon, truncation).

    Precomputes Legendre tables once; all transforms are einsum/FFT calls
    with no Python-level loops over latitude or wavenumber (the guides'
    vectorization rule — these are the model's innermost kernels).  Every
    transform accepts arbitrary leading batch axes — the dynamical core
    passes whole ``(nlev, [nens], ...)`` stacks — keeps its intermediates
    in the workspace arena, and is bitwise identical per slice to the
    naive per-field ``*_ref`` oracles in :mod:`repro.backend.kernels`.
    """

    def __init__(self, nlat: int, nlon: int, trunc: Truncation,
                 radius: float = EARTH_RADIUS,
                 dtype: str | DTypePolicy | None = None):
        if nlon < 2 * trunc.mmax + 1:
            raise ValueError(
                f"nlon={nlon} cannot resolve m up to {trunc.mmax} without aliasing; "
                f"need nlon >= {2 * trunc.mmax + 1}")
        max_n = trunc.mmax + trunc.nk - 1
        if 2 * nlat < max_n + trunc.mmax + 1:
            raise ValueError(
                f"nlat={nlat} too coarse for quadrature of truncation "
                f"(max n = {max_n}); need nlat >= {(max_n + trunc.mmax + 1 + 1) // 2}")
        self.nlat = nlat
        self.nlon = nlon
        self.trunc = trunc
        self.radius = radius
        self.policy = policy_from_name(dtype)
        fdt = self.policy.float_dtype
        cdt = self.policy.complex_dtype

        self.mu, self.weights = gaussian_latitudes(nlat)
        self.lats = np.arcsin(self.mu)                  # radians, S->N
        self.lons = 2.0 * np.pi * np.arange(nlon) / nlon

        # Legendre tables: built in float64 for recurrence stability (shared
        # across transforms via the plan cache), then cast to the policy
        # precision the transforms run in.
        pbar_ext, hbar = legendre_plan(nlat, trunc.mmax, trunc.nk + 1)
        pbar = pbar_ext[:, :, : trunc.nk]
        self._wp = ((self.weights[:, None, None] / 2.0) * pbar).astype(fdt, copy=False)
        self._wh = ((self.weights[:, None, None] / 2.0) * hbar).astype(fdt, copy=False)
        self.pbar = pbar.astype(fdt, copy=False)
        self.hbar = hbar.astype(fdt, copy=False)
        self.coslat = np.cos(self.lats).astype(fdt, copy=False)
        self._mask = trunc.mask()
        n64 = trunc.n_values().astype(np.float64)
        m64 = np.arange(trunc.nm, dtype=np.float64)[:, None] * np.ones_like(n64)
        lap64 = -n64 * (n64 + 1.0) / radius**2
        with np.errstate(divide="ignore"):
            inv64 = np.where(lap64 != 0.0, 1.0 / lap64, 0.0)
        self._n = n64.astype(fdt, copy=False)
        self._m = m64.astype(fdt, copy=False)
        self._im = (1j * m64).astype(cdt, copy=False)
        self._lap = lap64.astype(fdt, copy=False)
        self._invlap = inv64.astype(fdt, copy=False)
        self._rcos = (radius * np.cos(self.lats)).astype(fdt, copy=False)[:, None]

        # A rhomboidal truncation retains every slot: its mask multiplies
        # are identity ops and are skipped (escaping results still copy).
        self._allones = bool(self._mask.all())
        self._cos = self.coslat[:, None]
        self._oc2 = (1.0 / (self.coslat ** 2))[:, None]

    # ------------------------------------------------------------------
    @property
    def spec_shape(self) -> tuple[int, int]:
        return (self.trunc.nm, self.trunc.nk)

    @cached_property
    def lat_degrees(self) -> np.ndarray:
        return np.degrees(self.lats)

    @cached_property
    def lon_degrees(self) -> np.ndarray:
        return np.degrees(self.lons)

    @cached_property
    def cell_area_weights(self) -> np.ndarray:
        """(nlat, nlon) area weights summing to 1 (Gaussian x uniform lon)."""
        w = np.repeat(self.weights[:, None] / 2.0, self.nlon, axis=1) / self.nlon
        return w

    def global_mean(self, grid: np.ndarray) -> float:
        """Exact (quadrature) area-weighted global mean of a grid field."""
        return float(np.sum(grid * self.cell_area_weights))

    # ------------------------------------------------------------------
    # core transforms
    # ------------------------------------------------------------------
    def _irfft_stacked(self, name: str, fms) -> np.ndarray:
        """One inverse FFT over ``len(fms)`` stacked Fourier fields.

        The pad buffer is zeroed once at allocation; each call rewrites
        only the live ``nm`` columns (folding the ``* nlon``
        denormalization into the copy), so the truncation tail stays zero
        without a per-call refill.  The name carries ``nm`` because two
        transforms with the same grid but different truncations must not
        share a pad (their zero tails start at different columns).
        """
        nm = self.trunc.nm
        fm0 = fms[0]
        full = get_workspace().zeros_once(
            f"{name}.m{nm}",
            (len(fms),) + fm0.shape[:-1] + (self.nlon // 2 + 1,), fm0.dtype)
        for i, fm in enumerate(fms):
            np.multiply(fm, self.nlon, out=full[i][..., :nm])
        return np.fft.irfft(full, n=self.nlon, axis=-1)

    @profiled("spectral.analyze")
    def analyze(self, grid: np.ndarray) -> np.ndarray:
        """Grid (..., nlat, nlon) -> spectral coefficients (..., nm, nk).

        Leading (batch/ensemble) axes pass straight through: the quadrature
        einsum contracts latitude per batch member with the same summation
        order as the unbatched call, so batched results are bitwise
        identical to member-at-a-time calls.
        """
        fm = np.fft.rfft(grid, axis=-1)[..., : self.trunc.nm]
        # Normalize only the retained columns of the fresh FFT output.
        np.divide(fm, self.nlon, out=fm)
        ws = get_workspace()
        spec = np.einsum("...jm,jmk->...mk", fm, self._wp,
                         out=ws.empty("spectral.an.spec",
                                      grid.shape[:-2] + self.spec_shape,
                                      np.result_type(fm, self._wp)))
        if self._allones:
            return spec.copy()
        return spec * self._mask

    @profiled("spectral.synthesize")
    def synthesize(self, spec: np.ndarray) -> np.ndarray:
        """Spectral (..., nm, nk) -> grid (..., nlat, nlon), real."""
        ws = get_workspace()
        masked = spec
        if not self._allones:
            masked = np.multiply(spec, self._mask,
                                 out=ws.empty("spectral.syn.masked",
                                              spec.shape, spec.dtype))
        fm = np.einsum("...mk,jmk->...jm", masked, self.pbar,
                       out=ws.empty("spectral.syn.fm",
                                    spec.shape[:-2] + (self.nlat, self.trunc.nm),
                                    np.result_type(spec, self.pbar)))
        return self._irfft_stacked("spectral.syn.pad", (fm,))[0]

    @profiled("spectral.synthesize")
    def synthesize_many(self, *specs: np.ndarray) -> tuple:
        """Synthesize several same-shape spectral fields at once.

        The fields are stacked through a single einsum + inverse FFT; each
        returned grid is bitwise identical to a per-field
        :meth:`synthesize`.
        """
        n = len(specs)
        s0 = specs[0]
        ws = get_workspace()
        sp = ws.empty(f"spectral.syn{n}.stack", (n,) + s0.shape, s0.dtype)
        for i, s in enumerate(specs):
            np.copyto(sp[i], s)
        if not self._allones:
            np.multiply(sp, self._mask, out=sp)
        fm = np.einsum("...mk,jmk->...jm", sp, self.pbar,
                       out=ws.empty(f"spectral.syn{n}.fm",
                                    (n,) + s0.shape[:-2] + (self.nlat, self.trunc.nm),
                                    np.result_type(s0, self.pbar)))
        g = self._irfft_stacked(f"spectral.syn{n}.pad", (fm,))[0]
        return tuple(g[i] for i in range(n))

    # ------------------------------------------------------------------
    # differential operators (spectral space)
    # ------------------------------------------------------------------
    def laplacian(self, spec: np.ndarray) -> np.ndarray:
        """del^2 in spectral space: multiply by -n(n+1)/a^2."""
        return spec * self._lap

    def inverse_laplacian(self, spec: np.ndarray) -> np.ndarray:
        """del^-2; the (0,0) global-mean mode maps to zero."""
        return spec * self._invlap

    def ddlambda(self, spec: np.ndarray) -> np.ndarray:
        """Zonal derivative d/dlambda (multiply by i m)."""
        return spec * self._im

    # ------------------------------------------------------------------
    # wind <-> vorticity/divergence (Bourke form)
    # ------------------------------------------------------------------
    @profiled("spectral.uv_from_vortdiv")
    def uv_from_vortdiv(self, vort_spec: np.ndarray, div_spec: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Grid winds (u, v) from spectral relative vorticity and divergence.

        Solves psi = del^-2 zeta, chi = del^-2 D, then
        U = u cos(lat) = (im chi Pbar - psi H)/a summed over n, likewise V;
        both components share one pad buffer and one inverse FFT.
        """
        ws = get_workspace()
        shape = vort_spec.shape
        sdt = np.result_type(vort_spec, self._invlap)
        psi = np.multiply(vort_spec, self._invlap,
                          out=ws.empty("spectral.uv.psi", shape, sdt))
        chi = np.multiply(div_spec, self._invlap,
                          out=ws.empty("spectral.uv.chi", shape, sdt))
        t1 = np.multiply(self._im, chi,
                         out=ws.empty("spectral.uv.t1", shape, sdt))
        t2 = psi
        if not self._allones:
            np.multiply(t1, self._mask, out=t1)
            t2 = np.multiply(psi, self._mask,
                             out=ws.empty("spectral.uv.t2", shape, sdt))
        fm_shape = shape[:-2] + (self.nlat, self.trunc.nm)
        fdt = np.result_type(sdt, self.pbar)
        e1 = np.einsum("...mk,jmk->...jm", t1, self.pbar,
                       out=ws.empty("spectral.uv.e1", fm_shape, fdt))
        e2 = np.einsum("...mk,jmk->...jm", t2, self.hbar,
                       out=ws.empty("spectral.uv.e2", fm_shape, fdt))
        u_fm = np.subtract(e1, e2, out=e1)
        np.divide(u_fm, self.radius, out=u_fm)
        np.multiply(self._im, psi, out=t1)
        t2 = chi
        if not self._allones:
            np.multiply(t1, self._mask, out=t1)
            t2 = np.multiply(chi, self._mask,
                             out=ws.empty("spectral.uv.t2b", shape, sdt))
        e3 = np.einsum("...mk,jmk->...jm", t1, self.pbar,
                       out=ws.empty("spectral.uv.e3", fm_shape, fdt))
        e4 = np.einsum("...mk,jmk->...jm", t2, self.hbar,
                       out=ws.empty("spectral.uv.e4", fm_shape, fdt))
        v_fm = np.add(e3, e4, out=e3)
        np.divide(v_fm, self.radius, out=v_fm)
        g = self._irfft_stacked("spectral.uv.pad", (u_fm, v_fm))
        np.divide(g, self._cos, out=g)
        return g[0], g[1]

    @profiled("spectral.vortdiv_from_uv")
    def vortdiv_from_uv(self, u: np.ndarray, v: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Spectral (zeta, D) from grid winds by integration by parts.

        zeta_n^m = (1/a) sum_j w_j/2 [ im V_m Pbar + U_m H ] / (1-mu^2)
        D_n^m    = (1/a) sum_j w_j/2 [ im U_m Pbar - V_m H ] / (1-mu^2)
        which never differentiates on the grid (Bourke 1972).
        """
        ws = get_workspace()
        nm = self.trunc.nm
        uc = np.multiply(u, self._cos,
                         out=ws.empty("spectral.vd.uc", u.shape, u.dtype))
        vc = np.multiply(v, self._cos,
                         out=ws.empty("spectral.vd.vc", v.shape, v.dtype))
        u_fm = np.fft.rfft(uc, axis=-1)[..., :nm]
        v_fm = np.fft.rfft(vc, axis=-1)[..., :nm]
        np.divide(u_fm, self.nlon, out=u_fm)
        np.divide(v_fm, self.nlon, out=v_fm)
        np.multiply(u_fm, self._oc2, out=u_fm)
        np.multiply(v_fm, self._oc2, out=v_fm)
        sdt = np.result_type(u_fm, self._wp)
        sp_shape = u.shape[:-2] + self.spec_shape
        e1 = np.einsum("...jm,jmk->...mk", v_fm, self._wp,
                       out=ws.empty("spectral.vd.e1", sp_shape, sdt))
        e2 = np.einsum("...jm,jmk->...mk", u_fm, self._wh,
                       out=ws.empty("spectral.vd.e2", sp_shape, sdt))
        np.multiply(self._im, e1, out=e1)
        vort = np.add(e1, e2, out=e1)
        np.divide(vort, self.radius, out=vort)
        e3 = np.einsum("...jm,jmk->...mk", u_fm, self._wp,
                       out=ws.empty("spectral.vd.e3", sp_shape, sdt))
        e4 = np.einsum("...jm,jmk->...mk", v_fm, self._wh,
                       out=ws.empty("spectral.vd.e4", sp_shape, sdt))
        np.multiply(self._im, e3, out=e3)
        div = np.subtract(e3, e4, out=e3)
        np.divide(div, self.radius, out=div)
        if self._allones:
            return vort.copy(), div.copy()
        return vort * self._mask, div * self._mask

    def gradient(self, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid (df/dx, df/dy) of a spectral field on the sphere.

        df/dx = (1/(a cos)) df/dlambda,  df/dy = (cos/a) df/dmu; the
        meridional part uses the H functions so no finite differencing occurs.
        """
        ws = get_workspace()
        t1 = np.multiply(spec, self._im,
                         out=ws.empty("spectral.grad.t1", spec.shape,
                                      np.result_type(spec, self._im)))
        t2 = spec
        if not self._allones:
            np.multiply(t1, self._mask, out=t1)
            t2 = np.multiply(spec, self._mask,
                             out=ws.empty("spectral.grad.t2",
                                          spec.shape, spec.dtype))
        fm_shape = spec.shape[:-2] + (self.nlat, self.trunc.nm)
        fdt = np.result_type(t1, self.pbar)
        fx_fm = np.einsum("...mk,jmk->...jm", t1, self.pbar,
                          out=ws.empty("spectral.grad.fx", fm_shape, fdt))
        fy_fm = np.einsum("...mk,jmk->...jm", t2, self.hbar,
                          out=ws.empty("spectral.grad.fy", fm_shape, fdt))
        g = self._irfft_stacked("spectral.grad.pad", (fx_fm, fy_fm))
        np.divide(g, self._rcos, out=g)
        return g[0], g[1]

    def spectral_filter(self, spec: np.ndarray, order: int = 4,
                        coefficient: float = 1.0e16, dt: float = 1.0) -> np.ndarray:
        """Implicit del^(2*order/2) hyperdiffusion damping (CCM-style del^4).

        Returns the filtered coefficients after one step of
        d a / dt = -K (-lap)^{order/2} a  applied implicitly.
        """
        if order % 2 != 0:
            raise ValueError(f"hyperdiffusion order must be even, got {order}")
        damp = coefficient * (self._n * (self._n + 1.0) / self.radius**2) ** (order // 2)
        return spec / (1.0 + dt * damp)
