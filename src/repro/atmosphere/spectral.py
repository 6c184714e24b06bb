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
    """Rhomboidal spectral truncation (CCM/R15 style).

    ``mmax`` is the highest zonal wavenumber; for each m the retained total
    wavenumbers are n = m .. m + mmax, so every (m, k) slot is retained.
    """

    mmax: int

    def __post_init__(self):
        if self.mmax < 1:
            raise ValueError(f"mmax must be >= 1, got {self.mmax}")

    @property
    def nm(self) -> int:
        """Number of zonal wavenumbers (m = 0..mmax)."""
        return self.mmax + 1

    @property
    def nk(self) -> int:
        """Number of retained n per m (k index 0..nk-1, n = m + k)."""
        return self.mmax + 1

    def n_values(self) -> np.ndarray:
        """Total wavenumber n at each (m, k) slot."""
        return np.arange(self.nm)[:, None] + np.arange(self.nk)[None, :]


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
    (bitwise identical to the per-m loop in ``tests/oracles.py`` — same
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


def legendre_derivative(mu: np.ndarray, pbar_ext: np.ndarray) -> np.ndarray:
    """H_n^m = (1 - mu^2) dPbar_n^m/dmu from the extended Pbar table.

    ``pbar_ext`` must hold one extra k row (n up to m + nk), since
    ``H_n = (n+1) eps_n Pbar_{n-1} - n eps_{n+1} Pbar_{n+1}``.
    Returns shape (nlat, nm, nk) where nk = pbar_ext.shape[2] - 1.
    Fully vectorized over (m, k); bitwise identical to the double loop in
    ``tests/oracles.py`` (the k = 0 down-term is a zeros column, so
    ``term_up + term_dn`` reproduces the reference's ``term_up + 0.0``
    including its -0.0 -> +0.0 normalization).
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
    did.  The arrays are marked non-writeable; each transform lays its own
    m-major copy out from them.
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
    _plan_stats.update(builds=0, hits=0)


class SpectralTransform:
    """Grid <-> spectral transform engine for one (nlat, nlon, truncation).

    A transform is an FFT over a stack of fields composed with a Legendre
    sum against a precomputed table.  The two sums,
    :meth:`_spec_to_fourier` and :meth:`_fourier_to_spec`, are the only
    places latitude or total wavenumber is summed; every operator is a few
    lines on top of them.  Each is an ``np.matmul`` against an m-major
    table stored once in the layout the GEMM reads — ``_syn``,
    ``(m, j, [Pbar | H] k)``, and ``_ana``, ``(m, [w Pbar ; w H] k, j)``;
    ``pbar`` / ``hbar`` / ``_wp`` / ``_wh`` are
    ``(j, m, k)`` views of their halves — under one shape rule: **every
    leading axis of an operand (level, member, stacked field) and the zonal
    wavenumber are matmul broadcast axes; one GEMM multiplies one
    wavenumber's table slice by one field's coefficients as two real
    columns (re, im: a free view of the complex array).**  Its
    ``(M, N, K)`` is ``(nlat, 2, nk)`` or ``(nk, 2, nlat)`` — ``K`` or
    ``M`` doubled where an operator sums a field against Pbar and H at
    once — fixed by the grid, the truncation and the operator, never by
    the levels, members or ranks present.  Serial, member-batched and
    rank-pool runs therefore issue the same GEMMs on the same bytes and
    agree bit for bit by construction; the per-field oracles of
    ``tests/oracles.py`` sum in another order and agree to rounding.  A
    Fourier field stays ``(..., nlat, nlon // 2 + 1)``, as the FFT reads
    and writes it: the GEMMs address its wavenumber columns in place.
    What a public method returns is fresh.
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

        self.mu, self.weights = gaussian_latitudes(nlat)
        self.lats = np.arcsin(self.mu)                  # radians, S->N
        self.lons = 2.0 * np.pi * np.arange(nlon) / nlon

        # Legendre tables: built in float64 for recurrence stability (shared
        # across transforms via the plan cache), then cast to the policy
        # precision the transforms run in.
        pbar_ext, hbar = legendre_plan(nlat, trunc.mmax, trunc.nk + 1)
        nk = trunc.nk
        # (j, m, 2 nk): Pbar in the first nk, H in the last.
        both = np.concatenate([pbar_ext[:, :, :nk], hbar], axis=2)
        half_w = self.weights[:, None, None] / 2.0
        self._syn = np.ascontiguousarray(both.transpose(1, 0, 2), dtype=fdt)
        self._ana = np.ascontiguousarray((half_w * both).transpose(1, 2, 0),
                                         dtype=fdt)
        self._syn_p, self._syn_h = self._syn[:, :, :nk], self._syn[:, :, nk:]
        self._ana_p = self._ana[:, :nk]
        self.pbar, self.hbar = (
            t.transpose(1, 0, 2) for t in (self._syn_p, self._syn_h))
        self._wp, self._wh = (
            t.transpose(2, 0, 1) for t in (self._ana_p, self._ana[:, nk:]))
        self.coslat = np.cos(self.lats).astype(fdt, copy=False)
        n64 = trunc.n_values().astype(np.float64)
        m64 = np.arange(trunc.nm, dtype=np.float64)[:, None] * np.ones_like(n64)
        lap64 = -n64 * (n64 + 1.0) / radius**2
        with np.errstate(divide="ignore"):
            inv64 = np.where(lap64 != 0.0, 1.0 / lap64, 0.0)
        self._im = (1j * m64).astype(self.policy.complex_dtype, copy=False)
        self._lap = lap64.astype(fdt, copy=False)
        self._invlap = inv64.astype(fdt, copy=False)
        rcos64 = (radius * np.cos(self.lats))[:, None]
        self._rcos = rcos64.astype(fdt, copy=False)     # the oracles divide by it
        self._inv_rcos = (1.0 / rcos64).astype(fdt, copy=False)

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
        return np.repeat(self.weights[:, None] / 2.0, self.nlon, axis=1) / self.nlon

    def global_mean(self, grid: np.ndarray):
        """Exact (quadrature) area-weighted global mean of ``(..., nlat, nlon)``:
        a float for one grid, one value per leading index (``(nens,)``) otherwise."""
        mean = np.sum(grid * self.cell_area_weights, axis=(-2, -1))
        return float(mean) if mean.ndim == 0 else mean

    # ------------------------------------------------------------------
    # the transform, once: spec -> Fourier -> grid and grid -> Fourier -> spec
    # ------------------------------------------------------------------
    @staticmethod
    def _re_im(field: np.ndarray) -> np.ndarray:
        """Complex ``(..., r, c)`` as the real ``(..., r, c, 2)`` a GEMM reads
        or writes: a view wherever the last axis is contiguous."""
        if not np.iscomplexobj(field) or field.strides[-1] != field.itemsize:
            field = np.ascontiguousarray(
                field, dtype=np.result_type(field, np.complex64))
        return field.view(np.finfo(field.dtype).dtype).reshape(field.shape + (2,))

    def _spec_to_fourier(self, specs, tables) -> np.ndarray:
        """Legendre-sum same-shape ``(..., nm, K)`` fields, each against the
        ``(nm, nlat, K)`` slice of ``_syn`` its coefficients pair with:
        ``sum_k table[m, j, k] spec[m, k]``, written into the wavenumber
        columns of the ``(len(specs), ..., nlat, nlon // 2 + 1)`` pad the
        inverse FFT reads.

        The pad is zeroed once at allocation and only its live ``nm``
        columns are ever rewritten, so the truncation tail stays zero
        without a per-call refill.  Its name carries ``nm`` because two
        transforms with the same grid but different truncations must not
        share one (their zero tails start at different columns).
        """
        nm = self.trunc.nm
        pad = get_workspace().zeros_once(
            f"spectral.pad.m{nm}",
            (len(specs),) + specs[0].shape[:-2] + (self.nlat, self.nlon // 2 + 1),
            np.result_type(specs[0], tables[0], np.complex64))
        live = self._re_im(pad)[..., :nm, :].swapaxes(-2, -3)
        for out, spec, table in zip(live, specs, tables):
            np.matmul(table, self._re_im(spec), out=out)
        return pad

    def _fourier_to_grid(self, pad: np.ndarray) -> np.ndarray:
        """Inverse FFT of a pad of Fourier fields.  Both FFTs run unscaled;
        :meth:`_fourier_to_spec` applies the pair's ``1 / nlon``."""
        return np.fft.irfft(pad, n=self.nlon, axis=-1, norm="forward")

    def _grid_to_fourier(self, grid: np.ndarray) -> np.ndarray:
        """Forward FFT, unscaled: the retained ``(..., nlat, nm)`` columns,
        a view of the fresh transform."""
        return np.fft.rfft(grid, axis=-1)[..., : self.trunc.nm]

    def _fourier_to_spec(self, fm: np.ndarray, table: np.ndarray) -> np.ndarray:
        """Gauss-Legendre quadrature of unscaled ``(..., nlat, nm)`` Fourier
        fields against an ``(nm, K, nlat)`` slice of ``_ana`` ->
        ``(..., nm, K)``, ``sum_j table[m, k, j] fm[j, m] / nlon`` (a
        workspace buffer: copy what escapes).  The normalization lands
        here, on the smaller side of the sum."""
        a = self._re_im(fm).swapaxes(-2, -3)
        sp = np.matmul(table, a, out=get_workspace().empty(
            "spectral.spec", a.shape[:-2] + (table.shape[-2], 2),
            np.result_type(a, table)))
        np.multiply(sp, 1.0 / self.nlon, out=sp)
        return sp.view(np.result_type(sp, np.complex64))[..., 0]

    @profiled("spectral.analyze")
    def analyze(self, grid: np.ndarray) -> np.ndarray:
        """Grid (..., nlat, nlon) -> spectral coefficients (..., nm, nk)."""
        return self._fourier_to_spec(self._grid_to_fourier(grid),
                                     self._ana_p).copy()

    @profiled("spectral.synthesize")
    def synthesize(self, spec: np.ndarray) -> np.ndarray:
        """Spectral (..., nm, nk) -> grid (..., nlat, nlon), real: the one-field
        case of :meth:`synthesize_many`."""
        return self.synthesize_many(spec)[0]

    @profiled("spectral.synthesize_many")
    def synthesize_many(self, *specs: np.ndarray) -> tuple:
        """Synthesize several same-shape spectral fields through a single
        inverse FFT; one grid per field, in order."""
        return tuple(self._fourier_to_grid(
            self._spec_to_fourier(specs, (self._syn_p,) * len(specs))))

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

        Solves psi = del^-2 zeta, chi = del^-2 D, then (summed over n)
        U = u cos(lat) = (im chi Pbar - psi H)/a, V = (im psi Pbar + chi H)/a:
        each wind is one sum over the (Pbar | H) table of its paired
        (Pbar | H) coefficients, and both share one FFT.
        """
        psi = self.inverse_laplacian(vort_spec)
        chi = self.inverse_laplacian(div_spec)
        nk = self.trunc.nk
        ops = get_workspace().empty(
            "spectral.uv_ops", (2,) + psi.shape[:-1] + (2 * nk,), psi.dtype)
        np.multiply(chi, self._im, out=ops[0, ..., :nk])
        np.negative(psi, out=ops[0, ..., nk:])
        np.multiply(psi, self._im, out=ops[1, ..., :nk])
        ops[1, ..., nk:] = chi
        g = self._fourier_to_grid(
            self._spec_to_fourier(ops, (self._syn, self._syn)))
        np.multiply(g, self._inv_rcos, out=g)
        return g[0], g[1]

    @profiled("spectral.vortdiv_from_uv")
    def vortdiv_from_uv(self, u: np.ndarray, v: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Spectral (zeta, D) from grid winds by integration by parts.

        zeta_n^m = (1/a) sum_j w_j/2 [ im V_m Pbar + U_m H ] / (1-mu^2)
        D_n^m    = (1/a) sum_j w_j/2 [ im U_m Pbar - V_m H ] / (1-mu^2)
        which never differentiates on the grid (Bourke 1972); with
        U = u cos(lat), what is transformed is (u, v) / (a cos(lat)).
        """
        uv = get_workspace().empty("spectral.uv", (2,) + u.shape, u.dtype)
        np.multiply(u, self._inv_rcos, out=uv[0])
        np.multiply(v, self._inv_rcos, out=uv[1])
        both = self._fourier_to_spec(                   # . (w Pbar ; w H)
            self._grid_to_fourier(uv), self._ana)
        nk = self.trunc.nk
        sp, sh = both[..., :nk], both[..., nk:]
        np.multiply(self._im, sp, out=sp)
        return np.add(sp[1], sh[0]), np.subtract(sp[0], sh[1])

    @profiled("spectral.gradient")
    def gradient(self, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Grid (df/dx, df/dy) of a spectral field on the sphere.

        df/dx = (1/(a cos)) df/dlambda,  df/dy = (cos/a) df/dmu; the
        meridional part uses the H functions so no finite differencing occurs.
        """
        pad = self._spec_to_fourier((self.ddlambda(spec), spec),
                                    (self._syn_p, self._syn_h))
        g = self._fourier_to_grid(pad)
        np.multiply(g, self._inv_rcos, out=g)
        return g[0], g[1]

    def damping_denominator(self, coefficient: float, dt: float) -> np.ndarray:
        """``1 + dt K lap^2`` per slot: what one implicit step of CCM-style
        del^4 damping, ``d a / dt = -K lap^2 a``, divides by (float64, then
        cast)."""
        n = self.trunc.n_values().astype(np.float64)
        damp = coefficient * (n * (n + 1.0) / self.radius**2) ** 2
        return (1.0 + dt * damp).astype(self.policy.float_dtype, copy=False)
