"""Vertical (sigma) discretization for the FOAM atmosphere.

The paper's atmosphere uses 18 levels on a hybrid terrain-following/pressure
coordinate.  We implement the sigma limit of that coordinate (terrain
following everywhere), which is what the semi-implicit dynamical core
linearizes about anyway, plus the level-coupling matrices the core needs:

* the hydrostatic matrix ``G`` with Phi' = G T' (geopotential from
  temperature deviations);
* the linearized energy-conversion matrix ``tau`` with the implicit
  thermodynamic term  dT/dt = ... - tau D;
* the continuity row vector ``dsig`` with  d(ln ps)/dt = ... - dsig . D.

These three are the ingredients of the semi-implicit Helmholtz operator
``M = G tau + R T_ref (1 dsig^T)`` (Hoskins & Simmons 1975), inverted once
per total wavenumber at model setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.backend import DTypePolicy, policy_from_name
from repro.util.constants import KAPPA, RD


def default_sigma_levels(nlev: int) -> np.ndarray:
    """Half-level sigma values (nlev+1,), top -> bottom, clustered near surface.

    A quadratic stretching puts extra resolution in the boundary layer, the
    same qualitative layout as CCM2's 18 hybrid levels.
    """
    if nlev < 2:
        raise ValueError(f"need at least 2 levels, got {nlev}")
    x = np.linspace(0.0, 1.0, nlev + 1)
    half = 0.4 * x + 0.6 * x**2
    half[0] = 0.0
    half[-1] = 1.0
    return half


def _level_scan(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x, axis=0)`` as one whole-level add per level: the same
    adds in the same order, so the same bits, without cumsum's strided walk
    down every column.  The result keeps ``x``'s dtype."""
    out = np.empty_like(x)
    out[0] = x[0]
    for k in range(1, x.shape[0]):
        np.add(out[k - 1], x[k], out=out[k])
    return out


@dataclass
class VerticalGrid:
    """Sigma-coordinate vertical grid and semi-implicit coupling matrices."""

    sigma_half: np.ndarray
    t_ref: float = 300.0  # isothermal reference temperature for semi-implicit
    dtype: str | DTypePolicy | None = None

    # Derived fields, filled in __post_init__.
    sigma: np.ndarray = field(init=False)
    dsigma: np.ndarray = field(init=False)
    nlev: int = field(init=False)

    def __post_init__(self):
        sh = np.asarray(self.sigma_half, dtype=np.float64)
        if sh.ndim != 1 or sh.size < 3:
            raise ValueError("sigma_half must be a 1-D array of >= 3 interface values")
        if not (abs(sh[0]) < 1e-12 and abs(sh[-1] - 1.0) < 1e-12):
            raise ValueError("sigma_half must run from 0 (top) to 1 (surface)")
        if np.any(np.diff(sh) <= 0):
            raise ValueError("sigma_half must be strictly increasing")
        # Runtime arrays carry the policy precision; the float64 originals
        # stay around so the semi-implicit matrices keep solver accuracy.
        self.policy = policy_from_name(self.dtype)
        fdt = self.policy.float_dtype
        self._sh64 = sh
        self._sigma64 = 0.5 * (sh[:-1] + sh[1:])       # full levels, top->bottom
        self._dsigma64 = np.diff(sh)                    # layer thicknesses
        self.sigma_half = sh.astype(fdt, copy=False)
        self.sigma = self._sigma64.astype(fdt, copy=False)
        self.dsigma = self._dsigma64.astype(fdt, copy=False)
        self.nlev = self.sigma.size
        self._g_cache: np.ndarray | None = None
        self._tau_cache: np.ndarray | None = None

    @classmethod
    def ccm_like(cls, nlev: int = 18, t_ref: float = 300.0,
                 dtype: str | DTypePolicy | None = None) -> "VerticalGrid":
        """The FOAM/CCM2-style stretched grid (paper: 18 levels)."""
        return cls(default_sigma_levels(nlev), t_ref=t_ref, dtype=dtype)

    # ------------------------------------------------------------------
    # level-coupling matrices
    # ------------------------------------------------------------------
    def hydrostatic_matrix(self) -> np.ndarray:
        """G with Phi_l = Phi_s + sum_k G[l,k] T_k (discrete hydrostatic law).

        Integrating dPhi = -R T d(ln sigma) upward from the surface:
        interface L+1/2 is the surface; layer k contributes
        R T_k ln(sigma_half[k+1]/sigma_half[k]) across its full depth for
        levels above it, and R T_l ln(sigma_half[l+1]/sigma[l]) for the
        half-layer between level l and its lower interface.
        """
        if self._g_cache is not None:
            return self._g_cache
        L = self.nlev
        G = np.zeros((L, L))
        sh = self._sh64
        sf = self._sigma64
        for l in range(L):
            # half-layer from level l down to its lower interface
            G[l, l] = RD * np.log(sh[l + 1] / sf[l])
            # full layers strictly below level l (k = l+1 .. L-1)
            for k in range(l + 1, L):
                G[l, k] = RD * np.log(sh[k + 1] / sh[k])
        self._g_cache = G
        return G

    def energy_conversion_matrix(self) -> np.ndarray:
        """tau with the linearized  kappa T_ref (omega/p)  term: dT/dt = -tau D.

        Discrete (omega/p)_l^lin = -(1/sigma_l) [ sum_{k<l} dsig_k D_k
        + 0.5 dsig_l D_l ], so tau[l,k] = kappa T_ref dsig_k / sigma_l for
        k < l and half that for k = l.
        """
        if self._tau_cache is not None:
            return self._tau_cache
        L = self.nlev
        tau = np.zeros((L, L))
        for l in range(L):
            tau[l, : l] = self._dsigma64[: l]
            tau[l, l] = 0.5 * self._dsigma64[l]
            tau[l] *= KAPPA * self.t_ref / self._sigma64[l]
        self._tau_cache = tau
        return tau

    def semi_implicit_matrix(self) -> np.ndarray:
        """M = G tau + R T_ref (1 x dsig^T): the gravity-wave coupling operator."""
        G = self.hydrostatic_matrix()
        tau = self.energy_conversion_matrix()
        return G @ tau + RD * self.t_ref * np.outer(np.ones(self.nlev),
                                                    self._dsigma64)

    def geopotential(self, t_full: np.ndarray) -> np.ndarray:
        """Geopotential above the surface at full levels from temperature
        (level-major arrays).

        ``t_full`` has shape (L, ...); broadcasting handles grid dims.
        """
        return np.tensordot(self.hydrostatic_matrix(), t_full, axes=(1, 0))

    def omega_over_p(self, div: np.ndarray, vgradp: np.ndarray) -> np.ndarray:
        """Full (omega/p)_l = v_l . grad(ln ps) - (1/sig_l)[cumsum-weighted C].

        ``div`` and ``vgradp`` have shape (L, ...); C = div + vgradp.
        """
        c = div + vgradp
        wc = self.dsigma.reshape((-1,) + (1,) * (c.ndim - 1)) * c
        below = _level_scan(wc) - wc  # sum over k < l
        half_self = 0.5 * wc
        sig = self.sigma.reshape((-1,) + (1,) * (c.ndim - 1))
        return vgradp - (below + half_self) / sig

    def sigma_dot(self, div: np.ndarray, vgradp: np.ndarray) -> np.ndarray:
        """Vertical velocity sigma-dot at interior half levels, shape (L-1, ...).

        sigdot_{l+1/2} = sigma_{l+1/2} * sum_all(dsig C) - sum_{k<=l}(dsig C);
        identically zero at the top and bottom boundaries (not returned).
        """
        c = div + vgradp
        wc = self.dsigma.reshape((-1,) + (1,) * (c.ndim - 1)) * c
        total = np.sum(wc, axis=0)
        partial = _level_scan(wc[:-1])  # k <= l for l = 0..L-2
        sh = self.sigma_half[1:-1].reshape((-1,) + (1,) * (c.ndim - 1))
        return sh * total - partial

    def vertical_advection(self, sigdot_half: np.ndarray, x_full: np.ndarray
                           ) -> np.ndarray:
        """sigdot dX/dsigma at full levels by energy-conserving averaging.

        (1/(2 dsig_l)) [ sigdot_{l+1/2}(X_{l+1}-X_l) + sigdot_{l-1/2}(X_l-X_{l-1}) ]
        with sigdot = 0 at the domain top and bottom.
        """
        L = self.nlev
        out = np.zeros_like(x_full)
        dx = x_full[1:] - x_full[:-1]            # X_{l+1} - X_l at half levels
        flux = sigdot_half * dx                   # (L-1, ...)
        dsig = self.dsigma.reshape((-1,) + (1,) * (x_full.ndim - 1))
        out[:-1] += flux
        out[1:] += flux
        return out / (2.0 * dsig)
