"""Spectral-kernel oracles and the workspace-resident Robert filter.

The spectral transforms the model runs live in
:class:`~repro.atmosphere.spectral.SpectralTransform`: each is a handful
of large NumPy calls over the whole (level, member) batch, with
workspace-resident intermediates, pre-zeroed inverse-FFT pads, stacked
multi-field synthesis and the all-``True`` rhomboidal mask multiplies
skipped.  Every one of those transformations is bitwise-neutral: the same
IEEE operations in the same order, just batched and buffered.

The ``*_ref`` functions below keep the seed-era formulation — naive
per-field calls with fresh allocations and separate einsums — as the
oracle the regression tests pin the transforms against (the same role
:func:`~repro.atmosphere.spectral._associated_legendre_ref` plays for the
batched Legendre recurrence).  What the batched transforms cost in a run
is ``atmosphere.spectral_s`` in ``benchmarks/e2e``.
"""

from __future__ import annotations

import numpy as np

from repro.backend.workspace import get_workspace

__all__ = [
    "robert_filter",
    "fourier_ref", "inverse_fourier_ref", "analyze_ref", "synthesize_ref",
    "uv_from_vortdiv_ref", "vortdiv_from_uv_ref", "gradient_ref",
]


# ---------------------------------------------------------------------------
# Workspace-resident elementwise chains (dynamics)
# ---------------------------------------------------------------------------
def robert_filter(prev: np.ndarray, curr: np.ndarray, new: np.ndarray,
                  filt, *, name: str) -> np.ndarray:
    """``curr + filt * (prev - 2*curr + new)`` as one workspace chain.

    Only the final sum is freshly allocated (it escapes into the filtered
    state); the inner combination lives in a named scratch buffer.
    Bitwise identical to the expression form: the ops are the same IEEE
    tree, with the two commuted multiplications (``curr * 2`` for
    ``2 * curr``, ``tmp * filt`` for ``filt * tmp``) exact by IEEE-754
    commutativity.
    """
    ws = get_workspace()
    tmp = np.multiply(curr, 2.0, out=ws.empty(name, curr.shape, curr.dtype))
    np.subtract(prev, tmp, out=tmp)
    np.add(tmp, new, out=tmp)
    np.multiply(tmp, filt, out=tmp)
    return np.add(curr, tmp)


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
    return np.einsum("jm,jmk->mk", fourier_ref(tr, grid), tr._wp) * tr._mask


def synthesize_ref(tr, spec: np.ndarray) -> np.ndarray:
    """Unfused synthesis of one (nm, nk) spectral field."""
    return inverse_fourier_ref(
        tr, np.einsum("mk,jmk->jm", spec * tr._mask, tr.pbar))


def uv_from_vortdiv_ref(tr, vort_spec: np.ndarray, div_spec: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Unfused winds from one (nm, nk) vorticity/divergence pair."""
    psi = vort_spec * tr._invlap
    chi = div_spec * tr._invlap
    t1 = (tr._im * chi) * tr._mask
    t2 = psi * tr._mask
    u_fm = (np.einsum("mk,jmk->jm", t1, tr.pbar)
            - np.einsum("mk,jmk->jm", t2, tr.hbar)) / tr.radius
    t1 = (tr._im * psi) * tr._mask
    t2 = chi * tr._mask
    v_fm = (np.einsum("mk,jmk->jm", t1, tr.pbar)
            + np.einsum("mk,jmk->jm", t2, tr.hbar)) / tr.radius
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
    return vort * tr._mask, div * tr._mask


def gradient_ref(tr, spec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unfused sphere gradient of one (nm, nk) spectral field."""
    t1 = (spec * tr._im) * tr._mask
    t2 = spec * tr._mask
    fx = inverse_fourier_ref(tr, np.einsum("mk,jmk->jm", t1, tr.pbar)) / tr._rcos
    fy = inverse_fourier_ref(tr, np.einsum("mk,jmk->jm", t2, tr.hbar)) / tr._rcos
    return fx, fy
