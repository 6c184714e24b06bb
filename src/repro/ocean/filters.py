"""Polar Fourier filter for the ocean grid.

Paper: *"A spatial filter similar to the sort used in atmospheric models
[CCM1] is used to maintain numerical stability in the Arctic."*  Poleward of
a critical latitude the zonal grid spacing shrinks as cos(lat) and the CFL
condition would otherwise force a tiny time step; the classic fix is to
damp zonal wavenumbers that the converged meridians cannot stably carry.

The filter multiplies each row's zonal Fourier spectrum by
a factor that is 1 up to the cutoff wavenumber ``(cos(lat)/cos(lat_crit)) *
nx/2`` and rolls off quadratically above it (:func:`polar_filter_factors`) —
wavenumbers resolvable at the critical latitude pass untouched, higher ones
are attenuated in proportion to the meridian convergence.  That is exact
only on fully open rows: a row with any closed cell (coastline, or sea floor
at a deep level) gets a mask-aware 1-2-1 smoother instead, passes matched to
the convergence, and an all-land row is left alone (:class:`PolarFilter`).
"""

from __future__ import annotations

import numpy as np


def polar_filter_factors(nx: int, coslat_row: float, coslat_crit: float) -> np.ndarray:
    """Attenuation per rfft wavenumber for one row."""
    m = np.arange(nx // 2 + 1, dtype=float)
    if coslat_row >= coslat_crit or coslat_row <= 0.0:
        return np.ones_like(m)
    # Full pass below the cutoff wavenumber set by the meridian convergence,
    # quadratic roll-off above it; the zonal mean always passes.
    m_cut = max(1.0, (coslat_row / coslat_crit) * (nx // 2))
    factors = np.minimum(1.0, (m_cut / np.maximum(m, 1e-9)) ** 2)
    factors[0] = 1.0
    return factors


def _smoothing_weights(row_mask: np.ndarray) -> tuple[np.ndarray, ...]:
    """(w_c, w_e, w_w) of one row's mask, (nx,) or (L, nx): each level's
    row is periodic in itself."""
    w_e = np.where(row_mask & np.roll(row_mask, -1, axis=-1), 0.25, 0.0)
    w_w = np.where(row_mask & np.roll(row_mask, 1, axis=-1), 0.25, 0.0)
    return 1.0 - w_e - w_w, w_e, w_w


def _smooth(out: np.ndarray, mask: np.ndarray, weights, passes: int) -> np.ndarray:
    """``passes`` 1-2-1 passes over the last axis of ``out`` where ``mask``."""
    w_c, w_e, w_w = weights
    for _ in range(passes):
        east = np.roll(out, -1, axis=-1)
        west = np.roll(out, 1, axis=-1)
        out = np.where(mask, w_c * out + w_e * east + w_w * west, out)
    return out


class PolarFilter:
    """The polar filter of one (lats, mask, lat_crit): static work done once.

    Rows poleward of ``lat_crit_deg`` that are fully open get the exact
    Fourier filter; rows containing closed cells (coastline, or sea floor
    intersecting a deep level — a periodic FFT would smear those placeholder
    values into the sea) get the mask-aware 1-2-1 smoother with a pass count
    matched to the meridian convergence, all rows of one pass count smoothed
    as a single (..., rows, nx) block.  All-land rows are left alone.

    ``mask`` is (ny, nx) for 2-D fields or the (L, ny, nx) 3-D mask for level
    fields; fields may carry member axes after the level axis.
    """

    def __init__(self, lats: np.ndarray, mask: np.ndarray,
                 lat_crit_deg: float = 60.0):
        nx = mask.shape[-1]
        coslat_crit = np.cos(np.deg2rad(lat_crit_deg))
        coslat = np.cos(lats)
        fft_rows, by_passes = [], {}
        for j in np.flatnonzero(coslat < coslat_crit):
            row_mask = mask[..., j, :]
            if row_mask.all():
                fft_rows.append(j)
            elif row_mask.any():
                # Pass count grows as the meridians converge.
                ratio = coslat_crit / max(float(coslat[j]), 1e-3)
                by_passes.setdefault(int(np.clip(np.ceil(ratio), 1, 8)),
                                     []).append(j)
        self.fft_rows = np.array(fft_rows, dtype=int)
        self.fft_factors = np.array([
            polar_filter_factors(nx, float(coslat[j]), float(coslat_crit))
            for j in fft_rows]).reshape(len(fft_rows), nx // 2 + 1)
        # (passes, rows, block mask, block weights), blocks (..., rows, nx).
        self.smooth_groups = []
        for passes, rows in sorted(by_passes.items()):
            per_row = [_smoothing_weights(mask[..., j, :]) for j in rows]
            self.smooth_groups.append(
                (passes, np.array(rows), mask[..., rows, :],
                 [np.stack(w, axis=-2) for w in zip(*per_row)]))

    def __call__(self, field: np.ndarray) -> np.ndarray:
        """``field`` (..., ny, nx) filtered in place and returned; the zonal
        mean of open rows is preserved exactly (wavenumber zero unfiltered)."""
        out = field
        if len(self.fft_rows):
            spec = np.fft.rfft(out[..., self.fft_rows, :], axis=-1)
            spec *= self.fft_factors
            out[..., self.fft_rows, :] = np.fft.irfft(
                spec, n=field.shape[-1], axis=-1)
        for passes, rows, mask, weights in self.smooth_groups:
            # Member axes of the field sit after the mask's level axis.
            lift = ((slice(None),) * (mask.ndim - 2)
                    + (None,) * (field.ndim - mask.ndim))
            out[..., rows, :] = _smooth(out[..., rows, :], mask[lift],
                                        [w[lift] for w in weights], passes)
        return out

