"""The FOAM overlap grid: exact, conservative atm <-> ocean exchange (Fig. 1).

Paper: *"The model represents the globe as being divided into two grids, one
for the atmosphere and another for the ocean.  A third decomposition of the
surface is constructed by laying one grid on top of the other ...  The
atmosphere/ocean exchanges, which depend on the properties of both, are
calculated for each piece of this overlap grid and are then averaged for
passing back to the ocean and atmosphere ...  No effort is made to
interpolate all state variables to a single grid."*

Both component grids are latitude-longitude boxes, so every overlap cell is
itself a lat-lon box: the overlap grid is simply the outer product of the
merged latitude edges and merged longitude edges.  Cell areas are exact
(proportional to  d(sin lat) * d lon), so a flux computed once per overlap
cell and area-averaged back to either grid conserves the global integral to
round-off *by construction* — the property the closed hydrological cycle
depends on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.backend import get_workspace
from repro.util.constants import EARTH_RADIUS


def cell_edges_from_centers(centers: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Cell edges at midpoints between centers, clamped to [lo, hi]."""
    c = np.asarray(centers, dtype=float)
    if np.any(np.diff(c) <= 0):
        raise ValueError("centers must be strictly increasing")
    edges = np.empty(c.size + 1)
    edges[1:-1] = 0.5 * (c[:-1] + c[1:])
    edges[0] = lo
    edges[-1] = hi
    return edges


def lon_edges_uniform(nlon: int) -> np.ndarray:
    """Edges of nlon uniform longitude cells centered on 2 pi i / n."""
    dlon = 2.0 * np.pi / nlon
    return -0.5 * dlon + dlon * np.arange(nlon + 1)


def _merge_edges(edges_a: np.ndarray, edges_b: np.ndarray,
                 tol: float = 1e-12) -> np.ndarray:
    # Sorted, then collapsed: an exact duplicate or a near one (the same
    # physical edge from both grids) is within ``tol`` of its predecessor.
    # (``np.union1d`` would do the sort through ``np.unique``, which loads
    # ``numpy.ma`` into every run's set-up.)
    merged = np.sort(np.concatenate([edges_a, edges_b]))
    keep = np.concatenate([[True], np.diff(merged) > tol])
    return merged[keep]


def _band_owner(band_centers: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """Index of the source cell containing each band center; -1 outside."""
    idx = np.searchsorted(edges, band_centers) - 1
    idx[(band_centers < edges[0]) | (band_centers > edges[-1])] = -1
    return np.clip(idx, -1, len(edges) - 2)


@dataclass
class OverlapGrid:
    """Conservative exchange operator between an atmosphere and an ocean grid.

    Parameters are the *centers* of the two grids' cells: atmosphere
    (Gaussian latitudes spanning pole to pole) and ocean (Mercator latitudes
    spanning less than pole to pole — the polar caps are atmosphere-over-land
    or over the ice model, not open ocean).
    """

    atm_lats: np.ndarray      # radians, increasing
    atm_nlon: int
    ocn_lats: np.ndarray
    ocn_nlon: int

    def __post_init__(self):
        a_lat_edges = cell_edges_from_centers(self.atm_lats, -np.pi / 2, np.pi / 2)
        o_lo = 1.5 * self.ocn_lats[0] - 0.5 * self.ocn_lats[1]
        o_hi = 1.5 * self.ocn_lats[-1] - 0.5 * self.ocn_lats[-2]
        o_lat_edges = cell_edges_from_centers(self.ocn_lats, o_lo, o_hi)
        self._o_lat_edges = o_lat_edges
        self._a_lat_edges = a_lat_edges
        lat_edges = _merge_edges(a_lat_edges, o_lat_edges)
        self.lat_edges = lat_edges
        lat_centers = 0.5 * (lat_edges[:-1] + lat_edges[1:])
        self.a_lat_of = _band_owner(lat_centers, a_lat_edges)
        self.o_lat_of = _band_owner(lat_centers, o_lat_edges)

        a_lon_edges = lon_edges_uniform(self.atm_nlon)
        o_lon_edges = lon_edges_uniform(self.ocn_nlon)
        # Merge in [lon0, lon0 + 2pi); both start at -dlon/2 of their own grid.
        lo = min(a_lon_edges[0], o_lon_edges[0])
        a_shift = np.sort(np.mod(a_lon_edges[:-1] - lo, 2 * np.pi))
        o_shift = np.sort(np.mod(o_lon_edges[:-1] - lo, 2 * np.pi))
        lon_edges = _merge_edges(np.concatenate([a_shift, [2 * np.pi]]),
                                 np.concatenate([o_shift, [2 * np.pi]]))
        self.lon_edges = lon_edges
        self._lon_lo = lo
        lon_centers = 0.5 * (lon_edges[:-1] + lon_edges[1:]) + lo
        self.a_lon_of = (np.searchsorted(a_lon_edges, np.mod(
            lon_centers - a_lon_edges[0], 2 * np.pi) + a_lon_edges[0]) - 1) % self.atm_nlon
        self.o_lon_of = (np.searchsorted(o_lon_edges, np.mod(
            lon_centers - o_lon_edges[0], 2 * np.pi) + o_lon_edges[0]) - 1) % self.ocn_nlon

        # Exact areas (m^2): R^2 * d(sin lat) * d lon.
        dsin = np.diff(np.sin(lat_edges))
        dlon = np.diff(lon_edges)
        self.areas = EARTH_RADIUS**2 * np.outer(dsin, dlon)
        self.nlat = self.areas.shape[0]
        self.nlon = self.areas.shape[1]
        self._build_weights()

    # ------------------------------------------------------------------
    def _build_weights(self) -> None:
        """Flat gather / scatter indices and per-target-cell area
        normalizations, built once: the regrid runs every coupling interval
        and must not rebuild its index arrays each time."""
        valid = self.ocean_valid_mask()
        self._ocn_valid = valid
        self._ocn_invalid = ~valid.ravel()
        o_lat = np.where(self.o_lat_of >= 0, self.o_lat_of, 0)
        # Source cell of every overlap cell, flattened: np.take along a
        # flattened trailing axis moves the same elements as a broadcast 2-D
        # fancy index, substantially faster.  The same indices, raveled, are
        # the bins of the averaging passes (bincount accumulates in C order).
        self._a_gather = (self.a_lat_of[:, None] * self.atm_nlon
                          + self.a_lon_of[None, :])
        self._o_gather = o_lat[:, None] * self.ocn_nlon + self.o_lon_of[None, :]
        self._a_flat = self._a_gather.ravel()
        self._o_flat = self._o_gather.ravel()
        self._areas_flat = self.areas.ravel()
        self._slab_cache: list = []
        self._atm_area = np.bincount(self._a_flat, weights=self._areas_flat).reshape(
            len(self.atm_lats), self.atm_nlon)
        self._ocn_area = np.bincount(
            self._o_flat, weights=np.where(valid, self.areas, 0.0).ravel(),
            minlength=len(self.ocn_lats) * self.ocn_nlon).reshape(
                len(self.ocn_lats), self.ocn_nlon)
        self._atm_area_safe = np.maximum(self._atm_area, 1e-30)
        self._ocn_area_safe = np.maximum(self._ocn_area, 1e-30)

    def _slab_bins(self, bins: np.ndarray, ncell: int, nslab: int) -> np.ndarray:
        """``bins`` offset by ``ncell`` per slab (member, stacked field),
        cached per (index array, slab count)."""
        if nslab == 1:
            return bins
        for base, n, cached in self._slab_cache:
            if base is bins and n == nslab:
                return cached
        cached = (np.arange(nslab)[:, None] * ncell + bins).ravel()
        self._slab_cache.append((bins, nslab, cached))
        return cached

    def scatter(self, weighted: np.ndarray, bins: np.ndarray,
                area_safe: np.ndarray) -> np.ndarray:
        """Sum area-weighted values (..., n) into the target cells ``bins``
        names and divide by the target areas: the averaging pass.

        Any leading axes (members, stacked fields) carry through; each slab
        accumulates its cells in the same C order as an unbatched scatter,
        so results are bitwise identical per slab.
        """
        lead = weighted.shape[:-1]
        nslab = math.prod(lead)
        out = np.bincount(self._slab_bins(bins, area_safe.size, nslab),
                          weights=weighted.ravel(),
                          minlength=nslab * area_safe.size)
        return out.reshape(lead + area_safe.shape) / area_safe

    def ocean_valid_mask(self) -> np.ndarray:
        """(nlat, nlon) overlap cells that lie inside the ocean grid's span."""
        return (self.o_lat_of >= 0)[:, None] & np.ones(self.nlon, dtype=bool)[None, :]

    # ------------------------------------------------------------------
    # gather: component grid -> overlap grid (no interpolation: piecewise const)
    # ------------------------------------------------------------------
    def from_atm(self, field: np.ndarray) -> np.ndarray:
        """(..., atm_nlat, atm_nlon) -> (..., nlat, nlon) by indexing.

        Piecewise-constant gather (Fig 1(b) region ii); leading ensemble
        axes pass straight through.
        """
        flat = field.reshape(field.shape[:-2] + (-1,))
        return np.take(flat, self._a_gather, axis=-1)

    def from_ocn(self, field: np.ndarray, fill: float = 0.0) -> np.ndarray:
        """(..., ocn_nlat, ocn_nlon) -> overlap; cells outside the ocean span get fill."""
        flat = field.reshape(field.shape[:-2] + (-1,))
        out = np.take(flat, self._o_gather, axis=-1)
        return np.where(self._ocn_valid, out, fill)

    # ------------------------------------------------------------------
    # scatter: overlap grid -> component grid (area-weighted average)
    # ------------------------------------------------------------------
    def _weighted(self, overlap_field: np.ndarray) -> np.ndarray:
        """field x cell area, (..., nlat * nlon), in a float64 work buffer."""
        flat = overlap_field.reshape(overlap_field.shape[:-2] + (-1,))
        return np.multiply(flat, self._areas_flat, out=get_workspace().empty(
            "overlap.weighted", flat.shape, np.float64))

    def to_atm(self, overlap_field: np.ndarray) -> np.ndarray:
        """Area-average the overlap field onto the atmosphere grid."""
        return self.scatter(self._weighted(overlap_field), self._a_flat,
                            self._atm_area_safe)

    def to_ocn(self, overlap_field: np.ndarray) -> np.ndarray:
        """Area-average the overlap field onto the ocean grid (cells outside
        its span contribute nothing, whatever they hold)."""
        weighted = self._weighted(overlap_field)
        weighted[..., self._ocn_invalid] = 0.0
        return self.scatter(weighted, self._o_flat, self._ocn_area_safe)

    # ------------------------------------------------------------------
    def integrate(self, overlap_field: np.ndarray) -> float:
        """Exact global integral of an overlap field (flux * area)."""
        return float(np.sum(overlap_field * self.areas))

    def integrate_atm(self, field: np.ndarray) -> float:
        """Global integral of an atmosphere-grid field using overlap areas."""
        return float(np.sum(field * self._atm_area))

    def integrate_ocn(self, field: np.ndarray) -> float:
        """Integral of an ocean-grid field over the ocean grid's span."""
        return float(np.sum(field * self._ocn_area))
