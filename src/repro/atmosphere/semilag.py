"""Semi-Lagrangian transport for moisture (the PCCM2 advection upgrade).

The paper notes PCCM2's modifications "involved the semi-Lagrangian
representation of advection".  FOAM transports specific humidity this way:
trace each grid point's trajectory upstream over the time step, interpolate
the field at the departure point, and assign it at the arrival point.  The
scheme is unconditionally stable (no CFL limit from the polar convergence of
meridians) and shape-preserving here because we use monotone bilinear
interpolation and clip negatives.

Departure points are found with one iteration of the implicit midpoint rule
(adequate at the long time steps and coarse resolution FOAM targets).
"""

from __future__ import annotations

import math

import numpy as np

from repro.atmosphere.spectral import SpectralTransform
from repro.backend import get_workspace


#: Elements per level block of :func:`advect_semilagrangian`: the ~20
#: float64 temporaries of one block then stay cache-sized (DESIGN.md
#: "Atmosphere step cost structure").
_BLOCK_ELEMENTS = 16384


class _LatitudeTable:
    """What :func:`_stencil` needs of the latitude nodes, derived per call:
    the node spacings and a uniform-bin lookup that replaces the search.

    Bins are narrower than half the closest node spacing, so each holds at
    most one node: ``guess[b]`` counts the nodes in lower bins, and
    ``node[b] = lats[guess[b]]`` is the only node a value of bin ``b`` can
    still exceed.  A value's bin is monotone in it, so ``guess[b] + (v >
    node[b])`` is the left-sided ``searchsorted`` index of every finite ``v``.
    """

    def __init__(self, lats: np.ndarray):
        self.lats = lats
        self.dlat = np.diff(lats)
        span = lats[-1] - lats[0]
        self.nbin = int(2.0 * span / self.dlat.min()) + 1
        self.scale = self.nbin / span
        counts = np.bincount(self._bin(lats), minlength=self.nbin)
        self.guess = np.cumsum(counts) - counts
        self.node = lats[self.guess]

    def _bin(self, v: np.ndarray) -> np.ndarray:
        b = np.clip(v, self.lats[0], self.lats[-1])
        b -= self.lats[0]
        b *= self.scale
        return np.minimum(b.astype(np.intp), self.nbin - 1)

    def search(self, v: np.ndarray) -> np.ndarray:
        b = self._bin(v)
        return np.take(self.guess, b) + (v > np.take(self.node, b))


def _stencil(shape: tuple, table: _LatitudeTable, lat_d: np.ndarray,
             lon_d: np.ndarray) -> tuple:
    """Bilinear stencil of departure points on ``shape`` = (..., nlat, nlon)
    lat-lon fields: the four flat corner indices and ``wx, 1-wx, wy, 1-wy``.

    Longitude wraps periodically; latitude is clamped to the Gaussian grid's
    span (trajectories crossing the pole are rare at climate time steps and
    are handled by the clamp).  Leading (level, member) axes of ``shape``
    must match leading axes of the departure coordinates; each slab is then
    gathered from itself.
    """
    nlat, nlon = shape[-2:]

    # Non-finite departure points (a blown-up wind field) fall back to zero;
    # the caller's state is already garbage at that point and will be caught
    # by its own finiteness checks.
    if not (np.isfinite(lat_d).all() and np.isfinite(lon_d).all()):
        lat_d, lon_d = (np.nan_to_num(a, nan=0.0, posinf=0.0, neginf=0.0)
                        for a in (lat_d, lon_d))
    # Nearly every longitude is in [0, 2 pi) already: wrap the few that are
    # not (mod is the identity on the rest, bar -0.0, which indexes alike).
    x = lon_d.copy()
    np.mod(x, 2.0 * np.pi, out=x, where=(x < 0.0) | (x >= 2.0 * np.pi))
    x /= 2.0 * np.pi / nlon
    floor_x = np.floor(x)
    i0 = floor_x.astype(int)            # x is in [0, nlon]: only nlon wraps
    i0[i0 == nlon] = 0
    i1 = i0 + 1
    i1[i1 == nlon] = 0
    wx = np.subtract(x, floor_x, out=x)

    # Latitude: Gaussian nodes are not uniform; look the interval up.
    j1 = np.clip(table.search(lat_d), 1, nlat - 1)
    j0 = j1 - 1
    wy = lat_d - np.take(table.lats, j0)
    wy /= np.take(table.dlat, j0)              # lats[j1] - lats[j0]
    np.clip(wy, 0.0, 1.0, out=wy)

    # Flattened-index gathers: np.take on a 1-D view moves the same elements
    # as the fancy index (bitwise-identical) at a fraction of the cost; the
    # slab offset lets every (level, member) gather from its own field.
    j0 *= nlon
    j0 += (np.arange(math.prod(shape[:-2])) * (nlat * nlon)).reshape(
        shape[:-2] + (1, 1))
    idx00 = j0 + i0
    idx01 = np.add(j0, i1, out=j0)
    return (idx00, idx01, idx00 + nlon, idx01 + nlon,
            wx, 1.0 - wx, wy, 1.0 - wy)


def _interpolate(field: np.ndarray, stencil: tuple) -> np.ndarray:
    """Bilinear interpolant of ``field`` through a :func:`_stencil` (float64,
    fresh).  Gathers the four corners into preallocated buffers, then
    combines them in float64 work buffers: the same pairwise operations as
    ``(1-wy)*((1-wx)*f00 + wx*f01) + wy*((1-wx)*f10 + wx*f11)`` (a float64
    ``out=`` widens float32 gathers exactly, matching the expression form's
    dtype promotion)."""
    idx00, idx01, idx10, idx11, wx, wx1, wy, wy1 = stencil
    ws = get_workspace()
    rt = np.result_type(field.dtype, np.float64)
    shape = idx00.shape
    flat = field.reshape(-1)
    f00 = np.take(flat, idx00, out=ws.empty("semilag.f00", shape, flat.dtype))
    f01 = np.take(flat, idx01, out=ws.empty("semilag.f01", shape, flat.dtype))
    f10 = np.take(flat, idx10, out=ws.empty("semilag.f10", shape, flat.dtype))
    f11 = np.take(flat, idx11, out=ws.empty("semilag.f11", shape, flat.dtype))
    t00 = np.multiply(f00, wx1, out=ws.empty("semilag.t00", shape, rt))
    t01 = np.multiply(f01, wx, out=ws.empty("semilag.t01", shape, rt))
    t00 += t01                          # (1-wx)*f00 + wx*f01
    t10 = np.multiply(f10, wx1, out=ws.empty("semilag.t10", shape, rt))
    t11 = np.multiply(f11, wx, out=ws.empty("semilag.t11", shape, rt))
    t10 += t11                          # (1-wx)*f10 + wx*f11
    np.multiply(t00, wy1, out=t00)
    np.multiply(t10, wy, out=t10)
    return t00 + t10                    # fresh array: outlives the workspace


def _bilinear_sphere(field: np.ndarray, lats: np.ndarray, lons: np.ndarray,
                     lat_d: np.ndarray, lon_d: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of a (..., nlat, nlon) field at (lat_d, lon_d)."""
    return _interpolate(field, _stencil(field.shape, _LatitudeTable(lats),
                                        lat_d, lon_d))


def departure_points(tr: SpectralTransform, u: np.ndarray, v: np.ndarray,
                     dt: float, table: _LatitudeTable | None = None
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Upstream departure (lat, lon) for every grid point, one midpoint pass.

    ``u, v`` are (..., nlat, nlon); the float64 grid geometry (three 1-D
    arrays and ``table``, when the caller has not built it already) is
    derived from the transform on each call, so nothing is cached.
    """
    ws = get_workspace()
    shape = u.shape
    a = tr.radius
    lat2, lon2 = tr.lats[:, None], tr.lons
    # a cos(lat), guarding the polar singularity
    acoslat = (np.maximum(np.cos(tr.lats), 0.05) * a)[:, None]

    # First guess straight upstream, then one midpoint refinement; u_mid and
    # v_mid are interpolated at the same points, through one stencil.
    fdt = np.result_type(u, np.float64)
    t_lat = np.multiply(v, 0.5 * dt, out=ws.empty("semilag.tlat", shape, fdt))
    t_lat /= a
    lat_mid = np.subtract(lat2, t_lat, out=t_lat)
    t_lon = np.multiply(u, 0.5 * dt, out=ws.empty("semilag.tlon", shape, fdt))
    t_lon /= acoslat
    lon_mid = np.subtract(lon2, t_lon, out=t_lon)
    mid = _stencil(shape, table or _LatitudeTable(tr.lats), lat_mid, lon_mid)
    u_mid = _interpolate(u, mid)
    v_mid = _interpolate(v, mid)
    v_mid *= dt
    v_mid /= a
    lat_d = np.subtract(lat2, v_mid, out=v_mid)
    u_mid *= dt
    u_mid /= acoslat
    lon_d = np.subtract(lon2, u_mid, out=u_mid)
    lat_d = np.clip(lat_d, tr.lats[0], tr.lats[-1], out=lat_d)
    return lat_d, lon_d


def advect_semilagrangian(tr: SpectralTransform, u: np.ndarray, v: np.ndarray,
                          q: np.ndarray, dt: float) -> np.ndarray:
    """Advect each level of ``q`` (L, ..., nlat, nlon) with winds (u, v) over dt.

    Every point is independent, so levels go through in blocks of about
    ``_BLOCK_ELEMENTS`` elements (bit-identical for any blocking).  Moisture
    is clipped at zero after interpolation (the simple positivity fixer
    low-resolution spectral-era models used).
    """
    if q.shape != u.shape:
        raise ValueError(f"q shape {q.shape} must match wind shape {u.shape}")
    # `out` never escapes: the clipped copy below is what the caller keeps.
    # Storing the float64 interpolant into it narrows to ``q.dtype``.
    out = get_workspace().empty_like("semilag.out", q)
    step = max(1, _BLOCK_ELEMENTS // q[0].size)
    table = _LatitudeTable(tr.lats)
    for l in range(0, q.shape[0], step):
        blk = slice(l, l + step)
        lat_d, lon_d = departure_points(tr, u[blk], v[blk], dt, table)
        out[blk] = _interpolate(q[blk], _stencil(q[blk].shape, table,
                                                 lat_d, lon_d))
    return np.maximum(out, 0.0)
