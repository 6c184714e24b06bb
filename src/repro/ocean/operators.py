"""Horizontal finite-difference operators on the unstaggered (A-grid) mesh.

The FOAM ocean uses a single unstaggered grid: all variables live at cell
centers.  The price of that simplicity is the A-grid's checkerboard
computational mode, which the paper controls with del^4 dissipation; the
reward is that one centered-difference stencil serves every equation, and
the polar Fourier filter can act on whole rows.

All operators are land-aware: ``mask`` is True on ocean; differences across
a land edge are dropped (no-flux / free-slip walls).  Longitude is periodic;
latitude rows end at walls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.tree import tree_map


def _zonal(ufunc, f: np.ndarray, a: int, b: int,
           out: np.ndarray | None = None, where=True) -> np.ndarray:
    """``ufunc(f[..., i + a], f[..., i + b])`` at every cell, longitude periodic.

    ``f`` is C-contiguous and the offsets are -1, 0 or 1.  One pass over the
    flattened array — consecutive rows run together, so a cell's flat
    neighbour is its zonal neighbour everywhere but at the row ends —
    instead of one short inner loop per row; the two wrap columns are then
    written on their own (DESIGN.md "Ocean step cost structure").
    With ``out`` (C-contiguous) and a ``where`` mask, only the cells of the
    mask are written; a mask that broadcasts against ``f`` flattens with
    each ``(ny, nx)`` plane of it.
    """
    if out is None:
        out = np.empty_like(f)
    nx = f.shape[-1]
    lead = () if where is True or where.shape == f.shape else f.shape[:-2]
    flat = f.reshape(lead + (-1,))
    lo, hi = -min(a, b, 0), flat.shape[-1] - max(a, b, 0)
    cells = where
    if where is not True:
        cells = where.reshape(where.shape[:-2] + (-1,) if lead else -1)[..., lo:hi]
    ufunc(flat[..., lo + a:hi + a], flat[..., lo + b:hi + b],
          out=out.reshape(lead + (-1,))[..., lo:hi], where=cells)
    for col in (0, nx - 1):
        ufunc(f[..., (col + a) % nx], f[..., (col + b) % nx], out=out[..., col],
              where=True if where is True else where[..., col])
    return out


def _into(ufunc, d: np.ndarray, other: np.ndarray) -> np.ndarray:
    """``ufunc(d, other)``, written into ``d`` when that keeps its dtype."""
    return ufunc(d, other, out=d if np.result_type(d, other) == d.dtype else None)


def row_plane(row: np.ndarray, nx: int) -> np.ndarray:
    """A per-row factor, ``(rows,)`` or ``(rows, 1)``, as a contiguous
    ``(rows, nx)`` plane in its dtype: a division or product streams through
    it faster than through the factor broadcast along each row."""
    return np.ascontiguousarray(np.broadcast_to(np.reshape(row, (-1, 1)),
                                                (len(row), nx)))


@dataclass(frozen=True)
class Stencil:
    """The static neighbour masks and metric planes of one land mask, and
    the operators on them.

    A mask never changes during a run, so whoever owns one (``OceanModel``
    the 3-D mask, ``BarotropicSolver`` the 2-D one) builds its stencil once
    with :meth:`of` and every operator call reuses the masks and the metric
    planes (:func:`row_plane`, viewed with stride 0 over the level axis).
    Every mask is stored as the operators read it — the cells a masked
    write zeroes or overwrites — so no call combines or inverts a mask.
    The dry cells are among them wherever that makes a result's dry cells
    +0.0 without a pass of their own.
    ``stencil[k]`` is the stencil of level ``k`` of a 3-D mask (views); a
    2-D stencil broadcasts against any leading member axes of the field.
    """

    east_only: np.ndarray   # one-sided d/dx: east neighbour ocean, west land
    west_only: np.ndarray
    north_only: np.ndarray  # (..., ny-1, nx) of rows 0..ny-2
    south_only: np.ndarray  # (..., ny-1, nx) of rows 1..ny-1
    x_off: np.ndarray       # d/dx is zero: ~(mask & east & west),
    x_off1: np.ndarray      # ~(mask & (east | west)) with one-sided edges
    y_off: np.ndarray
    y_off1: np.ndarray
    shut_e: np.ndarray      # no flux through the east edge: ~(mask & east),
    shut_n: np.ndarray      # (..., ny-1, nx) the north edges between rows
    dx: np.ndarray          # metric planes: zonal and meridional spacing,
    dy: np.ndarray
    dx2: np.ndarray         # their squares,
    dy2: np.ndarray
    area: np.ndarray        # dx * dy,
    dx_edge: np.ndarray     # (..., ny-1, nx) dx at the north edges

    @classmethod
    def of(cls, mask: np.ndarray, dx_row: np.ndarray,
           dy_row: np.ndarray) -> "Stencil":
        east = np.roll(mask, -1, axis=-1)
        west = np.roll(mask, 1, axis=-1)
        north = np.zeros_like(mask)
        south = np.zeros_like(mask)
        north[..., :-1, :] = mask[..., 1:, :]
        south[..., 1:, :] = mask[..., :-1, :]
        nx = mask.shape[-1]
        rows = (dx_row, dy_row, dx_row ** 2, dy_row ** 2, dx_row * dy_row,
                0.5 * (dx_row[:-1] + dx_row[1:]))
        planes = [np.broadcast_to(row_plane(row, nx), mask.shape[:-2] + (len(row), nx))
                  for row in rows]
        return cls(east & ~west, west & ~east,
                   (north & ~south)[..., :-1, :], (south & ~north)[..., 1:, :],
                   ~(mask & east & west), ~(mask & (east | west)),
                   ~(mask & north & south), ~(mask & (north | south)),
                   ~(mask & east), ~(mask[..., :-1, :] & mask[..., 1:, :]),
                   *planes)

    def __getitem__(self, index) -> "Stencil":
        return tree_map(lambda m: m[index], self)

    def ddx(self, field: np.ndarray, centered_only: bool = False) -> np.ndarray:
        """Centered d/dx with periodic longitude; one-sided at coastlines.

        With ``centered_only`` the one-sided coastal differences are dropped
        (gradient set to zero there) — used for the baroclinic pressure
        gradient, where a one-sided difference across a shelf break converts
        the full vertical pressure structure into a spurious permanent
        horizontal force (the classic z-coordinate topography PGF error).
        """
        f = np.ascontiguousarray(field)
        d = _zonal(np.subtract, f, 1, -1)
        d *= 0.5
        off = self.x_off
        if not centered_only:
            _zonal(np.subtract, f, 1, 0, out=d, where=self.east_only)
            _zonal(np.subtract, f, 0, -1, out=d, where=self.west_only)
            off = self.x_off1
        d = _into(np.divide, d, self.dx)
        np.copyto(d, 0.0, where=off)
        return d

    def ddy(self, field: np.ndarray, centered_only: bool = False) -> np.ndarray:
        """Centered d/dy with wall boundaries at the first/last rows and land."""
        d = np.empty(field.shape, field.dtype)
        d[..., 0, :] = d[..., -1, :] = 0.0
        np.subtract(field[..., 2:, :], field[..., :-2, :], out=d[..., 1:-1, :])
        d *= 0.5
        off = self.y_off
        if not centered_only:
            # north - f of one row is f - south of the row above it.
            step = (field[..., 1:, :], field[..., :-1, :])
            np.subtract(*step, out=d[..., :-1, :], where=self.north_only)
            np.subtract(*step, out=d[..., 1:, :], where=self.south_only)
            off = self.y_off1
        d = _into(np.divide, d, self.dy)
        np.copyto(d, 0.0, where=off)
        return d

    def laplacian(self, field: np.ndarray) -> np.ndarray:
        """Masked 5-point Laplacian; land neighbours contribute no flux.

        In flux form: the difference across each edge, zeroed where the
        edge is shut, then each cell's outflow minus its inflow.  A cell's
        west term ``west - f`` is then ``-(f - west)``, which differs only
        in the sign of a zero, and a zero's sign leaves no trace: the
        zonal sum is normalised by ``+ 0.0``, and a +0.0 plus a zero of
        either sign is +0.0.  A dry cell's edges are all shut: its result
        is +0.0 without a mask of its own.
        """
        f = np.ascontiguousarray(field)
        # x direction (periodic).
        east = _zonal(np.subtract, f, 1, 0)
        np.copyto(east, 0.0, where=self.shut_e)
        out = _zonal(np.subtract, east, 0, -1)
        # 0.0 + fx/dx^2: the sum starts from +0.0, which a -0.0 term needs.
        np.add(_into(np.divide, out, self.dx2), 0.0, out=out)
        # y direction (walls: no edge beyond the first and last rows).
        north = np.subtract(f[..., 1:, :], f[..., :-1, :])
        np.copyto(north, 0.0, where=self.shut_n)
        fy = east
        fy[..., 0, :] = north[..., 0, :]
        np.subtract(north[..., 1:, :], north[..., :-1, :], out=fy[..., 1:-1, :])
        np.negative(north[..., -1, :], out=fy[..., -1, :])
        out += _into(np.divide, fy, self.dy2)
        return out

    def biharmonic(self, field: np.ndarray) -> np.ndarray:
        """del^4 as Laplacian applied twice (the paper's A-grid mode control)."""
        return self.laplacian(self.laplacian(field))

    def advect_centered(self, field: np.ndarray, u: np.ndarray,
                        v: np.ndarray, dt: float) -> np.ndarray:
        """The increment -(u df/dx + v df/dy) dt over ``dt``, centered
        differences (MOM-style interior scheme).  One product by ``-dt``:
        a negation commutes exactly with a rounded product."""
        adv = _into(np.multiply, self.ddx(field), u)
        adv = _into(np.add, adv, _into(np.multiply, self.ddy(field), v))
        return np.multiply(adv, -dt, out=adv)

    def flux_divergence(self, h_u: np.ndarray, h_v: np.ndarray) -> np.ndarray:
        """div(H u) in conservative (flux) form for the free-surface equation.

        Fluxes are evaluated at cell edges by averaging the two adjacent
        centers, and edges touching land carry zero flux, so the global
        integral of the divergence is exactly zero — the property the free
        surface (and the paper's closed hydrological cycle) needs.
        """
        # x fluxes at east edges, integrated over the edge length dy (constant
        # along a row, so it factors out of the telescoping sum).
        fe = _zonal(np.add, np.ascontiguousarray(h_u), 0, 1)
        fe *= 0.5
        np.copyto(fe, 0.0, where=self.shut_e)
        fe = _into(np.multiply, fe, self.dy)
        div = _into(np.divide, _zonal(np.subtract, fe, 0, -1), self.area)
        # y fluxes at north edges, integrated over the edge length dx_edge
        # (average of the adjacent rows' dx) so the column sum telescopes exactly.
        fn = h_v[..., :-1, :] + h_v[..., 1:, :]
        fn *= 0.5
        np.copyto(fn, 0.0, where=self.shut_n)
        fn = _into(np.multiply, fn, self.dx_edge)
        fy = np.empty(h_v.shape, h_v.dtype)
        fy[..., 0, :] = fn[..., 0, :]
        np.subtract(fn[..., 1:, :], fn[..., :-1, :], out=fy[..., 1:-1, :])
        np.negative(fn[..., -1, :], out=fy[..., -1, :])
        # Both edges of a dry cell in each direction are shut: its
        # divergence is +0.0 - +0.0 plus +-0.0, +0.0 without a mask.
        div += _into(np.divide, fy, self.area)
        return div


# One-off callers (the rank-decomposed stencils of repro.parallel, tests)
# pay for a throw-away stencil; anything that steps owns one.  A one-axis
# derivative is handed one metric row, which fills both axes' planes: it
# reads only its own.
def ddx(field: np.ndarray, dx_row: np.ndarray, mask: np.ndarray,
        centered_only: bool = False) -> np.ndarray:
    """:meth:`Stencil.ddx` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask, dx_row, dx_row).ddx(field, centered_only)


def ddy(field: np.ndarray, dy_row: np.ndarray, mask: np.ndarray,
        centered_only: bool = False) -> np.ndarray:
    """:meth:`Stencil.ddy` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask, dy_row, dy_row).ddy(field, centered_only)


def laplacian(field: np.ndarray, dx_row: np.ndarray, dy_row: np.ndarray,
              mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.laplacian` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask, dx_row, dy_row).laplacian(field)


def biharmonic(field: np.ndarray, dx_row: np.ndarray, dy_row: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.biharmonic` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask, dx_row, dy_row).biharmonic(field)


def flux_divergence(h_u: np.ndarray, h_v: np.ndarray, dx_row: np.ndarray,
                    dy_row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.flux_divergence` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask, dx_row, dy_row).flux_divergence(h_u, h_v)
