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

from repro.backend import get_workspace
from repro.util.tree import tree_map


def _shift_east(name: str, arr: np.ndarray) -> np.ndarray:
    """np.roll(arr, -1, axis=-1) into a reusable workspace buffer."""
    out = get_workspace().empty_like(name, arr)
    out[..., :-1] = arr[..., 1:]
    out[..., -1] = arr[..., 0]
    return out


def _shift_west(name: str, arr: np.ndarray) -> np.ndarray:
    """np.roll(arr, 1, axis=-1) into a reusable workspace buffer."""
    out = get_workspace().empty_like(name, arr)
    out[..., 1:] = arr[..., :-1]
    out[..., 0] = arr[..., -1]
    return out


@dataclass(frozen=True)
class Stencil:
    """The static neighbour masks of one land mask, and the operators on them.

    A mask never changes during a run, so whoever owns one (``OceanModel``
    the 3-D mask, ``BarotropicSolver`` the 2-D one) builds its stencil once
    with :meth:`of` and every operator call reuses the shifted masks.
    ``stencil[k]`` is the stencil of level ``k`` of a 3-D mask (views); a
    2-D stencil broadcasts against any leading member axes of the field.
    """

    mask: np.ndarray
    m_east: np.ndarray      # the eastern / western / ... neighbour is ocean
    m_west: np.ndarray
    m_north: np.ndarray
    m_south: np.ndarray
    x_both: np.ndarray      # m_east & m_west
    y_both: np.ndarray
    open_e: np.ndarray      # east edge open: mask & m_east
    open_n: np.ndarray      # (..., ny-1, nx) north edges between two rows

    @classmethod
    def of(cls, mask: np.ndarray) -> "Stencil":
        m_east = np.roll(mask, -1, axis=-1)
        m_west = np.roll(mask, 1, axis=-1)
        m_north = np.zeros_like(mask)
        m_south = np.zeros_like(mask)
        m_north[..., :-1, :] = mask[..., 1:, :]
        m_south[..., 1:, :] = mask[..., :-1, :]
        return cls(mask, m_east, m_west, m_north, m_south, m_east & m_west,
                   m_north & m_south, mask & m_east,
                   mask[..., :-1, :] & mask[..., 1:, :])

    def __getitem__(self, index) -> "Stencil":
        return tree_map(lambda m: m[index], self)

    def ddx(self, field: np.ndarray, dx_row: np.ndarray,
            centered_only: bool = False) -> np.ndarray:
        """Centered d/dx with periodic longitude; one-sided at coastlines.

        With ``centered_only`` the one-sided coastal differences are dropped
        (gradient set to zero there) — used for the baroclinic pressure
        gradient, where a one-sided difference across a shelf break converts
        the full vertical pressure structure into a spurious permanent
        horizontal force (the classic z-coordinate topography PGF error).
        """
        east = _shift_east("op.ddx.east", field)
        west = _shift_west("op.ddx.west", field)
        if centered_only:
            d = np.where(self.x_both, (east - west) * 0.5, 0.0)
        else:
            d = np.where(self.x_both, (east - west) * 0.5,
                         np.where(self.m_east, east - field,
                                  np.where(self.m_west, field - west, 0.0)))
        return np.where(self.mask, d / dx_row[..., :, None], 0.0)

    def ddy(self, field: np.ndarray, dy_row: np.ndarray,
            centered_only: bool = False) -> np.ndarray:
        """Centered d/dy with wall boundaries at the first/last rows and land."""
        ws = get_workspace()
        north = ws.empty_like("op.ddy.north", field)
        south = ws.empty_like("op.ddy.south", field)
        north[..., :-1, :] = field[..., 1:, :]
        north[..., -1, :] = field[..., -1, :]
        south[..., 1:, :] = field[..., :-1, :]
        south[..., 0, :] = field[..., 0, :]
        if centered_only:
            d = np.where(self.y_both, (north - south) * 0.5, 0.0)
        else:
            d = np.where(self.y_both, (north - south) * 0.5,
                         np.where(self.m_north, north - field,
                                  np.where(self.m_south, field - south, 0.0)))
        return np.where(self.mask, d / dy_row[..., :, None], 0.0)

    def laplacian(self, field: np.ndarray, dx_row: np.ndarray,
                  dy_row: np.ndarray) -> np.ndarray:
        """Masked 5-point Laplacian; land neighbours contribute no flux."""
        ws = get_workspace()
        out = ws.zeros_like("op.lap.out", field)
        # x direction (periodic)
        east = _shift_east("op.lap.east", field)
        west = _shift_west("op.lap.west", field)
        fx = (np.where(self.m_east, east - field, 0.0)
              + np.where(self.m_west, west - field, 0.0))
        out += fx / (dx_row[..., :, None] ** 2)
        # y direction (walls)
        north = ws.empty_like("op.lap.north", field)
        south = ws.empty_like("op.lap.south", field)
        north[..., :-1, :] = field[..., 1:, :]
        north[..., -1, :] = 0.0
        south[..., 1:, :] = field[..., :-1, :]
        south[..., 0, :] = 0.0
        fy = (np.where(self.m_north, north - field, 0.0)
              + np.where(self.m_south, south - field, 0.0))
        out += fy / (dy_row[..., :, None] ** 2)
        return np.where(self.mask, out, 0.0)

    def biharmonic(self, field: np.ndarray, dx_row: np.ndarray,
                   dy_row: np.ndarray) -> np.ndarray:
        """del^4 as Laplacian applied twice (the paper's A-grid mode control)."""
        return self.laplacian(self.laplacian(field, dx_row, dy_row),
                              dx_row, dy_row)

    def advect_centered(self, field: np.ndarray, u: np.ndarray, v: np.ndarray,
                        dx_row: np.ndarray, dy_row: np.ndarray) -> np.ndarray:
        """-(u df/dx + v df/dy), centered differences (MOM-style interior scheme)."""
        return -(u * self.ddx(field, dx_row) + v * self.ddy(field, dy_row))

    def flux_divergence(self, h_u: np.ndarray, h_v: np.ndarray,
                        dx_row: np.ndarray, dy_row: np.ndarray) -> np.ndarray:
        """div(H u) in conservative (flux) form for the free-surface equation.

        Fluxes are evaluated at cell edges by averaging the two adjacent
        centers, and edges touching land carry zero flux, so the global
        integral of the divergence is exactly zero — the property the free
        surface (and the paper's closed hydrological cycle) needs.
        """
        area = (dx_row * dy_row)[..., :, None]
        # x fluxes at east edges, integrated over the edge length dy (constant
        # along a row, so it factors out of the telescoping sum).
        he = 0.5 * (h_u + _shift_east("op.fdiv.hu_e", h_u))
        fe = np.where(self.open_e, he, 0.0) * dy_row[..., :, None]
        div_x = (fe - _shift_west("op.fdiv.fe_w", fe)) / area
        # y fluxes at north edges, integrated over the edge length dx_edge
        # (average of the adjacent rows' dx) so the column sum telescopes exactly.
        dx_edge = 0.5 * (dx_row[:-1] + dx_row[1:])
        hn = 0.5 * (h_v[..., :-1, :] + h_v[..., 1:, :])
        fn = np.where(self.open_n, hn, 0.0) * dx_edge[..., :, None]
        fy = get_workspace().empty_like("op.fdiv.fy", h_v)
        fy[..., 0, :] = fn[..., 0, :]
        fy[..., 1:-1, :] = fn[..., 1:, :] - fn[..., :-1, :]
        fy[..., -1, :] = -fn[..., -1, :]
        div_y = fy / area
        return np.where(self.mask, div_x + div_y, 0.0)


# One-off callers (the rank-decomposed stencils of repro.parallel, tests)
# pay for a throw-away stencil; anything that steps owns one.
def ddx(field: np.ndarray, dx_row: np.ndarray, mask: np.ndarray,
        centered_only: bool = False) -> np.ndarray:
    """:meth:`Stencil.ddx` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask).ddx(field, dx_row, centered_only)


def ddy(field: np.ndarray, dy_row: np.ndarray, mask: np.ndarray,
        centered_only: bool = False) -> np.ndarray:
    """:meth:`Stencil.ddy` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask).ddy(field, dy_row, centered_only)


def laplacian(field: np.ndarray, dx_row: np.ndarray, dy_row: np.ndarray,
              mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.laplacian` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask).laplacian(field, dx_row, dy_row)


def biharmonic(field: np.ndarray, dx_row: np.ndarray, dy_row: np.ndarray,
               mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.biharmonic` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask).biharmonic(field, dx_row, dy_row)


def flux_divergence(h_u: np.ndarray, h_v: np.ndarray, dx_row: np.ndarray,
                    dy_row: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """:meth:`Stencil.flux_divergence` on a throw-away stencil of ``mask``."""
    return Stencil.of(mask).flux_divergence(h_u, h_v, dx_row, dy_row)
