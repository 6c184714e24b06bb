"""Parallel river routing model (Miller et al. 1994, as used in FOAM).

Paper: *"The flow F in cubic meters per second out of a cell is
F = V u / d, where V is the total river volume equal to the local runoff
plus the sum of the flow from up to seven of the eight neighboring cells,
u is an effective flow velocity which is taken as a constant 0.35 meters per
second, and d is the downstream distance ...  V for an ocean point near the
coast is then calculated as the sum of the outflow from neighboring land
points and converted back to a flux by dividing by the area of that ocean
point."*

Flow directions: the paper set many by hand so basins match observation; we
derive them automatically by steepest descent on a distance-to-ocean
potential (every land cell drains toward its nearest coast).  This closes the
hydrological cycle: continental runoff returns to the ocean at point
sources (river mouths) after a finite delay V/F = d/u.
"""

from __future__ import annotations

import numpy as np

from repro.util.constants import RIVER_FLOW_VELOCITY

# The 8 D8 neighbors as (dj, di); i wraps periodically, j does not.
NEIGHBORS = [(-1, -1), (-1, 0), (-1, 1),
             (0, -1),           (0, 1),
             (1, -1),  (1, 0),  (1, 1)]
_DJ = np.array([dj for dj, _ in NEIGHBORS])
_DI = np.array([di for _, di in NEIGHBORS])


def _neighbor_planes(field: np.ndarray, fill) -> np.ndarray:
    """(8, ny, nx): plane n holds each cell's NEIGHBORS[n] value of
    ``field``, ``fill`` where that neighbor is off the grid in j."""
    ny = field.shape[0]
    planes = np.full((8,) + field.shape, fill, dtype=field.dtype)
    for n, (dj, di) in enumerate(NEIGHBORS):
        shifted = np.roll(field, -di, axis=1)
        lo, hi = max(0, -dj), min(ny, ny - dj)
        planes[n, lo:hi] = shifted[lo + dj:hi + dj]
    return planes


def distance_to_ocean(land_mask: np.ndarray) -> np.ndarray:
    """Integer BFS distance (in cells) from each land cell to the nearest ocean.

    Longitude wraps; latitude does not.  Ocean cells have distance 0.
    Land cells with no path to the ocean (shouldn't exist on a real mask)
    get a large finite value.  The breadth-first fronts are 8-neighbor
    dilations of the cells already reached, restricted to land.
    """
    land = np.asarray(land_mask, dtype=bool)
    dist = np.where(land, np.iinfo(np.int32).max, 0).astype(np.int64)
    frontier = ~land
    d = 0
    while frontier.any():
        d += 1
        reach = _neighbor_planes(frontier, False).any(axis=0)
        frontier = reach & land & (dist > d)
        dist[frontier] = d
    return dist


def derive_flow_directions(land_mask: np.ndarray,
                           rng_seed: int = 0) -> np.ndarray:
    """D8 flow direction index (0-7 into NEIGHBORS) per land cell, -1 elsewhere.

    Steepest descent on the distance-to-ocean field, ties broken at random
    (the stand-in for the paper's hand tuning): one ``rng.integers(0, k)``
    draw per cell with k tied neighbors, in
    row-major order.  A land cell with no lower neighbor is an interior
    pit (-1): its water pools (rare).
    """
    land = np.asarray(land_mask, dtype=bool)
    dist = distance_to_ocean(land)
    planes = _neighbor_planes(dist, np.iinfo(np.int64).max)
    lowest = planes.min(axis=0)
    drains = land & (lowest < dist)
    tied = (planes == lowest) & drains
    direction = np.where(drains, np.argmax(tied, axis=0), -1)
    count = tied.sum(axis=0)
    many = count > 1
    if many.any():
        pick = np.random.default_rng(rng_seed).integers(0, count[many])
        # The pick-th tied neighbor of each cell, in NEIGHBORS order.
        rank = np.cumsum(tied[:, many], axis=0) - 1
        chosen = tied[:, many] & (rank == pick)
        direction[many] = np.argmax(chosen, axis=0)
    return direction


class RiverModel:
    """Explicit river routing on the atmosphere (land) grid.

    Holds the routing network only; the stored water is the caller's
    (``CouplerState.river_volume``), taken and returned by :meth:`step`.
    """

    def __init__(self, land_mask: np.ndarray, cell_areas: np.ndarray,
                 cell_spacing: np.ndarray,
                 flow_velocity: float = RIVER_FLOW_VELOCITY,
                 rng_seed: int = 0):
        """``cell_spacing`` (ny,) is the downstream distance d per row (m)."""
        self.land = np.asarray(land_mask, dtype=bool)
        self.areas = np.asarray(cell_areas, dtype=float)
        self.spacing = np.asarray(cell_spacing, dtype=float)
        self.u = float(flow_velocity)
        self.direction = n = derive_flow_directions(self.land, rng_seed)
        # Where each cell's outflow lands (-1: no downstream cell).
        ny, nx = self.land.shape
        flows = n >= 0
        jj = np.arange(ny)[:, None] + np.where(flows, _DJ[n], 0)
        ii = (np.arange(nx)[None, :] + np.where(flows, _DI[n], 0)) % nx
        valid = flows & (jj >= 0) & (jj < ny)
        self.dest_j = np.where(valid, jj, -1)
        self.dest_i = np.where(valid, ii, -1)

    # ------------------------------------------------------------------
    def step(self, volume: np.ndarray, runoff: np.ndarray, dt: float
             ) -> tuple[np.ndarray, np.ndarray]:
        """Route ``runoff`` (kg m^-2 s^-1 on land) for ``dt`` seconds through
        the stored water ``volume`` (m^3 per cell; not written to).

        Returns the freshwater flux delivered to ocean cells
        (kg m^-2 s^-1 on this grid; zero on land) and the new storage.
        Total water is conserved exactly: d(storage)/dt = inflow - outflow,
        outflow at the coast goes to the mouth cell.
        """
        ny, nx = self.land.shape
        # Add local runoff to storage (convert kg/m^2/s -> m^3).
        volume = volume + np.where(self.land, runoff, 0.0) * self.areas * dt / 1000.0

        # F = V u / d, limited so a cell cannot export more than it holds.
        d_row = self.spacing[:, None]
        outflow = np.where(self.land & (self.direction >= 0),
                           volume * self.u / d_row, 0.0)        # m^3/s
        outflow = np.minimum(outflow, volume / max(dt, 1e-9))

        delivered = np.zeros((ny, nx))
        moved = outflow * dt
        volume -= moved
        valid = self.dest_j >= 0
        np.add.at(delivered, (self.dest_j[valid], self.dest_i[valid]),
                  moved[valid])
        # Water arriving on land joins that cell's storage; water arriving
        # in the ocean is the river discharge at the mouth.
        volume += np.where(self.land, delivered, 0.0)
        mouth_m3 = np.where(~self.land, delivered, 0.0)
        return mouth_m3 * 1000.0 / (self.areas * dt), volume   # kg m^-2 s^-1
