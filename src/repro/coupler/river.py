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
potential (every land cell drains toward its nearest coast), with the same
override hook (``set_direction``) the hand-tuning implies.  This closes the
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


def distance_to_ocean(land_mask: np.ndarray) -> np.ndarray:
    """Integer BFS distance (in cells) from each land cell to the nearest ocean.

    Longitude wraps; latitude does not.  Ocean cells have distance 0.
    Land cells with no path to the ocean (shouldn't exist on a real mask)
    get a large finite value.
    """
    ny, nx = land_mask.shape
    dist = np.where(land_mask, np.iinfo(np.int32).max, 0).astype(np.int64)
    frontier = [(j, i) for j in range(ny) for i in range(nx) if not land_mask[j, i]]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for j, i in frontier:
            for dj, di in NEIGHBORS:
                jj, ii = j + dj, (i + di) % nx
                if 0 <= jj < ny and land_mask[jj, ii] and dist[jj, ii] > d:
                    dist[jj, ii] = d
                    nxt.append((jj, ii))
        frontier = nxt
    return dist


def derive_flow_directions(land_mask: np.ndarray,
                           rng_seed: int = 0) -> np.ndarray:
    """D8 flow direction index (0-7 into NEIGHBORS) per land cell, -1 elsewhere.

    Steepest descent on the distance-to-ocean field, ties broken at random
    (the stand-in for the paper's hand tuning — see ``set_direction``).
    """
    ny, nx = land_mask.shape
    dist = distance_to_ocean(land_mask)
    rng = np.random.default_rng(rng_seed)
    direction = np.full((ny, nx), -1, dtype=int)
    for j in range(ny):
        for i in range(nx):
            if not land_mask[j, i]:
                continue
            best = []
            best_d = dist[j, i]
            for n, (dj, di) in enumerate(NEIGHBORS):
                jj, ii = j + dj, (i + di) % nx
                if not 0 <= jj < ny:
                    continue
                if dist[jj, ii] < best_d:
                    best_d = dist[jj, ii]
                    best = [n]
                elif dist[jj, ii] == best_d and best and dist[jj, ii] < dist[j, i]:
                    best.append(n)
            if best:
                direction[j, i] = best[0] if len(best) == 1 else int(rng.choice(best))
            else:
                direction[j, i] = -1    # interior pit: water pools (rare)
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
        self.direction = derive_flow_directions(self.land, rng_seed)
        self._build_routing()

    def set_direction(self, j: int, i: int, direction: int) -> None:
        """Hand-tune one cell's flow direction (the paper's practice)."""
        if not self.land[j, i]:
            raise ValueError(f"({j},{i}) is not a land cell")
        if not 0 <= direction < 8:
            raise ValueError("direction must be 0..7")
        self.direction[j, i] = direction
        self._build_routing()

    def _build_routing(self) -> None:
        ny, nx = self.land.shape
        self.dest_j = np.full((ny, nx), -1, dtype=int)
        self.dest_i = np.full((ny, nx), -1, dtype=int)
        for j in range(ny):
            for i in range(nx):
                n = self.direction[j, i]
                if n < 0:
                    continue
                dj, di = NEIGHBORS[n]
                jj, ii = j + dj, (i + di) % nx
                if 0 <= jj < ny:
                    self.dest_j[j, i] = jj
                    self.dest_i[j, i] = ii

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
