"""Domain decomposition for the FOAM component models.

GCM parallelization (paper, section "The FOAM Atmosphere Model") is a one- or
two-dimensional block decomposition of the horizontal domain.  This module
provides:

* :class:`BlockDecomp1D` — latitude-band decomposition, the layout PCCM2 used
  for gridpoint physics (each rank owns a contiguous band of latitudes and
  all longitudes, so vertical-column physics needs no communication at all);
* :class:`BlockDecomp2D` — latitude x longitude checkerboard used by the
  ocean model, with 4-point halo exchange;
* halo-exchange helpers that move real array ghost rows through a
  :class:`~repro.parallel.procmpi.Comm`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.procmpi import Comm

_TAG_HALO_N = 101
_TAG_HALO_S = 102
_TAG_HALO_E = 103
_TAG_HALO_W = 104


def block_bounds(n: int, parts: int, index: int) -> tuple[int, int]:
    """Return [lo, hi) bounds of block ``index`` when ``n`` items split ``parts`` ways.

    Uses the balanced formula (remainder spread over the leading blocks), the
    same rule MPI tutorials and PCCM2's decomposition employ, so block sizes
    differ by at most one.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if not 0 <= index < parts:
        raise ValueError(f"block index {index} out of range for {parts} parts")
    base, extra = divmod(n, parts)
    lo = index * base + min(index, extra)
    hi = lo + base + (1 if index < extra else 0)
    return lo, hi


@dataclass(frozen=True)
class BlockDecomp1D:
    """Latitude-band decomposition of an (nlat, nlon) grid over ``nranks`` ranks."""

    nlat: int
    nlon: int
    nranks: int

    def __post_init__(self):
        if self.nranks > self.nlat:
            raise ValueError(
                f"cannot split {self.nlat} latitudes over {self.nranks} ranks; "
                "this is the decomposition limit the paper hits at 68 nodes")

    def bounds(self, rank: int) -> tuple[int, int]:
        """Latitude bounds [lo, hi) owned by ``rank``."""
        return block_bounds(self.nlat, self.nranks, rank)

    def owner(self, j: int) -> int:
        """Rank owning global latitude row ``j``."""
        for r in range(self.nranks):
            lo, hi = self.bounds(r)
            if lo <= j < hi:
                return r
        raise ValueError(f"latitude index {j} out of range")

    def scatter(self, comm: Comm, full: np.ndarray | None) -> np.ndarray:
        """Distribute a full (nlat, nlon, ...) array from rank 0 to band owners."""
        if comm.rank == 0:
            assert full is not None
            parts = [full[slice(*self.bounds(r))] for r in range(comm.size)]
        else:
            parts = None
        return comm.scatter(parts, root=0)

    def gather(self, comm: Comm, local: np.ndarray) -> np.ndarray | None:
        """Reassemble the full array on rank 0 from per-rank bands."""
        parts = comm.gather(local, root=0)
        if comm.rank == 0:
            return np.concatenate(parts, axis=0)
        return None

    def exchange_halo(self, comm: Comm, local: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exchange one ghost latitude row with north/south neighbours.

        Returns ``(south_ghost, north_ghost)``; at the physical boundaries the
        ghost row is a copy of the edge row (zero-gradient closure), matching
        the polar treatment of a latitude-band model.
        """
        north = comm.rank + 1 if comm.rank + 1 < comm.size else None
        south = comm.rank - 1 if comm.rank - 1 >= 0 else None
        # Buffered sends: post both before receiving, the classic safe pattern.
        if north is not None:
            comm.send(local[-1], dest=north, tag=_TAG_HALO_N)
        if south is not None:
            comm.send(local[0], dest=south, tag=_TAG_HALO_S)
        south_ghost = (comm.recv(source=south, tag=_TAG_HALO_N)
                       if south is not None else local[0].copy())
        north_ghost = (comm.recv(source=north, tag=_TAG_HALO_S)
                       if north is not None else local[-1].copy())
        return south_ghost, north_ghost


@dataclass(frozen=True)
class BlockDecomp2D:
    """Checkerboard decomposition of an (ny, nx) grid over py x px ranks.

    The x direction is periodic (longitude); the y direction is bounded.
    """

    ny: int
    nx: int
    py: int
    px: int

    def __post_init__(self):
        if self.py * self.px < 1:
            raise ValueError("need at least one rank")
        if self.py > self.ny or self.px > self.nx:
            raise ValueError(
                f"decomposition {self.py}x{self.px} too fine for {self.ny}x{self.nx} grid")

    @property
    def nranks(self) -> int:
        return self.py * self.px

    def coords(self, rank: int) -> tuple[int, int]:
        """(row, col) process coordinates of ``rank`` (row-major)."""
        if not 0 <= rank < self.nranks:
            raise ValueError(f"rank {rank} out of range")
        return divmod(rank, self.px)

    def rank_at(self, prow: int, pcol: int) -> int:
        return prow * self.px + (pcol % self.px)

    def bounds(self, rank: int) -> tuple[tuple[int, int], tuple[int, int]]:
        """((ylo, yhi), (xlo, xhi)) owned by ``rank``."""
        prow, pcol = self.coords(rank)
        return block_bounds(self.ny, self.py, prow), block_bounds(self.nx, self.px, pcol)

    def scatter(self, comm: Comm, full: np.ndarray | None) -> np.ndarray:
        if comm.rank == 0:
            assert full is not None
            parts = []
            for r in range(comm.size):
                (ylo, yhi), (xlo, xhi) = self.bounds(r)
                parts.append(np.ascontiguousarray(full[ylo:yhi, xlo:xhi]))
        else:
            parts = None
        return comm.scatter(parts, root=0)

    def gather(self, comm: Comm, local: np.ndarray) -> np.ndarray | None:
        parts = comm.gather(local, root=0)
        if comm.rank != 0:
            return None
        trailing = parts[0].shape[2:]
        full = np.empty((self.ny, self.nx) + trailing, dtype=parts[0].dtype)
        for r, part in enumerate(parts):
            (ylo, yhi), (xlo, xhi) = self.bounds(r)
            full[ylo:yhi, xlo:xhi] = part
        return full

    def exchange_halo(self, comm: Comm, local: np.ndarray) -> np.ndarray:
        """Return ``local`` padded by a one-cell halo filled from neighbours.

        East-west is periodic; north-south uses edge replication at the walls
        (the ocean model applies its own no-flux masking on top).  Corners are
        filled by edge replication, sufficient for the 5-point and 13-point
        stencils used here.
        """
        prow, pcol = self.coords(comm.rank)
        ny, nx = local.shape[:2]
        padded = np.empty((ny + 2, nx + 2) + local.shape[2:], dtype=local.dtype)
        padded[1:-1, 1:-1] = local

        east = self.rank_at(prow, pcol + 1)
        west = self.rank_at(prow, pcol - 1)
        # Periodic east-west exchange (always has a partner, may be self).
        if east == comm.rank:
            padded[1:-1, -1] = local[:, 0]
            padded[1:-1, 0] = local[:, -1]
        else:
            comm.send(local[:, -1], dest=east, tag=_TAG_HALO_E)
            comm.send(local[:, 0], dest=west, tag=_TAG_HALO_W)
            padded[1:-1, 0] = comm.recv(source=west, tag=_TAG_HALO_E)
            padded[1:-1, -1] = comm.recv(source=east, tag=_TAG_HALO_W)

        north = self.rank_at(prow + 1, pcol) if prow + 1 < self.py else None
        south = self.rank_at(prow - 1, pcol) if prow - 1 >= 0 else None
        if north is not None:
            comm.send(local[-1], dest=north, tag=_TAG_HALO_N)
        if south is not None:
            comm.send(local[0], dest=south, tag=_TAG_HALO_S)
        padded[0, 1:-1] = (comm.recv(source=south, tag=_TAG_HALO_N)
                           if south is not None else local[0])
        padded[-1, 1:-1] = (comm.recv(source=north, tag=_TAG_HALO_S)
                            if north is not None else local[-1])

        # Corner closure by replication.
        padded[0, 0] = padded[0, 1]
        padded[0, -1] = padded[0, -2]
        padded[-1, 0] = padded[-1, 1]
        padded[-1, -1] = padded[-1, -2]
        return padded
