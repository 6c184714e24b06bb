"""Distributed transpose for the parallel spectral transform.

PCCM2's spectral transform (Foster & Worley 1997, ref [8] of the paper) keeps
gridpoint fields decomposed by latitude band.  The Legendre transform,
however, needs *all* latitudes for a given zonal wavenumber m.  The standard
solution is a transpose: re-decompose from latitude-bands to wavenumber-bands
with a personalized all-to-all, do the (now local) Legendre sums, and
transpose back.

This module implements that transpose over a
:class:`~repro.parallel.procmpi.Comm` for 2-D arrays ``(nlat, nm)`` — rows =
latitudes, columns = Fourier coefficients.
"""

from __future__ import annotations

import numpy as np

from repro.backend import get_workspace
from repro.parallel.decomp import block_bounds
from repro.parallel.procmpi import Comm
from repro.perf.profiler import profile_section


def transpose_forward(comm: Comm, local_rows: np.ndarray,
                      nrows: int, ncols: int) -> np.ndarray:
    """From row-decomposed to column-decomposed layout.

    Parameters
    ----------
    local_rows:
        This rank's block of rows, shape ``(my_rows, ncols)``.
    nrows, ncols:
        Global array dimensions.

    Returns
    -------
    ndarray of shape ``(nrows, my_cols)`` — every global row, but only this
    rank's block of columns.

    The underlying all-to-all is labeled ``"transpose.forward"``, so its
    traffic is attributable in :class:`~repro.parallel.commbase.CommStats`
    and a wedged transpose is named as such in a
    :class:`~repro.parallel.commbase.DeadlockReport`.
    """
    rlo, rhi = block_bounds(nrows, comm.size, comm.rank)
    if local_rows.ndim != 2 or local_rows.shape != (rhi - rlo, ncols):
        raise ValueError(
            f"local_rows must be ({rhi - rlo}, {ncols}), got {local_rows.shape}")
    with profile_section("transpose.forward") as sec:
        bytes_before = comm.stats.bytes_sent
        # Pack into per-destination workspace buffers: the simulated MPI
        # layer copies payloads on send, so these are free to reuse on the
        # next call (each rank process has its own arena).
        ws = get_workspace()
        sendblocks = []
        for dest in range(comm.size):
            clo, chi = block_bounds(ncols, comm.size, dest)
            blk = ws.empty(f"tp.fwd.send{dest}",
                           (rhi - rlo, chi - clo), local_rows.dtype)
            blk[...] = local_rows[:, clo:chi]
            sendblocks.append(blk)
        recvblocks = comm.alltoall(sendblocks, op="transpose.forward")
        if sec is not None:
            sec.count("comm_bytes", comm.stats.bytes_sent - bytes_before)
        # recvblocks[src] holds src's rows of *our* columns; stack by row block.
        return np.concatenate(recvblocks, axis=0)


def transpose_backward(comm: Comm, local_cols: np.ndarray,
                       nrows: int, ncols: int) -> np.ndarray:
    """Inverse of :func:`transpose_forward`: back to row-decomposed layout."""
    clo, chi = block_bounds(ncols, comm.size, comm.rank)
    if local_cols.ndim != 2 or local_cols.shape != (nrows, chi - clo):
        raise ValueError(
            f"local_cols must be ({nrows}, {chi - clo}), got {local_cols.shape}")
    with profile_section("transpose.backward") as sec:
        bytes_before = comm.stats.bytes_sent
        ws = get_workspace()
        sendblocks = []
        for dest in range(comm.size):
            rlo, rhi = block_bounds(nrows, comm.size, dest)
            blk = ws.empty(f"tp.bwd.send{dest}",
                           (rhi - rlo, chi - clo), local_cols.dtype)
            blk[...] = local_cols[rlo:rhi, :]
            sendblocks.append(blk)
        recvblocks = comm.alltoall(sendblocks, op="transpose.backward")
        if sec is not None:
            sec.count("comm_bytes", comm.stats.bytes_sent - bytes_before)
        return np.concatenate(recvblocks, axis=1)
