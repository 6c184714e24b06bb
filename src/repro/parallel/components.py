"""Parallel execution of FOAM components on the simulated-MPI layer.

These drivers reproduce the decomposition strategy of the paper on the
forked-rank message-passing layer, with the defining correctness property —
*a decomposed run produces bit-identical results to the serial run* —
verified by the test suite:

* :func:`parallel_physics` — the paper's central parallelization claim:
  "the physics processes in CCM2 ... occur entirely in vertical columns,
  [and] are represented without any information exchange between
  processors."  Columns are scattered by latitude band, the full physics
  suite runs per rank with zero communication, results are gathered.
* :func:`parallel_laplacian` / :func:`parallel_biharmonic` — the ocean's
  horizontal stencils under the 2-D checkerboard decomposition with halo
  exchange, the communication pattern of the real parallel ocean model.
* :func:`parallel_spectral_analysis` — the PCCM2 spectral transform with
  the latitude-band -> wavenumber-band distributed transpose (Foster &
  Worley), each rank computing the Legendre sums for its own wavenumbers.
"""

from __future__ import annotations

import numpy as np

from repro.atmosphere.physics import PhysicsSuite, SurfaceState
from repro.atmosphere.spectral import SpectralTransform
from repro.ocean.grid import OceanGrid
from repro.ocean.operators import laplacian
from repro.parallel.decomp import BlockDecomp1D, BlockDecomp2D, block_bounds
from repro.parallel.procmpi import Comm, CommStats, run_ranks
from repro.parallel.transpose import transpose_backward, transpose_forward
from repro.util.tree import tree_map


# ----------------------------------------------------------------- physics
def parallel_physics(nranks: int, *, temp, q, u, v, pressure, ps,
                     geopotential, dsigma, surface: SurfaceState, dt, time,
                     lats, lons, external_fluxes: dict) -> dict:
    """Run the full physics suite decomposed over latitude bands, each band
    handed its rows of the surface and of the coupler's fluxes.

    Returns dict with gathered (dtdt, dqdt, precip) plus per-rank
    communication counters proving the no-communication property.
    """
    nlat = temp.shape[1]
    nlon = temp.shape[2]
    decomp = BlockDecomp1D(nlat=nlat, nlon=nlon, nranks=nranks)

    def worker(comm: Comm):
        lo, hi = decomp.bounds(comm.rank)
        band = tree_map(lambda a: a[lo:hi], (surface, external_fluxes))
        suite = PhysicsSuite()
        sent_before = comm.stats.msgs_sent
        out = suite.compute(
            temp=temp[:, lo:hi], q=q[:, lo:hi], u=u[:, lo:hi], v=v[:, lo:hi],
            pressure=pressure[:, lo:hi], ps=ps[lo:hi],
            geopotential=geopotential[:, lo:hi], dsigma=dsigma,
            surface=band[0], dt=dt, time=time,
            lats=lats[lo:hi], lons=lons, external_fluxes=band[1])
        physics_messages = comm.stats.msgs_sent - sent_before
        # Only now gather results (communication belongs to the coupler).
        dtdt = decomp.gather(comm, np.moveaxis(out.dtdt, 0, 1))
        dqdt = decomp.gather(comm, np.moveaxis(out.dqdt, 0, 1))
        prec = decomp.gather(comm, out.precip_conv + out.precip_strat)
        return dict(dtdt=dtdt, dqdt=dqdt, precip=prec,
                    physics_messages=physics_messages, stats=comm.stats)

    results = run_ranks(nranks, worker)
    root = results[0]
    return dict(
        dtdt=np.moveaxis(root["dtdt"], 1, 0),
        dqdt=np.moveaxis(root["dqdt"], 1, 0),
        precip=root["precip"],
        physics_messages=[r["physics_messages"] for r in results],
        comm_stats=[r["stats"] for r in results])


# ----------------------------------------------------------------- stencils
def parallel_laplacian(py: int, px: int, field: np.ndarray,
                       grid: OceanGrid, mask: np.ndarray) -> np.ndarray:
    """Masked 5-point Laplacian under a (py x px) checkerboard decomposition.

    Each rank applies the *serial* operator to its halo-padded block using
    only locally available rows of the metric arrays; halos move through
    the simulated MPI layer.  Equivalence with the serial operator is the
    test-suite property.
    """
    decomp = BlockDecomp2D(ny=grid.ny, nx=grid.nx, py=py, px=px)

    def worker(comm: Comm):
        local = decomp.scatter(comm, field if comm.rank == 0 else None)
        local_mask = decomp.scatter(comm, mask.astype(float)
                                    if comm.rank == 0 else None) > 0.5
        padded = decomp.exchange_halo(comm, local)
        padded_mask = decomp.exchange_halo(
            comm, local_mask.astype(float)) > 0.5
        (ylo, yhi), _ = decomp.bounds(comm.rank)
        # Metric rows incl. the halo rows (replicate at physical walls).
        rows = np.clip(np.arange(ylo - 1, yhi + 1), 0, grid.ny - 1)
        out = laplacian(padded, grid.dx[rows], grid.dy[rows], padded_mask)
        return decomp.gather(comm, out[1:-1, 1:-1])

    results = run_ranks(decomp.nranks, worker)
    return results[0]


def parallel_biharmonic(py: int, px: int, field: np.ndarray,
                        grid: OceanGrid, mask: np.ndarray) -> np.ndarray:
    """del^4 as two communicating Laplacian applications."""
    once = parallel_laplacian(py, px, field, grid, mask)
    return parallel_laplacian(py, px, once, grid, mask)


# ----------------------------------------------------------------- spectral
def parallel_spectral_analysis(nranks: int, tr: SpectralTransform,
                               grid_field: np.ndarray) -> np.ndarray:
    """Distributed grid->spectral transform (the PCCM2 pattern).

    1. each rank FFTs its latitude band (local);
    2. distributed transpose to wavenumber bands (alltoall);
    3. each rank performs the Legendre quadrature for its own m's;
    4. gather the spectral coefficients.

    Bit-identical to ``tr.analyze`` because every rank runs the transform's
    own per-wavenumber GEMM, whose shape does not depend on how many m's a
    rank owns, on the same tables.
    """
    nlat = tr.nlat
    nm = tr.trunc.nm
    decomp = BlockDecomp1D(nlat=nlat, nlon=tr.nlon, nranks=nranks)

    def worker(comm: Comm):
        local = decomp.scatter(comm, grid_field if comm.rank == 0 else None)
        # Local FFT of our latitude band.
        fm = tr._grid_to_fourier(local)
        # Transpose: rows=lats -> columns=wavenumbers.
        cols = transpose_forward(comm, fm, nlat, nm)
        # Legendre quadrature for our block of m's (all latitudes local now).
        mlo, mhi = block_bounds(nm, comm.size, comm.rank)
        spec_block = tr._fourier_to_spec(cols, tr._ana_p[mlo:mhi])
        gathered = comm.gather(spec_block, root=0)
        return np.concatenate(gathered, axis=0) if comm.rank == 0 else None

    return run_ranks(nranks, worker)[0]


def measure_transpose_comm(nranks: int, nlat: int, nm: int, nlev: int = 1,
                           seed: int = 0) -> list[CommStats]:
    """Measure the real traffic of one forward+backward spectral transpose.

    Runs the distributed transpose on a ``(nlat, nm * nlev)`` complex field
    (the per-step Fourier-coefficient volume of the spectral transform) and
    returns per-rank :class:`CommStats` whose ``transpose.*`` labels hold
    the measured message counts and bytes.  This is the calibration input
    for ``repro.perf.eventsim.simulate_coupled_day(transpose_comm=...)`` —
    simulated timing driven by measured traffic instead of the analytic
    ``AtmosphereCost.transpose_bytes()`` formula.  With the caller's
    profiler enabled, the ranks' ``transpose.*`` sections (seconds and
    ``comm_bytes``) land in it too, which is what
    :func:`repro.perf.costmodel.calibrate_from_profile` reads.
    """
    ncols = nm * nlev
    rng = np.random.default_rng(seed)
    full = rng.normal(size=(nlat, ncols)) + 1j * rng.normal(size=(nlat, ncols))

    def worker(comm: Comm):
        lo, hi = block_bounds(nlat, comm.size, comm.rank)
        cols = transpose_forward(comm, full[lo:hi], nlat, ncols)
        back = transpose_backward(comm, cols, nlat, ncols)
        if not np.array_equal(back, full[lo:hi]):
            raise AssertionError(
                f"rank {comm.rank}: transpose roundtrip not bitwise-identical")
        return comm.stats

    return run_ranks(nranks, worker)
