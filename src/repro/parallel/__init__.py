"""Message passing: simulated MPI, domain decomposition, tracing.

FOAM's third and fourth design strategies (paper section 3) are
distributed-memory message passing via MPI.  This package provides the
single-host equivalent: :func:`run_ranks` forks rank processes exchanging
real NumPy arrays through one world communicator, :class:`Comm`
(:mod:`repro.parallel.procmpi`: collectives, a parent-side router and
shared-memory bulk payloads), on which the decompositions and distributed
transposes of the component models are built.
"""

from repro.parallel.coupled import (
    ConcurrentCoupledResult,
    PoolLayout,
    run_concurrent_coupled,
)
from repro.parallel.decomp import BlockDecomp1D, BlockDecomp2D, block_bounds
from repro.parallel.procmpi import (
    ANY_SOURCE,
    ANY_TAG,
    BlockedRank,
    Comm,
    CommError,
    CommStats,
    DeadlockError,
    DeadlockReport,
    run_ranks,
)
from repro.parallel.trace import ACTIVITIES, RankTrace, Segment, TraceSet
from repro.parallel.transpose import transpose_backward, transpose_forward

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BlockedRank",
    "Comm",
    "CommError",
    "CommStats",
    "ConcurrentCoupledResult",
    "PoolLayout",
    "run_concurrent_coupled",
    "DeadlockError",
    "DeadlockReport",
    "run_ranks",
    "BlockDecomp1D",
    "BlockDecomp2D",
    "block_bounds",
    "transpose_forward",
    "transpose_backward",
    "ACTIVITIES",
    "RankTrace",
    "Segment",
    "TraceSet",
]
