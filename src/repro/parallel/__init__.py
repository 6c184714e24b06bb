"""Message passing: simulated MPI, domain decomposition, tracing.

FOAM's third and fourth design strategies (paper section 3) are
distributed-memory message passing via MPI.  This package provides the
single-host equivalent: :func:`run_ranks` forks rank processes exchanging
real NumPy arrays through the :class:`CommBase` interface
(:mod:`repro.parallel.procmpi` is the one transport: a parent-side router
plus shared-memory bulk payloads), on which the decompositions and
distributed transposes of the component models are built.
"""

from repro.parallel.commbase import (
    ANY_SOURCE,
    ANY_TAG,
    BlockedRank,
    CommBase,
    CommError,
    CommStats,
    DeadlockError,
    DeadlockReport,
    RankCrashedError,
)
from repro.parallel.coupled import (
    ConcurrentCoupledResult,
    PoolLayout,
    run_concurrent_coupled,
)
from repro.parallel.decomp import BlockDecomp1D, BlockDecomp2D, block_bounds
from repro.parallel.faults import FaultPlan, corrupt_payload
from repro.parallel.procmpi import ProcComm, run_ranks
from repro.parallel.trace import ACTIVITIES, RankTrace, Segment, TraceSet
from repro.parallel.transpose import transpose_backward, transpose_forward

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "BlockedRank",
    "CommBase",
    "CommError",
    "CommStats",
    "ProcComm",
    "ConcurrentCoupledResult",
    "PoolLayout",
    "run_concurrent_coupled",
    "DeadlockError",
    "DeadlockReport",
    "FaultPlan",
    "RankCrashedError",
    "corrupt_payload",
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
