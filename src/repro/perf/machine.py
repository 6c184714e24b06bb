"""Machine models for the performance simulator.

The paper's platform is an IBM SP2 with 120 MHz P2SC nodes connected by the
SP switch; the comparison baseline (NCAR CSM) ran on a 16-node Cray C90.
Since we have neither, experiments E2/E5-E10 run on a calibrated model: a
node is a sustained flop rate, a link is (latency, bandwidth), and the
discrete-event simulator charges compute time = ops/rate and message time =
latency + bytes/bandwidth.

Calibration: sustained rates are set so the model reproduces the paper's
anchor points — ~4,000x real time on 34 SP2 nodes, ocean >100,000x on 64,
CSM at about a third of FOAM's peak on the C90 (documented in DESIGN.md and
EXPERIMENTS.md).  Spectral-transform climate codes sustained ~5-10 % of peak
on 1997 hardware, hence 25 MFLOP/s of the P2SC's 480 MFLOP/s peak.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MachineModel:
    """A homogeneous distributed-memory machine."""

    name: str
    flop_rate: float          # sustained flop/s per node
    latency: float            # s per message
    bandwidth: float          # bytes/s per link
    max_nodes: int = 512

    def compute_time(self, ops: float) -> float:
        """Seconds to execute ``ops`` floating-point operations on one node."""
        if ops < 0:
            raise ValueError(f"ops must be >= 0, got {ops}")
        return ops / self.flop_rate

    def message_time(self, nbytes: float) -> float:
        """Seconds to move one message of ``nbytes`` across one link."""
        return self.latency + nbytes / self.bandwidth

    def alltoall_time(self, nranks: int, total_bytes: float) -> float:
        """Pairwise-exchange personalized all-to-all among ``nranks`` ranks."""
        if nranks <= 1:
            return 0.0
        per_pair = total_bytes / max(nranks, 1)
        return (nranks - 1) * self.message_time(per_pair)


def ibm_sp2() -> MachineModel:
    """The paper's production platform (120 MHz P2SC, SP switch)."""
    return MachineModel(name="IBM SP2 (120 MHz P2SC)",
                        flop_rate=25.0e6,       # sustained, spectral GCM code
                        latency=40.0e-6,
                        bandwidth=35.0e6)


def cray_c90() -> MachineModel:
    """The NCAR CSM baseline platform: 16-node Cray C90.

    Coupled climate codes sustained ~10 % of the C90's 1 GFLOP/s vector
    peak; 110 MFLOP/s reproduces the published CSM throughput (about a third
    of FOAM's maximum — Trenberth 1997 via the paper).
    """
    return MachineModel(name="Cray C90", flop_rate=110.0e6,
                        latency=5.0e-6, bandwidth=300.0e6, max_nodes=16)

