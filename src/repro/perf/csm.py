"""NCAR-CSM-class baseline cost model (experiment E8).

Paper: *"The performance of FOAM can be compared directly to the NCAR CSM
coupled model which accomplishes only a third of FOAM's maximum throughput
using 16 nodes of a Cray C90."* and *"we estimate that the cost per unit of
performance of FOAM is already more than ten times better."*

The CSM baseline differs from FOAM in exactly the ways the paper credits
for its advantage:

* a T42-class atmosphere (~2.8x finer spacing than R15, hence ~(2.8)^3
  more work per simulated time from the resolution cube law, realized here
  as a 128 x 64 grid with a 20-minute step);
* a conventional ocean without FOAM's slowed/split/subcycled stepping;
* a vector supercomputer (Cray C90) whose cost per delivered flop was far
  higher than the SP2's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.perf.costmodel import AtmosphereCost, OceanCost
from repro.perf.machine import MachineModel, cray_c90

# Rough 1997 list prices (millions of USD) for the cost-performance claim.
SP2_COST_PER_NODE_MUSD = 0.08
C90_16_NODE_COST_MUSD = 30.0


@dataclass
class CSMCostModel:
    """A CSM-like coupled model on a C90-like machine."""

    machine: MachineModel = field(default_factory=cray_c90)
    atm: AtmosphereCost = field(default_factory=lambda: AtmosphereCost(
        nlat=64, nlon=128, nlev=18, mmax=42, dt=1200.0))
    ocn: OceanCost = field(default_factory=OceanCost)

    def day_ops(self) -> float:
        """Coupled ops per simulated day: T42 atmosphere + conventional ocean."""
        return self.atm.day_ops() + self.ocn.conventional_day_ops()

    def throughput(self, n_nodes: int = 16) -> float:
        """Model speedup (simulated/wall) on ``n_nodes`` of the C90.

        Vector machines parallelize coupled climate codes with modest
        multitasking efficiency; 85 % is generous to the baseline.
        """
        n = min(n_nodes, self.machine.max_nodes)
        wall = self.day_ops() / (n * self.machine.flop_rate * 0.85)
        return 86400.0 / wall

    def machine_cost_musd(self, n_nodes: int = 16) -> float:
        return C90_16_NODE_COST_MUSD * n_nodes / 16.0


def foam_cost_musd(n_nodes: int) -> float:
    """Price of an n-node SP2 (1997 list, M USD)."""
    return SP2_COST_PER_NODE_MUSD * n_nodes


def cost_performance_ratio(foam_speedup: float, foam_nodes: int,
                           csm: CSMCostModel | None = None) -> float:
    """FOAM's (speedup per M$) divided by that of CSM on its 16 C90 nodes —
    the paper's '>10x better'."""
    csm = csm or CSMCostModel()
    foam_cp = foam_speedup / foam_cost_musd(foam_nodes)
    csm_cp = csm.throughput(16) / csm.machine_cost_musd(16)
    return foam_cp / csm_cp
