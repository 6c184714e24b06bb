"""Performance modeling: machine models, op counts, and the event simulator.

Reproduces the paper's section 5 results (Figure 2 and the throughput
claims) on a calibrated model of the 1997 hardware we do not have.
"""

from repro.perf.costmodel import (
    AtmosphereCost,
    CouplerCost,
    MeasuredCosts,
    OceanCost,
    atmosphere_ocean_cost_ratio,
    calibrate_from_profile,
    foam_paper_costs,
    transpose_bytes_from_stats,
    transpose_messages_from_stats,
)
from repro.perf.csm import (
    CSMCostModel,
    cost_performance_ratio,
    foam_cost_musd,
)
from repro.perf.eventsim import (
    SimulationResult,
    atmosphere_parallel_efficiency,
    predict_concurrent_speedup,
    scaling_curve,
    simulate_coupled_day,
    simulate_ocean_day,
    simulate_serial_day,
)
from repro.perf.machine import (
    MachineModel,
    commodity_cluster_1999,
    cray_c90,
    ibm_sp2,
)
# NOTE: repro.perf.report is deliberately NOT imported here — it pulls in
# repro.core (the whole coupled model), while this package must stay
# importable from the instrumented component modules themselves.
from repro.perf.profiler import (
    Profiler,
    RunProfile,
    SectionStat,
    disable_profiling,
    enable_profiling,
    get_profiler,
    layer_of,
    profile_count,
    profile_section,
    profiled,
    profiling_enabled,
    take_profile,
)

__all__ = [
    "MachineModel", "commodity_cluster_1999", "cray_c90", "ibm_sp2",
    "AtmosphereCost", "CouplerCost", "MeasuredCosts", "OceanCost",
    "atmosphere_ocean_cost_ratio", "calibrate_from_profile",
    "foam_paper_costs",
    "transpose_bytes_from_stats", "transpose_messages_from_stats",
    "SimulationResult", "atmosphere_parallel_efficiency",
    "predict_concurrent_speedup", "scaling_curve",
    "simulate_coupled_day", "simulate_ocean_day", "simulate_serial_day",
    "CSMCostModel", "cost_performance_ratio", "foam_cost_musd",
    "Profiler", "RunProfile", "SectionStat",
    "disable_profiling", "enable_profiling", "get_profiler", "layer_of",
    "profile_count", "profile_section", "profiled", "profiling_enabled",
    "take_profile",
]
