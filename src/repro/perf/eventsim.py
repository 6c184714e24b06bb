"""Discrete-event simulator of FOAM runs on a modeled machine.

Reproduces the paper's section 5 in silico: Figure 2 (per-processor time
allocation over one simulated day) and the throughput/scaling numbers
(6,000x on 68 nodes, ~4,000x on 34, near-linear 8/16/32 atmosphere scaling,
>100,000x for the stand-alone ocean on 64 nodes).

Structure mirrors the real run exactly:

* atmosphere ranks advance 48 half-hour steps per day in lockstep — each
  step is compute (with a random cloud-driven load imbalance, the paper's
  explanation for ranks entering the coupler at different times), then the
  spectral-transpose all-to-all, then the coupler section on the same nodes;
* radiation steps (2/day) are ~10x longer, the tall green bars of Fig. 2;
* dedicated ocean ranks receive a 6-hour ocean call at each coupling
  boundary and work through it while the atmosphere marches on; if the
  ocean is still busy at the *next* boundary, every atmosphere rank idles
  until it finishes — "one ocean processor has no difficulty keeping up
  with 16 atmosphere processors, but ... can not keep up with 32";
* the atmosphere's latitude-band decomposition cannot use more ranks than
  latitude pairs, and efficiency degrades near that limit — the paper's
  "poor scaling from our production runs" at 68 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.parallel.trace import RankTrace, TraceSet
from repro.perf.costmodel import (
    AtmosphereCost,
    MeasuredCosts,
    OceanCost,
    analytic_costs,
)
from repro.perf.machine import ibm_sp2


@dataclass
class SimulationResult:
    """Output of one simulated run."""

    traces: TraceSet
    wall_seconds: float          # makespan for the simulated duration
    simulated_seconds: float
    n_atm_ranks: int
    n_ocn_ranks: int
    # The MeasuredCosts the run was driven by, as the simulator used them
    # (plus the schedule and its overlap window).
    per_step_costs: dict | None = None

    @property
    def speedup(self) -> float:
        """Model speedup: simulated time per wall-clock time (the paper's metric)."""
        return self.simulated_seconds / self.wall_seconds


def atmosphere_parallel_efficiency(n_ranks: int, nlat: int) -> float:
    """Efficiency of the latitude-band decomposition at ``n_ranks``.

    PCCM2's 2-D decomposition scales cleanly while each rank holds at least
    one latitude band (the paper: "almost linear scaling on 8, 16, and 32
    atmosphere processors"); beyond ``nlat`` ranks the extra processors
    cannot be given rows and the decomposition wastes them — "this lack of
    scaling to 68 nodes is due to limitations in the spatial decomposition
    technique as applied to the low atmosphere resolution we use".
    """
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if n_ranks <= nlat:
        # Mild granularity loss as rows-per-rank approaches one.
        rows = nlat / n_ranks
        return 1.0 if rows >= 2.0 else 0.9 + 0.1 * (rows - 1.0)
    # More ranks than rows: only nlat ranks do row work, and the wider
    # transpose adds overhead.
    return (nlat / n_ranks) * 0.85


def simulate_coupled_day(n_atm_ranks: int, n_ocn_ranks: int = 1,
                         costs: MeasuredCosts | None = None,
                         atm: AtmosphereCost | None = None,
                         ocn: OceanCost | None = None,
                         imbalance: float = 0.10,
                         seed: int = 0,
                         schedule: str = "lagged") -> SimulationResult:
    """Simulate one coupled simulated day; returns traces + throughput.

    ``costs`` is the per-section record the day replays, measured
    (:func:`repro.perf.costmodel.calibrate_from_profile`) or, by default,
    the modeled SP2's for this layout
    (:func:`repro.perf.costmodel.analytic_costs`).  Cadence (steps per day,
    coupling interval, decomposition limits) comes from ``atm`` and
    ``ocn``.  The costs as used are reported on
    ``SimulationResult.per_step_costs``.

    ``schedule`` is one of two:

    * ``"lagged"`` — FOAM's 1997 schedule: the coupler runs in line on the
      atmosphere ranks, divided across them, and consumes the ocean's SST
      one full coupling interval after the call starts, so an ocean that
      keeps up is hidden entirely;
    * ``"sync"`` — the concurrent schedule of ``repro.parallel.coupled``:
      the coupler runs on its own rank with only
      ``costs.coupler_exposed_seconds`` on the atmosphere's critical path,
      and the SST is needed at the step right after each boundary, so only
      ``costs.dynamics_seconds`` of the ocean call hides under atmosphere
      compute; the rest is an atmosphere wait at the boundary.
    """
    if schedule not in ("lagged", "sync"):
        raise ValueError(f"unknown schedule {schedule!r}")
    atm = atm or AtmosphereCost()
    ocn = ocn or OceanCost()
    if costs is None:
        costs = analytic_costs(n_atm_ranks, n_ocn_ranks, atm, ocn)
    if schedule == "sync":
        coupler_time = costs.coupler_exposed_seconds
        overlap = costs.dynamics_seconds
    else:
        coupler_time = costs.coupler_seconds / n_atm_ranks
        overlap = 0.0
    rng = np.random.default_rng(seed)

    nsteps = atm.steps_per_day()
    radiation_steps = {0, nsteps // 2}
    steps_per_coupling = int(round(ocn.dt_long / atm.dt))
    eff = atmosphere_parallel_efficiency(n_atm_ranks, atm.nlat)

    atm_traces = [RankTrace(rank=r) for r in range(n_atm_ranks)]
    ocn_traces = [RankTrace(rank=n_atm_ranks + r) for r in range(n_ocn_ranks)]

    t = 0.0                       # global atmosphere clock (lockstep)
    ocean_busy_until = 0.0        # when the ocean ranks finish their call
    ocean_work_start = None

    for k in range(nsteps):
        step_total = (costs.radiation_step_seconds if k in radiation_steps
                      else costs.step_seconds)
        base = step_total / (n_atm_ranks * eff)
        # Cloud-driven imbalance: each rank's compute differs (Fig 2).
        comp = base * (1.0 + imbalance * rng.uniform(-1.0, 1.0, n_atm_ranks))
        comp_end = t + comp
        sync_at = float(comp_end.max()) + costs.transpose_seconds

        for r, tr in enumerate(atm_traces):
            tr.record(t, float(comp_end[r]), "atmosphere")
            if comp_end[r] < sync_at:
                tr.record(float(comp_end[r]), sync_at, "idle")
            tr.record(sync_at, sync_at + coupler_time, "coupler")
        t = sync_at + coupler_time

        # Coupling boundary: hand a 6-hour call to the ocean ranks; if the
        # previous call hasn't finished, the whole atmosphere waits for it.
        if (k + 1) % steps_per_coupling == 0:
            if ocean_busy_until > t:
                wait_until = ocean_busy_until
                for tr in atm_traces:
                    tr.record(t, wait_until, "idle")
                t = wait_until
            # Close out the previous ocean busy period in the ocean traces.
            if ocean_work_start is not None:
                for tr in ocn_traces:
                    tr.record(ocean_work_start, ocean_busy_until, "ocean")
                    if ocean_busy_until < t:
                        tr.record(ocean_busy_until, t, "idle")
            elif t > 0:
                for tr in ocn_traces:
                    tr.record(0.0, t, "idle")
            ocean_work_start = t
            ocean_busy_until = t + costs.ocean_call_seconds
            if schedule == "sync":
                # The coupler needs this call's SST at the very next step:
                # what the overlap window cannot hide stalls the atmosphere
                # right at the boundary.
                wait = max(0.0, costs.ocean_call_seconds - overlap)
                if wait > 0.0:
                    for tr in atm_traces:
                        tr.record(t, t + wait, "idle")
                    t += wait

    # Drain the final ocean call.
    if ocean_work_start is not None:
        end = max(t, ocean_busy_until)
        for tr in ocn_traces:
            tr.record(ocean_work_start, ocean_busy_until, "ocean")
            if ocean_busy_until < end:
                tr.record(ocean_busy_until, end, "idle")
        if ocean_busy_until > t:
            for tr in atm_traces:
                tr.record(t, ocean_busy_until, "idle")
        t = end

    per_step_costs = {
        "step_seconds": costs.step_seconds,
        "radiation_step_seconds": costs.radiation_step_seconds,
        "coupler_seconds": costs.coupler_seconds,
        "coupler_exposed_seconds": costs.coupler_exposed_seconds,
        "transpose_seconds": costs.transpose_seconds,
        "ocean_call_seconds": costs.ocean_call_seconds,
        "schedule": schedule,
        "overlap_seconds": overlap,
        "source": costs.source,
    }
    return SimulationResult(traces=TraceSet(atm_traces + ocn_traces),
                            wall_seconds=t, simulated_seconds=86400.0,
                            n_atm_ranks=n_atm_ranks, n_ocn_ranks=n_ocn_ranks,
                            per_step_costs=per_step_costs)


def simulate_serial_day(costs: MeasuredCosts | None = None,
                        atm: AtmosphereCost | None = None,
                        ocn: OceanCost | None = None) -> SimulationResult:
    """Simulate one coupled day on a single rank (everything inline).

    The baseline the concurrent pool-split is judged against: one rank runs
    every atmosphere step, the full coupler each step, and the ocean call
    inline at each coupling boundary — no transpose, no overlap, no waits.
    ``costs`` defaults to the modeled SP2's single-node record.
    """
    atm = atm or AtmosphereCost()
    ocn = ocn or OceanCost()
    if costs is None:
        costs = analytic_costs(1, 1, atm, ocn)
    nsteps = atm.steps_per_day()
    radiation_steps = {0, nsteps // 2}
    steps_per_coupling = int(round(ocn.dt_long / atm.dt))

    tr = RankTrace(rank=0)
    t = 0.0
    for k in range(nsteps):
        comp = (costs.radiation_step_seconds if k in radiation_steps
                else costs.step_seconds)
        tr.record(t, t + comp, "atmosphere")
        t += comp
        tr.record(t, t + costs.coupler_seconds, "coupler")
        t += costs.coupler_seconds
        if (k + 1) % steps_per_coupling == 0:
            tr.record(t, t + costs.ocean_call_seconds, "ocean")
            t += costs.ocean_call_seconds
    per_step_costs = {
        "step_seconds": costs.step_seconds,
        "radiation_step_seconds": costs.radiation_step_seconds,
        "coupler_seconds": costs.coupler_seconds,
        "transpose_seconds": 0.0,
        "ocean_call_seconds": costs.ocean_call_seconds,
        "schedule": "serial",
        "source": costs.source,
    }
    return SimulationResult(traces=TraceSet([tr]), wall_seconds=t,
                            simulated_seconds=86400.0,
                            n_atm_ranks=1, n_ocn_ranks=0,
                            per_step_costs=per_step_costs)


def predict_concurrent_speedup(serial: MeasuredCosts,
                               concurrent: MeasuredCosts,
                               n_atm_ranks: int,
                               atm: AtmosphereCost | None = None,
                               ocn: OceanCost | None = None) -> dict:
    """Event-simulator prediction of the concurrent pool-split speedup.

    Both come from :func:`repro.perf.costmodel.calibrate_from_profile`:
    ``serial`` over a profiled serial ``run_days``, ``concurrent`` over the
    summed per-rank spans of a profiled ``run_concurrent_coupled`` (one
    coupler and one ocean rank).  The serial one is replayed inline on one
    rank, the concurrent one on the ``"sync"`` schedule, and the ratio of
    the simulated walls is the predicted speedup.

    Returns a JSON-friendly dict: ``serial_wall_seconds`` /
    ``concurrent_wall_seconds`` / ``speedup`` plus the concurrent run's
    ``per_step_costs``.
    """
    serial_sim = simulate_serial_day(serial, atm, ocn)
    concurrent_sim = simulate_coupled_day(n_atm_ranks, 1, concurrent, atm, ocn,
                                          imbalance=0.0, schedule="sync")
    return {
        "serial_wall_seconds": serial_sim.wall_seconds,
        "concurrent_wall_seconds": concurrent_sim.wall_seconds,
        "speedup": serial_sim.wall_seconds / concurrent_sim.wall_seconds,
        "per_step_costs": concurrent_sim.per_step_costs,
    }


def simulate_ocean_day(n_ranks: int) -> SimulationResult:
    """Stand-alone ocean throughput on the modeled SP2 (experiment E6:
    >105,000x on 64 nodes)."""
    machine = ibm_sp2()
    ocn = OceanCost()
    traces = [RankTrace(rank=r) for r in range(n_ranks)]
    t = 0.0
    # 2-D decomposition: near-perfect compute scaling, communication from
    # halo exchanges each call (latency-bound at small local domains).
    for _ in range(ocn.calls_per_day()):
        comp = machine.compute_time(ocn.call_ops() / n_ranks)
        comm = 0.0
        if n_ranks > 1:
            per_rank_halo = ocn.halo_bytes() / np.sqrt(n_ranks)
            # Subcycled internal+barotropic exchanges dominate message count.
            n_messages = 4 * ocn.n_internal * (1 + ocn.barotropic_substeps)
            comm = n_messages * machine.message_time(per_rank_halo)
        for tr in traces:
            tr.record(t, t + comp + comm, "ocean")
        t += comp + comm
    return SimulationResult(traces=TraceSet(traces), wall_seconds=t,
                            simulated_seconds=86400.0,
                            n_atm_ranks=0, n_ocn_ranks=n_ranks)


def scaling_curve(node_counts) -> dict[int, float]:
    """Coupled speedup vs total node count (experiments E5/E10), with the
    paper's practice of one ocean rank per 16 atmosphere ranks."""
    out = {}
    for n in node_counts:
        n_ocn = max(1, round(n / 17))
        n_atm = n - n_ocn
        if n_atm < 1:
            raise ValueError(f"{n} nodes leaves no atmosphere ranks")
        out[n] = simulate_coupled_day(n_atm, n_ocn).speedup
    return out
