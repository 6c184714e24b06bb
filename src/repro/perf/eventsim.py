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
    CouplerCost,
    MeasuredCosts,
    OceanCost,
    transpose_bytes_from_stats,
)
from repro.perf.machine import MachineModel, ibm_sp2


@dataclass
class SimulationResult:
    """Output of one simulated run."""

    traces: TraceSet
    wall_seconds: float          # makespan for the simulated duration
    simulated_seconds: float
    n_atm_ranks: int
    n_ocn_ranks: int
    # Resolved per-section costs the run was driven by (analytic or measured):
    # step/radiation-step/coupler/transpose/ocean-call seconds, single rank.
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
                         machine: MachineModel | None = None,
                         atm: AtmosphereCost | None = None,
                         ocn: OceanCost | None = None,
                         cpl: CouplerCost | None = None,
                         imbalance: float = 0.10,
                         seed: int = 0,
                         transpose_comm=None,
                         measured: MeasuredCosts | None = None,
                         schedule: str = "lagged",
                         coupler_offloaded: bool = False,
                         overlap_seconds: float = 0.0) -> SimulationResult:
    """Simulate one coupled simulated day; returns traces + throughput.

    ``transpose_comm`` optionally supplies measured per-rank
    :class:`~repro.parallel.procmpi.CommStats` from a real distributed
    transpose (``repro.parallel.components.measure_transpose_comm``); the
    per-step transpose cost is then charged from the *measured* byte volume
    instead of the analytic ``AtmosphereCost.transpose_bytes()`` formula,
    and the stats are attached to the returned ``TraceSet.comm``.

    ``measured`` optionally supplies wall-clock section costs from a real
    profiled run (:func:`repro.perf.costmodel.calibrate_from_profile`); the
    atmosphere-step, radiation-step, coupler, and ocean-call costs are then
    the *measured* seconds (divided across ranks exactly as op counts would
    be) instead of machine-model analytic constants.  Cadence (steps per
    day, coupling interval, decomposition limits) still comes from ``atm``
    and ``ocn``.  The resolved costs are reported on
    ``SimulationResult.per_step_costs`` either way.

    The concurrent-coupled schedule of ``repro.parallel.coupled`` is modeled
    by three knobs:

    * ``schedule="sync"`` — the coupler consumes the ocean's SST at the step
      right after each boundary (instead of one full coupling interval later,
      the classic FOAM "lagged" schedule), so only ``overlap_seconds`` of the
      ocean call is hidden under atmosphere compute; the remainder is charged
      as an atmosphere wait at the boundary.
    * ``coupler_offloaded=True`` — coupler work runs on a dedicated rank
      concurrently with the atmosphere; only the part exceeding
      ``overlap_seconds`` is exposed on the atmosphere's critical path
      (instead of dividing the coupler across atmosphere ranks).
    * ``overlap_seconds`` — the per-step window of atmosphere compute that
      concurrent coupler/ocean work can hide under (calibrate it from a
      measured ``MeasuredCosts.dynamics_seconds``).
    """
    if schedule not in ("lagged", "sync"):
        raise ValueError(f"unknown schedule {schedule!r}")
    machine = machine or ibm_sp2()
    atm = atm or AtmosphereCost()
    ocn = ocn or OceanCost()
    cpl = cpl or CouplerCost()
    if measured is not None and measured.item_bytes != atm.item_bytes:
        # The profiled run's precision sets the communication element size
        # (e.g. a float32 run halves the analytic transpose/halo volumes).
        from dataclasses import replace
        atm = replace(atm, item_bytes=measured.item_bytes)
        ocn = replace(ocn, item_bytes=measured.item_bytes)
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

    if measured is not None:
        coupler_full = measured.coupler_seconds
        step_seconds = measured.step_seconds
        radiation_step_seconds = measured.radiation_step_seconds
        ocean_call_seconds = measured.ocean_call_seconds
    else:
        coupler_full = machine.compute_time(cpl.step_ops())
        step_seconds = machine.compute_time(atm.step_ops(radiation=False))
        radiation_step_seconds = machine.compute_time(atm.step_ops(radiation=True))
        ocean_call_seconds = machine.compute_time(ocn.call_ops())
    if coupler_offloaded:
        # Dedicated coupler rank: the serially-dependent slice (measured as
        # coupler_exposed_seconds when available) stays on the atmosphere's
        # clock; the rest hides under the overlap window.
        exposed = getattr(measured, "coupler_exposed_seconds", None) \
            if measured is not None else None
        if exposed is not None:
            coupler_time = exposed
        else:
            coupler_time = max(0.0, coupler_full - overlap_seconds)
    else:
        coupler_time = coupler_full / n_atm_ranks
    if measured is not None and (measured.transpose_seconds > 0.0
                                 or schedule == "sync"):
        # A sync-schedule (concurrent) run replicates spectral state instead
        # of transposing it, so a measured zero really means zero.
        transpose_time = measured.transpose_seconds
    else:
        if transpose_comm is not None:
            transpose_volume = transpose_bytes_from_stats(transpose_comm)
        else:
            transpose_volume = atm.transpose_bytes()
        transpose_time = machine.alltoall_time(n_atm_ranks, transpose_volume)
    per_step_costs = {
        "step_seconds": step_seconds,
        "radiation_step_seconds": radiation_step_seconds,
        "coupler_seconds": coupler_full,
        "coupler_exposed_seconds": (coupler_time if coupler_offloaded
                                    else coupler_full),
        "transpose_seconds": transpose_time,
        "ocean_call_seconds": ocean_call_seconds,
        "schedule": schedule,
        "overlap_seconds": overlap_seconds,
        "source": measured.source if measured is not None else "analytic",
    }

    for k in range(nsteps):
        step_total = (radiation_step_seconds if k in radiation_steps
                      else step_seconds)
        base = step_total / (n_atm_ranks * eff)
        # Cloud-driven imbalance: each rank's compute differs (Fig 2).
        comp = base * (1.0 + imbalance * rng.uniform(-1.0, 1.0, n_atm_ranks))
        comp_end = t + comp
        sync_at = float(comp_end.max()) + transpose_time

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
            ocean_call = ocean_call_seconds / n_ocn_ranks
            if n_ocn_ranks > 1:
                ocean_call += 4 * machine.message_time(ocn.halo_bytes())
            ocean_work_start = t
            ocean_busy_until = t + ocean_call
            if schedule == "sync":
                # Synchronous SST consumption: the coupler needs this call's
                # SST at the very next step, so only ``overlap_seconds`` of
                # the call hides under atmosphere compute; the rest stalls
                # the atmosphere right at the boundary.
                wait = max(0.0, ocean_call - overlap_seconds)
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

    traces = TraceSet(atm_traces + ocn_traces)
    if transpose_comm is not None:
        traces.attach_comm(transpose_comm)
    return SimulationResult(traces=traces, wall_seconds=t,
                            simulated_seconds=86400.0,
                            n_atm_ranks=n_atm_ranks, n_ocn_ranks=n_ocn_ranks,
                            per_step_costs=per_step_costs)


def simulate_serial_day(machine: MachineModel | None = None,
                        atm: AtmosphereCost | None = None,
                        ocn: OceanCost | None = None,
                        cpl: CouplerCost | None = None,
                        measured: MeasuredCosts | None = None,
                        seed: int = 0) -> SimulationResult:
    """Simulate one coupled day on a single rank (everything inline).

    The baseline the concurrent pool-split is judged against: one rank runs
    every atmosphere step, the full coupler each step, and the ocean call
    inline at each coupling boundary — no transpose, no overlap, no waits.
    """
    machine = machine or ibm_sp2()
    atm = atm or AtmosphereCost()
    ocn = ocn or OceanCost()
    cpl = cpl or CouplerCost()
    nsteps = atm.steps_per_day()
    radiation_steps = {0, nsteps // 2}
    steps_per_coupling = int(round(ocn.dt_long / atm.dt))

    if measured is not None:
        coupler_time = measured.coupler_seconds
        step_seconds = measured.step_seconds
        radiation_step_seconds = measured.radiation_step_seconds
        ocean_call_seconds = measured.ocean_call_seconds
    else:
        coupler_time = machine.compute_time(cpl.step_ops())
        step_seconds = machine.compute_time(atm.step_ops(radiation=False))
        radiation_step_seconds = machine.compute_time(atm.step_ops(radiation=True))
        ocean_call_seconds = machine.compute_time(ocn.call_ops())

    tr = RankTrace(rank=0)
    t = 0.0
    for k in range(nsteps):
        comp = (radiation_step_seconds if k in radiation_steps
                else step_seconds)
        tr.record(t, t + comp, "atmosphere")
        t += comp
        tr.record(t, t + coupler_time, "coupler")
        t += coupler_time
        if (k + 1) % steps_per_coupling == 0:
            tr.record(t, t + ocean_call_seconds, "ocean")
            t += ocean_call_seconds
    per_step_costs = {
        "step_seconds": step_seconds,
        "radiation_step_seconds": radiation_step_seconds,
        "coupler_seconds": coupler_time,
        "transpose_seconds": 0.0,
        "ocean_call_seconds": ocean_call_seconds,
        "schedule": "serial",
        "source": measured.source if measured is not None else "analytic",
    }
    return SimulationResult(traces=TraceSet([tr]), wall_seconds=t,
                            simulated_seconds=86400.0,
                            n_atm_ranks=1, n_ocn_ranks=0,
                            per_step_costs=per_step_costs)


def predict_concurrent_speedup(serial: MeasuredCosts,
                               concurrent: MeasuredCosts,
                               n_atm_ranks: int,
                               n_ocn_ranks: int = 1,
                               atm: AtmosphereCost | None = None,
                               ocn: OceanCost | None = None,
                               cpl: CouplerCost | None = None,
                               machine: MachineModel | None = None) -> dict:
    """Event-simulator prediction of the concurrent pool-split speedup.

    Both come from :func:`repro.perf.costmodel.calibrate_from_profile`:
    ``serial`` over a profiled serial ``run_days``, ``concurrent`` over the
    summed per-rank spans of a profiled ``run_concurrent_coupled``.  Both runs
    are replayed on the event simulator (the serial one inline on one rank,
    the concurrent one with the sync schedule, an offloaded coupler, and the
    measured per-step dynamics window as the overlap budget) and the ratio of
    the simulated walls is the predicted speedup —  compared against the
    functional walls by ``tests/test_coupled_concurrent.py``.

    Returns a JSON-friendly dict: ``serial_wall_seconds`` /
    ``concurrent_wall_seconds`` / ``speedup`` plus the concurrent run's
    resolved ``per_step_costs``.
    """
    serial_sim = simulate_serial_day(machine=machine, atm=atm, ocn=ocn,
                                     cpl=cpl, measured=serial)
    concurrent_sim = simulate_coupled_day(
        n_atm_ranks, n_ocn_ranks, machine=machine, atm=atm, ocn=ocn, cpl=cpl,
        imbalance=0.0, measured=concurrent, schedule="sync",
        coupler_offloaded=True,
        overlap_seconds=concurrent.dynamics_seconds)
    return {
        "serial_wall_seconds": serial_sim.wall_seconds,
        "concurrent_wall_seconds": concurrent_sim.wall_seconds,
        "speedup": serial_sim.wall_seconds / concurrent_sim.wall_seconds,
        "per_step_costs": concurrent_sim.per_step_costs,
    }


def simulate_ocean_day(n_ranks: int, machine: MachineModel | None = None,
                       ocn: OceanCost | None = None) -> SimulationResult:
    """Stand-alone ocean throughput (experiment E6: >105,000x on 64 nodes)."""
    machine = machine or ibm_sp2()
    ocn = ocn or OceanCost()
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


def scaling_curve(node_counts, ocean_ranks_for=None, **kwargs) -> dict[int, float]:
    """Coupled speedup vs total node count (experiments E5/E10).

    ``ocean_ranks_for``: mapping from total nodes to dedicated ocean ranks;
    the paper's practice is 1 ocean rank per 16 atmosphere ranks.
    """
    out = {}
    for n in node_counts:
        n_ocn = (ocean_ranks_for or {}).get(n, max(1, round(n / 17)))
        n_atm = n - n_ocn
        if n_atm < 1:
            raise ValueError(f"{n} nodes leaves no atmosphere ranks")
        res = simulate_coupled_day(n_atm, n_ocn, **kwargs)
        out[n] = res.speedup
    return out
