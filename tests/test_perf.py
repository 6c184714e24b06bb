"""Tests for the performance model (machine, costs, event simulator, CSM)."""

import numpy as np
import pytest

from repro.parallel.trace import TraceSet
from repro.perf.costmodel import (
    AtmosphereCost,
    OceanCost,
    atmosphere_ocean_cost_ratio,
)
from repro.perf.csm import CSMCostModel, cost_performance_ratio
from repro.perf.eventsim import (
    atmosphere_parallel_efficiency,
    scaling_curve,
    simulate_coupled_day,
    simulate_ocean_day,
)
from repro.perf.machine import ibm_sp2


# ------------------------------------------------------------- machine
def test_machine_times():
    m = ibm_sp2()
    assert m.compute_time(25.0e6) == pytest.approx(1.0)
    assert m.message_time(0.0) == pytest.approx(m.latency)
    assert m.alltoall_time(1, 1e6) == 0.0
    assert m.alltoall_time(4, 1e6) > 3 * m.latency
    with pytest.raises(ValueError):
        m.compute_time(-1.0)


# ------------------------------------------------------------- cost model
def test_atmosphere_is_physics_dominated():
    """Paper: the difference in execution time is 'attributable to the
    relatively complicated atmospheric physics code'."""
    atm = AtmosphereCost()
    assert atm.physics_ops() > 3 * atm.dynamics_ops()


def test_radiation_steps_much_longer():
    atm = AtmosphereCost()
    assert atm.step_ops(radiation=True) > 5 * atm.step_ops(radiation=False)


def test_cost_cube_law():
    """E11: halving the grid spacing costs ~8x per simulated time."""
    coarse = AtmosphereCost(nlat=32, nlon=64, mmax=21, dt=2400.0)
    fine = AtmosphereCost(nlat=64, nlon=128, mmax=42, dt=1200.0)
    ratio = fine.day_ops() / coarse.day_ops()
    assert 6.0 < ratio < 11.0


def test_paper_cost_ratio_atm_ocn():
    """E7: R15 atmosphere ~ 16x the 128x128 ocean per simulated time."""
    ratio = atmosphere_ocean_cost_ratio()
    assert 12.0 < ratio < 24.0


def test_ocean_formulation_tenfold():
    """E9 (model level): conventional ocean needs ~10x the operations."""
    ocn = OceanCost()
    ratio = ocn.conventional_day_ops() / ocn.day_ops()
    assert 7.0 < ratio < 14.0


# ------------------------------------------------------------- efficiency
def test_efficiency_perfect_below_half_lat():
    assert atmosphere_parallel_efficiency(16, 40) == 1.0
    assert atmosphere_parallel_efficiency(20, 40) == 1.0


def test_efficiency_degrades_at_decomposition_limit():
    e32 = atmosphere_parallel_efficiency(32, 40)
    e40 = atmosphere_parallel_efficiency(40, 40)
    e66 = atmosphere_parallel_efficiency(66, 40)
    assert 1.0 > e32 > e40 > e66
    with pytest.raises(ValueError):
        atmosphere_parallel_efficiency(0, 40)


# ------------------------------------------------------------- event sim
def test_simulated_day_produces_valid_traces():
    res = simulate_coupled_day(8, 1, seed=1)
    assert isinstance(res.traces, TraceSet)
    assert res.traces.nranks == 9
    assert res.wall_seconds > 0
    assert res.speedup > 100
    # Every rank's trace spans to (near) the makespan.
    for tr in res.traces.traces[:8]:
        assert tr.end_time == pytest.approx(res.traces.makespan, rel=0.05)


def test_figure2_breakdown_structure():
    """Figure 2: mostly atmosphere, some coupler, a sliver of ocean, idle."""
    res = simulate_coupled_day(16, 1, seed=0)
    b = res.traces.breakdown()
    assert b["atmosphere"] > 0.5
    assert 0.0 < b["coupler"] < 0.2
    assert 0.0 < b["ocean"] < 0.15
    assert 0.0 < b["idle"] < 0.4
    assert sum(b.values()) == pytest.approx(1.0, abs=1e-6)


def test_one_ocean_rank_keeps_up_with_16_but_not_32():
    """The paper's Figure 2 observation, reproduced quantitatively.

    With zero load imbalance, atmosphere idle comes only from waiting on
    the ocean.  Every run pays one unavoidable end-of-day drain of the
    final ocean call; *mid-day* waits appear only when the ocean cannot
    keep pace.
    """
    def atm_idle_per_rank(n_atm):
        res = simulate_coupled_day(n_atm, 1, seed=0, imbalance=0.0)
        total = sum(tr.time_in("idle") for tr in res.traces.traces[:n_atm])
        return total / n_atm

    ocean_call = simulate_ocean_day(1).wall_seconds / 4.0
    # 16 atm ranks: only the final drain (~ one ocean call) shows up.
    assert atm_idle_per_rank(16) < 1.5 * ocean_call
    # 32 atm ranks: the ocean falls behind at every coupling boundary.
    assert atm_idle_per_rank(32) > 2.0 * ocean_call


def test_radiation_steps_visible_in_trace():
    """The two long atmosphere segments of Fig 2 (radiation) are present."""
    res = simulate_coupled_day(4, 1, seed=0, imbalance=0.0)
    seg_lengths = [s.duration for s in res.traces.traces[0].segments
                   if s.activity == "atmosphere"]
    longest = sorted(seg_lengths)[-2:]
    typical = np.median(seg_lengths)
    assert all(s > 5 * typical for s in longest)


def test_paper_speedup_anchors():
    """E5: ~4,000x at 34 nodes, ~6,000x at 68 with a pronounced knee."""
    curve = scaling_curve([34, 68])
    assert 3500 < curve[34] < 6000
    assert 5000 < curve[68] < 8000
    # Poor 34 -> 68 scaling: far below the 2x of perfect scaling.
    assert curve[68] / curve[34] < 1.6


def test_near_linear_atm_scaling_8_16_32():
    """E10: 'almost linear scaling on 8, 16, and 32 atmosphere processors'.

    Uses the paper's production allocation: one ocean rank per ~16
    atmosphere ranks (17- and 34-node runs)."""
    s = {n_atm: simulate_coupled_day(n_atm, n_ocn, seed=0).speedup
         for n_atm, n_ocn in ((8, 1), (16, 1), (32, 2))}
    assert 1.6 < s[16] / s[8] <= 2.05
    assert 1.6 < s[32] / s[16] <= 2.05


def test_ocean_throughput_anchor():
    """E6: ocean alone > 100,000x real time on 64 nodes."""
    res = simulate_ocean_day(64)
    assert res.speedup > 100_000
    assert simulate_ocean_day(1).speedup < res.speedup


def test_scaling_curve_validates_nodes():
    with pytest.raises(ValueError):
        scaling_curve([1], ocean_ranks_for={1: 1})


# ------------------------------------------------------------- CSM baseline
def test_csm_about_one_third_of_foam():
    """E8: 'CSM ... accomplishes only a third of FOAM's maximum throughput'."""
    foam_max = scaling_curve([68])[68]
    csm = CSMCostModel().throughput(16)
    assert 2.0 < foam_max / csm < 4.5


def test_cost_performance_more_than_tenfold():
    """E8: cost per unit performance > 10x better than the C90 baseline."""
    foam_max = scaling_curve([68])[68]
    assert cost_performance_ratio(foam_max, 68) > 10.0


def test_csm_capped_at_machine_size():
    csm = CSMCostModel()
    assert csm.throughput(64) == csm.throughput(16)


def test_trace_ascii_rendering():
    res = simulate_coupled_day(4, 1, seed=0)
    art = res.traces.render_ascii(width=60)
    lines = art.splitlines()
    assert len(lines) == 5
    assert "A" in art and "O" in art


# ------------------------------------------- CommStats-calibrated timing
def test_eventsim_accepts_measured_transpose_comm():
    """ISSUE 2 acceptance: eventsim driven by a CommStats-derived message
    volume (measured on the real distributed transpose) must land within
    10% of the analytic-formula throughput."""
    pytest.importorskip("repro.parallel.components")
    from repro.parallel.components import measure_transpose_comm
    from repro.perf.costmodel import transpose_bytes_from_stats

    atm = AtmosphereCost()
    stats = measure_transpose_comm(4, nlat=atm.nlat, nm=atm.mmax + 1,
                                   nlev=atm.nlev)
    # fwd+back pairwise
    assert sum(n for s in stats for op, n in s.op_msgs.items()
               if op.startswith("transpose")) == 2 * 4 * 3
    # The per-rank counters came back from four processes, each with its
    # rank's share of the transpose bytes.
    assert all(s.bytes_for("transpose") > 0 for s in stats)

    measured = transpose_bytes_from_stats(stats)
    analytic = atm.transpose_bytes()
    assert measured == pytest.approx(analytic, rel=0.10)

    base = simulate_coupled_day(8, 1, seed=0)
    calibrated = simulate_coupled_day(8, 1, seed=0, transpose_comm=stats)
    assert calibrated.speedup == pytest.approx(base.speedup, rel=0.10)
    # The measured stats ride along on the trace set.
    assert calibrated.traces.comm is not None
    assert sum(s.msgs_sent for s in calibrated.traces.comm) > 0
    assert sum(s.bytes_sent for s in calibrated.traces.comm) > 0
    assert any(op.startswith("transpose")
               for s in calibrated.traces.comm for op in s.op_msgs)


def test_measured_transpose_volume_rank_count_invariant():
    """The full-exchange estimate must not depend on the measuring world."""
    from repro.parallel.components import measure_transpose_comm
    from repro.perf.costmodel import transpose_bytes_from_stats

    volumes = [transpose_bytes_from_stats(
        measure_transpose_comm(k, nlat=16, nm=8, nlev=3)) for k in (2, 4)]
    assert volumes[0] == pytest.approx(volumes[1], rel=1e-12)


# --------------------------------------- profile-calibrated timing (ISSUE 3)
def test_measured_costs_validation():
    from repro.perf.costmodel import MeasuredCosts

    mc = MeasuredCosts(step_seconds=0.01, radiation_step_seconds=0.02,
                       coupler_seconds=0.003, ocean_call_seconds=0.013)
    assert mc.transpose_seconds == 0.0
    with pytest.raises(ValueError):
        MeasuredCosts(step_seconds=0.0, radiation_step_seconds=0.02,
                      coupler_seconds=0.003, ocean_call_seconds=0.013)


def test_calibrate_from_profile_requires_instrumented_run():
    from repro.perf.costmodel import calibrate_from_profile
    from repro.perf.profiler import RunProfile

    with pytest.raises(ValueError, match=r"atmosphere\.dynamics"):
        calibrate_from_profile(RunProfile(label="empty"))


def test_calibrated_eventsim_reproduces_measured_ordering():
    """ISSUE 3 acceptance: `calibrate_from_profile()`-driven
    `simulate_coupled_day` reproduces the measured section ordering —
    radiation steps costlier than ordinary steps, transpose nonzero."""
    from repro.core.config import test_config
    from repro.core.foam import FoamModel
    from repro.parallel.components import measure_transpose_comm
    from repro.perf.costmodel import calibrate_from_profile
    from repro.perf.profiler import (
        disable_profiling,
        enable_profiling,
        take_profile,
    )

    model = FoamModel(test_config())
    state = model.initial_state()
    prof = enable_profiling()
    prof.reset()
    try:
        # One coupling interval: includes the step-0 radiation pass and one
        # ocean call; plus one distributed transpose for the comm sections.
        for _ in range(model.config.atm_steps_per_coupling):
            state = model.coupled_step(state)
        measure_transpose_comm(4, nlat=model.config.atm_nlat,
                               nm=model.config.atm_mmax + 1,
                               nlev=model.config.atm_nlev)
    finally:
        disable_profiling()
    profile = take_profile("measured coupled interval")

    mc = calibrate_from_profile(profile)
    # Measured ordering: radiation steps cost strictly more than ordinary
    # ones, and the distributed transpose has a nonzero measured cost.
    assert mc.radiation_step_seconds > mc.step_seconds > 0.0
    assert mc.transpose_seconds > 0.0
    assert mc.ocean_call_seconds > 0.0
    assert mc.coupler_seconds > 0.0

    res = simulate_coupled_day(8, 1, seed=0, imbalance=0.0, measured=mc)
    costs = res.per_step_costs
    assert costs["source"] == "measured coupled interval"
    assert costs["radiation_step_seconds"] > costs["step_seconds"]
    assert costs["transpose_seconds"] == pytest.approx(mc.transpose_seconds)
    assert res.wall_seconds > 0 and res.speedup > 0

    # With no imbalance, the radiation step (k=0) must show up as a longer
    # atmosphere segment than the ordinary step that follows it.
    atm_segments = [s for s in res.traces.traces[0].segments
                    if s.activity == "atmosphere"]
    assert atm_segments[0].duration > atm_segments[1].duration


def test_eventsim_reports_per_step_costs_in_analytic_mode():
    res = simulate_coupled_day(8, 1, seed=0)
    costs = res.per_step_costs
    assert costs["source"] == "analytic"
    assert costs["radiation_step_seconds"] > costs["step_seconds"] > 0
    assert costs["transpose_seconds"] > 0
    assert costs["ocean_call_seconds"] > 0
