"""Concurrent coupled execution on disjoint rank pools (paper Figure 2).

FOAM's headline throughput comes from running the atmosphere and ocean
*simultaneously* on disjoint processor pools, with a lightweight coupler
overlapping the ocean's 6-hour integration under the next atmosphere
steps.  This module makes that schedule functional on the simulated-MPI
layer: :func:`run_concurrent_coupled` lays one world communicator out as

* an **atmosphere pool** (``layout.n_atm`` ranks, world ranks 0 …
  n_atm − 1) holding a replicated spectral state: each rank runs column
  physics on its own latitude band (physics is column-local, so bands are
  bitwise rows of the full-grid run), swaps the band tendencies with the
  other atmosphere ranks point to point, and redundantly applies the cheap
  spectral update + dynamics;
* a **coupler rank** owning the coupler state (land/hydrology/river/ice
  and the ocean-forcing window), exchanging only overlap-grid payloads
  with the atmosphere and ocean ranks via tagged sends;
* an **ocean rank** running the 6-hour ocean call *under* the
  atmosphere's boundary-step dynamics and the next step's diagnostics —
  the coupler asks for the fresh SST lazily, right before the first step
  that needs it.  The paper's multi-processor ocean lives in the machine
  model (:mod:`repro.perf.eventsim`); the functional ocean step is not
  decomposed.

The exchange epochs are exactly the serial :meth:`FoamModel.coupled_step`
ones, so the float64 trajectory is bitwise comparable to the serial run
(the equivalence tests assert array equality, not just 1e-12 closeness).

When the caller is profiling, the spans each rank process recorded in its
stepping loop come home with its result (``run_ranks`` absorbs them into
the caller's profiler); that summed profile calibrates the event
simulator's concurrent-schedule prediction
(:func:`repro.perf.eventsim.predict_concurrent_speedup`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.backend import workspace_totals
from repro.parallel.decomp import block_bounds
from repro.parallel.procmpi import Comm, CommStats, run_ranks
from repro.util.tree import tree_map

# Exchange tags.
TAG_ATM_STATE = 210    # atm leader -> coupler: bottom-level state fields
TAG_SURFACE = 211      # coupler -> every atm rank: surface state + fluxes
TAG_ATM_PHYS = 212     # atm leader -> coupler: precip + surface radiation
TAG_FORCING = 213      # coupler -> ocean rank: window-mean forcing
TAG_SST = 214          # ocean rank -> coupler: fresh SST after each call
TAG_BANDS = 215        # atm rank -> every other atm rank: band tendencies


@dataclass(frozen=True)
class PoolLayout:
    """World layout: ranks [0, n_atm) atmosphere, n_atm coupler, n_atm + 1
    ocean."""

    n_atm: int = 2

    def __post_init__(self):
        if self.n_atm < 1:
            raise ValueError(f"need >= 1 atmosphere rank, got {self.n_atm}")

    @property
    def world_size(self) -> int:
        return self.n_atm + 2

    @property
    def atm_ranks(self) -> tuple[int, ...]:
        return tuple(range(self.n_atm))

    @property
    def cpl_rank(self) -> int:
        return self.n_atm

    @property
    def ocn_rank(self) -> int:
        return self.n_atm + 1

    def role_of(self, rank: int) -> str:
        if 0 <= rank < self.n_atm:
            return "atm"
        if rank == self.cpl_rank:
            return "cpl"
        if rank == self.ocn_rank:
            return "ocn"
        raise ValueError(f"rank {rank} outside world of size {self.world_size}")


@dataclass
class ConcurrentCoupledResult:
    """Everything a concurrent coupled run produced, assembled world-side."""

    state: object                      # FoamState (atm from pool, ocn/cpl owners)
    nsteps: int
    layout: PoolLayout
    wall_seconds: float                # max per-rank loop wall (post-barrier)
    rank_walls: list[float]
    waits: dict[str, float]            # blocking-recv seconds by payload kind
    rank_waits: list[dict]
    comm_stats: list[CommStats] = field(default_factory=list)
    sst: np.ndarray | None = None      # SST the coupler last held
    ws_stats: list[dict] = field(default_factory=list)   # per-rank arena counters
    ocean_busy_seconds: float = 0.0    # time the ocean rank spent computing
    overlap_seconds: float = 0.0       # ocean busy time hidden under atm work

    @property
    def hidden_fraction(self) -> float:
        """Fraction of ocean compute the schedule hid (1.0 = fully hidden)."""
        if self.ocean_busy_seconds <= 0.0:
            return 0.0
        return self.overlap_seconds / self.ocean_busy_seconds


def _timed_recv(comm: Comm, source: int, tag: int,
                waits: dict, key: str):
    t0 = time.perf_counter()
    payload = comm.recv(source, tag)
    waits[key] = waits.get(key, 0.0) + (time.perf_counter() - t0)
    return payload


def _swap_bands(comm: Comm, layout: PoolLayout, band: dict) -> list[dict]:
    """Every atmosphere rank's band, in band order.

    Each rank sends its band to the others, then receives theirs: sends
    are buffered, so nobody waits on a send, and per-source FIFO keeps one
    step's bands from matching another step's."""
    for r in layout.atm_ranks:
        if r != comm.rank:
            comm.send(band, r, TAG_BANDS)
    return [band if r == comm.rank else comm.recv(r, TAG_BANDS)
            for r in layout.atm_ranks]


def _atm_worker(comm, layout, model, state, nsteps, waits):
    """One atmosphere-pool rank: band physics + replicated spectral state
    (and, like it, the full-grid radiation state).  Its world rank is its
    band index."""
    from repro.atmosphere.physics import SurfaceState

    cfg = model.config
    dt = cfg.atm_dt
    lo, hi = block_bounds(cfg.atm_nlat, layout.n_atm, comm.rank)
    leader = comm.rank == 0
    cpl = layout.cpl_rank

    for _ in range(nsteps):
        curr = state.atm_curr
        diag = model.atm_diagnose(curr)
        if leader:
            comm.send({"t_air": diag.temp[-1], "t_air2": diag.temp[-2],
                       "q_air": curr.q[-1], "u_air": diag.u[-1],
                       "v_air": diag.v[-1], "ps": diag.ps},
                      cpl, TAG_ATM_STATE)
        sfc = _timed_recv(comm, cpl, TAG_SURFACE, waits, "surface")
        surface = SurfaceState(t_sfc=sfc["t_sfc"], albedo=sfc["albedo"])
        phys = model._physics_kernel(diag, curr.q, surface, sfc["fluxes"],
                                     state.radiation, time=state.time,
                                     rows=(lo, hi))
        band = {"dtdt": phys.dtdt, "dudt": phys.dudt, "dvdt": phys.dvdt,
                "dqdt": phys.dqdt,
                "precip": phys.precip_conv + phys.precip_strat}
        if phys.radiation.time != state.radiation.time:
            band["radiation"] = phys.radiation     # recomputed on this step
        # Latitude is the second-to-last axis of every payload field.
        full = tree_map(lambda *bands: np.concatenate(
            bands, axis=bands[0].ndim - 2), *_swap_bands(comm, layout, band))
        radiation = full.get("radiation", state.radiation)
        if leader:
            # Ship the coupler's inputs *before* the spectral update and
            # dynamics: land/river/regrid work overlaps them every step.
            comm.send({"precip": full["precip"], "sw_sfc": radiation.sw_sfc,
                       "lw_down": radiation.lw_down}, cpl, TAG_ATM_PHYS)
        new_curr = model._apply_tendencies_kernel(
            curr, full["dtdt"], full["dudt"], full["dvdt"], full["dqdt"])
        new_prev, new_next = model.atm_dynamics(state.atm_prev, new_curr)
        state = replace(state, atm_prev=new_prev, atm_curr=new_next,
                        radiation=radiation, time=state.time + dt)
    # The spectral state is replicated: only the leader's copy goes home.
    return {"atm_prev": state.atm_prev, "atm_curr": state.atm_curr,
            "radiation": state.radiation, "time": state.time} if leader else {}


def _cpl_worker(comm, layout, model, state, nsteps, waits):
    """The coupler rank: owns land/river/ice state + the forcing window."""
    cfg = model.config
    dt = cfg.atm_dt
    atm_leader = layout.atm_ranks[0]
    ocn = layout.ocn_rank
    cpl_state = state.coupler

    # Initial SST (the serial run reads it straight off the initial ocean).
    sst = _timed_recv(comm, ocn, TAG_SST, waits, "sst")
    pending_sst = False
    for _ in range(nsteps):
        st = _timed_recv(comm, atm_leader, TAG_ATM_STATE, waits, "atm_state")
        if pending_sst:
            # Lazily collect the overlapped ocean call's SST: this is the
            # first step that consumes it, so the recv lands as late as the
            # serial exchange epochs allow.
            sst = _timed_recv(comm, ocn, TAG_SST, waits, "sst")
            pending_sst = False
        surface, turb = model.merge_surface(
            cpl_state, sst, t_air=st["t_air"], q_air=st["q_air"],
            u_air=st["u_air"], v_air=st["v_air"], ps=st["ps"])
        payload = {"t_sfc": surface.t_sfc, "albedo": surface.albedo,
                   "fluxes": turb["atm"]}
        for r in layout.atm_ranks:
            comm.send(payload, r, TAG_SURFACE)
        ph = _timed_recv(comm, atm_leader, TAG_ATM_PHYS, waits, "atm_phys")
        # Land/rivers/regrid run here while the atm pool is inside its
        # spectral update + dynamics — the every-step overlap.
        cpl_state = model.accumulate_forcing(
            cpl_state, turb, surface, precip=ph["precip"],
            sw_sfc=ph["sw_sfc"], lw_down=ph["lw_down"],
            t_low1=st["t_air"], t_low2=st["t_air2"], dt=dt)
        if model.coupling_due(cpl_state):
            cpl_state, forcing = model.ocean_forcing(cpl_state, sst,
                                                     t_air_bot=st["t_air"])
            comm.send(forcing, ocn, TAG_FORCING)
            pending_sst = True
    if pending_sst:  # drain the final overlapped call
        sst = _timed_recv(comm, ocn, TAG_SST, waits, "sst")
    return {"coupler": cpl_state, "sst": sst}


def _ocn_worker(comm, layout, model, state, nsteps, waits):
    """The ocean rank: one ocean call per forcing window, SST back after
    each."""
    cfg = model.config
    cpl = layout.cpl_rank
    ocean_state = state.ocean
    busy = 0.0
    comm.send(model.ocean.sst(ocean_state), cpl, TAG_SST)
    # The window may be part-full where this leg starts.
    n_calls = ((state.coupler.forcing_steps + nsteps)
               // cfg.atm_steps_per_coupling)
    for _ in range(n_calls):
        forcing = _timed_recv(comm, cpl, TAG_FORCING, waits, "forcing")
        t0 = time.perf_counter()
        ocean_state = model.ocean.step(ocean_state, forcing)
        busy += time.perf_counter() - t0
        comm.send(model.ocean.sst(ocean_state), cpl, TAG_SST)
    return {"ocean": ocean_state, "ocean_busy": busy}


_WORKERS = {"atm": _atm_worker, "cpl": _cpl_worker, "ocn": _ocn_worker}


def run_concurrent_coupled(model, state, nsteps: int, layout: PoolLayout
                           ) -> ConcurrentCoupledResult:
    """Advance ``state`` by ``nsteps`` on disjoint rank pools.

    Every pool rank is a forked process
    (:func:`repro.parallel.procmpi.run_ranks`) stepping its own copy of the
    caller's ``model`` — a model holds no trajectory, so the copy is as good
    as a fresh one; when the caller's profiler is enabled, the spans of
    every rank's stepping loop are added to it.  The returned state is
    numerically equivalent — bitwise at float64 — to ``nsteps`` serial
    ``coupled_step`` calls from ``state``, taken at any step: the state
    carries the forcing window and the radiation.
    """
    from repro.core.foam import FoamState

    cfg = model.config
    if layout.n_atm > cfg.atm_nlat:
        raise ValueError(f"n_atm={layout.n_atm} exceeds nlat={cfg.atm_nlat}")
    # Size the backstop to the run, so a rank waiting out a long ocean call
    # does not false-timeout.
    tmo = max(60.0, 2.0 * nsteps)

    def worker(comm: Comm):
        role = layout.role_of(comm.rank)
        waits: dict[str, float] = {}
        comm.barrier()                 # the rank walls start together
        t0 = time.perf_counter()
        out = _WORKERS[role](comm, layout, model, state, nsteps, waits)
        wall = time.perf_counter() - t0
        out.update(
            rank=comm.rank, role=role, wall=wall, waits=waits,
            ws_stats={"rank": comm.rank, "role": role, **workspace_totals()},
            stats=comm.stats)
        return out

    results = run_ranks(layout.world_size, worker, timeout=tmo)

    atm0 = results[layout.atm_ranks[0]]
    cplr = results[layout.cpl_rank]
    ocn0 = results[layout.ocn_rank]
    state = FoamState(atm_prev=atm0["atm_prev"], atm_curr=atm0["atm_curr"],
                      ocean=ocn0["ocean"], coupler=cplr["coupler"],
                      radiation=atm0["radiation"], time=atm0["time"])

    waits: dict[str, float] = {}
    for r in results:
        for k, v in r["waits"].items():
            waits[k] = waits.get(k, 0.0) + v
    ocean_busy = ocn0["ocean_busy"]
    sst_wait = cplr["waits"].get("sst", 0.0)
    return ConcurrentCoupledResult(
        state=state, nsteps=nsteps, layout=layout,
        wall_seconds=max(r["wall"] for r in results),
        rank_walls=[r["wall"] for r in results],
        waits=waits,
        rank_waits=[{"rank": r["rank"], "role": r["role"], **r["waits"]}
                    for r in results],
        comm_stats=[r["stats"] for r in results],
        sst=cplr["sst"],
        ws_stats=[r["ws_stats"] for r in results],
        ocean_busy_seconds=ocean_busy,
        overlap_seconds=max(0.0, ocean_busy - sst_wait))
