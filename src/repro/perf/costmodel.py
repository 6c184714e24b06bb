"""Operation-count model of the FOAM components.

Counts are derived from the array shapes of the actual implementation (the
same loops our NumPy code executes), with per-point constants calibrated
once against the paper's anchor measurements:

* the atmosphere is *physics dominated* ("attributable to the relatively
  complicated atmospheric physics code" — paper section 5);
* radiation costs ~10 ordinary physics steps and runs twice a day (the long
  bars of Figure 2);
* the FOAM ocean needs roughly 10x fewer ops per simulated time than a
  conventional formulation (section 4.2), which emerges here from the
  triple-rate structure rather than being hardcoded;
* at the paper's resolutions the R15 atmosphere costs ~16x the 128x128
  ocean per simulated day (section 5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Calibrated per-point constants (flops).
PHYSICS_OPS_PER_COLUMN_LEVEL = 2900.0     # full CCM-style physics suite
RADIATION_MULTIPLIER = 10.0               # one radiation pass ~ 10 physics passes
DYNAMICS_TRANSFORM_PASSES = 12.0          # synthesis+analysis per step
OCEAN_OPS_3D_SLOW = 450.0                 # advection+dissipation+mixing per pt
OCEAN_OPS_3D_FAST = 25.0                  # internal (PGF+Coriolis+wdT/dz) per pt
OCEAN_OPS_2D_BARO = 30.0                  # barotropic subcycle per pt
CONVENTIONAL_OCEAN_DT = 1800.0            # a 1997 MOM-class model's time step
CONVENTIONAL_ELLIPTIC_ITERS = 50.0        # rigid-lid streamfunction solve
COUPLER_OPS_PER_OVERLAP_CELL = 220.0      # bulk fluxes + averaging


@dataclass(frozen=True)
class AtmosphereCost:
    """R15-class spectral atmosphere cost structure."""

    nlat: int = 40
    nlon: int = 48
    nlev: int = 18
    mmax: int = 15
    dt: float = 1800.0
    item_bytes: float = 8.0           # bytes per real value (4 under float32)

    @property
    def ncols(self) -> int:
        return self.nlat * self.nlon

    def physics_ops(self) -> float:
        return PHYSICS_OPS_PER_COLUMN_LEVEL * self.ncols * self.nlev

    def dynamics_ops(self) -> float:
        nm = self.mmax + 1
        nk = self.mmax + 1
        legendre = 8.0 * self.nlat * nm * nk * self.nlev * DYNAMICS_TRANSFORM_PASSES
        fft = 5.0 * self.nlat * self.nlon * np.log2(self.nlon) \
            * self.nlev * DYNAMICS_TRANSFORM_PASSES
        return legendre + fft

    def step_ops(self, radiation: bool = False) -> float:
        ops = self.physics_ops() + self.dynamics_ops()
        if radiation:
            ops += RADIATION_MULTIPLIER * self.physics_ops()
        return ops

    def steps_per_day(self) -> int:
        return int(round(86400.0 / self.dt))

    def day_ops(self, radiation_steps_per_day: int = 2) -> float:
        n = self.steps_per_day()
        return (n - radiation_steps_per_day) * self.step_ops(False) \
            + radiation_steps_per_day * self.step_ops(True)

    def transpose_bytes(self) -> float:
        """Data moved by the parallel spectral transpose per step (all ranks)."""
        # Fourier coefficients for all levels; complex = two reals.
        return (2.0 * self.item_bytes) * self.nlat * (self.mmax + 1) \
            * self.nlev * 2


@dataclass(frozen=True)
class OceanCost:
    """FOAM ocean cost structure (triple-rate stepping)."""

    nx: int = 128
    ny: int = 128
    nlev: int = 16
    ocean_fraction: float = 0.65      # fraction of cells that are water
    n_internal: int = 6
    barotropic_substeps: int = 4      # per internal step, slowed CFL
    dt_long: float = 6 * 3600.0
    item_bytes: float = 8.0           # bytes per real value (4 under float32)

    @property
    def n3(self) -> float:
        return self.nx * self.ny * self.nlev * self.ocean_fraction

    @property
    def n2(self) -> float:
        return self.nx * self.ny * self.ocean_fraction

    def call_ops(self) -> float:
        """Ops for one long (6 h) FOAM ocean step."""
        return (OCEAN_OPS_3D_SLOW * self.n3
                + self.n_internal * OCEAN_OPS_3D_FAST * self.n3
                + self.n_internal * self.barotropic_substeps
                * OCEAN_OPS_2D_BARO * self.n2)

    def calls_per_day(self) -> int:
        return int(round(86400.0 / self.dt_long))

    def day_ops(self) -> float:
        return self.calls_per_day() * self.call_ops()

    def conventional_day_ops(self) -> float:
        """A state-of-the-art 1997 ocean (MOM-class, rigid lid): every 3-D
        term evaluated at a ~30-minute leapfrog step, plus an elliptic
        barotropic streamfunction solve each step.  This is the E9
        ablation's denominator — the paper's 'roughly a tenfold increase in
        the amount of simulated time represented per unit of computation'.
        """
        steps_per_long = self.dt_long / CONVENTIONAL_OCEAN_DT
        per_step = (OCEAN_OPS_3D_SLOW + OCEAN_OPS_3D_FAST) * self.n3 \
            + CONVENTIONAL_ELLIPTIC_ITERS * 15.0 * self.n2
        return self.calls_per_day() * steps_per_long * per_step

    def halo_bytes(self) -> float:
        """Halo bytes exchanged per long step per rank boundary (approx)."""
        return self.item_bytes * 4 * (self.nx + self.ny) * self.nlev


@dataclass(frozen=True)
class CouplerCost:
    """Overlap-grid flux computation + land/river/ice, per atmosphere step."""

    n_overlap: int = 176 * 170        # merged-edge counts at paper resolution

    def step_ops(self) -> float:
        return COUPLER_OPS_PER_OVERLAP_CELL * self.n_overlap


def transpose_bytes_from_stats(stats) -> float:
    """Full-exchange transpose volume estimated from measured CommStats.

    ``stats`` is the per-rank list returned by
    ``repro.parallel.components.measure_transpose_comm`` (or any run whose
    transpose traffic is labeled ``transpose.*``).  An alltoall on ``k``
    ranks moves only the off-diagonal ``(k-1)/k`` of the global array, so
    the measurement is rescaled to the full exchange volume the
    :meth:`MachineModel.alltoall_time` formula expects — making the
    estimate independent of the rank count it was measured at.
    """
    k = len(stats)
    measured = float(sum(s.bytes_for("transpose") for s in stats))
    if k <= 1:
        return measured
    return measured * k / (k - 1)


def atmosphere_ocean_cost_ratio(atm: AtmosphereCost | None = None,
                                ocn: OceanCost | None = None) -> float:
    """The paper's ~16x figure: atmosphere vs ocean ops per simulated day."""
    atm = atm or AtmosphereCost()
    ocn = ocn or OceanCost()
    return atm.day_ops() / ocn.day_ops()


# ---------------------------------------------------------------------------
# Measured-cost calibration: profiler wall clock -> event-simulator inputs.
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class MeasuredCosts:
    """Per-section wall-clock costs measured by :mod:`repro.perf.profiler`.

    The measured counterpart of the analytic (:class:`AtmosphereCost`,
    :class:`OceanCost`, :class:`CouplerCost`) op counts: one serial-run
    second figure per simulator section, which
    :func:`repro.perf.eventsim.simulate_coupled_day` divides across ranks
    exactly the way it divides op counts.  This extends the PR-1
    ``transpose_bytes_from_stats`` pattern (measured traffic replacing an
    analytic formula) from communication volume to compute cost.
    """

    step_seconds: float              # ordinary atmosphere step, all ranks' work
    radiation_step_seconds: float    # atmosphere step that recomputes radiation
    coupler_seconds: float           # coupler work per atmosphere step
    ocean_call_seconds: float        # one long (coupling-interval) ocean call
    transpose_seconds: float = 0.0   # forward+backward spectral transpose/step
    dynamics_seconds: float = 0.0    # dynamics slice of a step (overlap window)
    # Coupler work on the atmosphere's critical path even when the coupler
    # runs on its own rank (surface merge + turbulent fluxes: the atmosphere
    # cannot start physics without their result).  None = not measured
    # (hand-built costs); the simulator then estimates exposure from
    # overlap_seconds.
    coupler_exposed_seconds: float | None = None
    item_bytes: float = 8.0          # bytes/real of the profiled run's dtype
    source: str = "profile"

    def __post_init__(self):
        for name in ("step_seconds", "radiation_step_seconds",
                     "coupler_seconds", "ocean_call_seconds"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got "
                                 f"{getattr(self, name)}")


def calibrate_from_profile(profile) -> MeasuredCosts:
    """Derive :class:`MeasuredCosts` from a measured :class:`RunProfile`.

    ``profile`` is a coupled run recorded by :mod:`repro.perf.profiler`
    (``repro.perf.report.profile_run``, or enable → run → ``take_profile``)
    covering at least one ocean call and one radiation step — serial,
    batched, or a rank-pool run whose per-rank spans ``run_ranks`` summed
    into the caller's profile.  It is read by exact span name:

    * coupled steps are ``coupler.merge_surface`` calls (one rank merges,
      once per step) and the atmosphere rank count is
      ``atmosphere.dynamics`` calls per step (every atmosphere rank steps
      the replicated dynamics; 1 when serial);
    * ``step_seconds`` is the all-ranks ``atmosphere`` layer total minus
      radiation, per step; the simulator divides it by the rank count,
      giving the *average* per-rank step time.  Span clocks are wall time
      inside each rank process: with a core per rank they are pure
      compute, on a host with fewer cores than ranks they also hold the
      time the rank sat descheduled behind its peers — either way the
      average approximates the pool's elapsed step time;
    * radiation is band-decomposed, so its summed cost per radiation step
      is ``inclusive * n_atm / calls``;
    * ``coupler_seconds`` is the whole ``coupler`` layer per step and
      ``coupler_exposed_seconds`` its serially-dependent slice
      (``coupler.merge_surface``, fluxes included), which stays on the
      atmosphere's critical path even with ``coupler_offloaded=True``;
    * ``dynamics_seconds`` is the per-rank dynamics slice — the window the
      concurrent schedule hides coupler/ocean work under (pass it as
      ``overlap_seconds``);
    * transpose cost comes from ``transpose.forward`` / ``transpose.backward``
      when the run exercised the distributed transpose; otherwise it is
      zero (the pool driver replicates spectral state) and the simulator
      falls back to charging the byte volume on its machine model.
    """
    steps = profile.calls("coupler.merge_surface")
    n_atm = profile.calls("atmosphere.dynamics") // steps if steps else 0
    if n_atm == 0:
        raise ValueError(
            "profile has no full coupled step ('atmosphere.dynamics' per "
            "'coupler.merge_surface' spans) — was the run executed with "
            "profiling enabled through FoamModel.coupled_step or the pool "
            "driver?")
    radiation = profile.get("atmosphere.radiation")
    if radiation is None:
        raise ValueError(
            "profile contains no radiation step; profile at least one "
            "radiation interval so radiation cost can be separated")
    n_ocean = profile.calls("ocean.step")
    if n_ocean == 0:
        raise ValueError(
            "profile contains no ocean call; profile at least one coupling "
            "interval (ocean_coupling_interval of simulated time)")
    layers = profile.layer_seconds()
    step_seconds = (layers["atmosphere"] - radiation.inclusive) / steps
    transposes = [profile.get(f"transpose.{way}")
                  for way in ("forward", "backward")]
    return MeasuredCosts(
        step_seconds=step_seconds,
        radiation_step_seconds=(step_seconds
                                + radiation.inclusive * n_atm / radiation.calls),
        coupler_seconds=layers["coupler"] / steps,
        ocean_call_seconds=layers["ocean"] / n_ocean,
        transpose_seconds=sum(t.per_call for t in transposes if t),
        dynamics_seconds=profile["atmosphere.dynamics"].per_call,
        coupler_exposed_seconds=profile["coupler.merge_surface"].inclusive / steps,
        # The profiled run's precision: the simulator charges communication
        # volumes in proportion to the element size.
        item_bytes=float(np.dtype(profile.meta.get("dtype") or "float64").itemsize),
        source=profile.label or "profile")
