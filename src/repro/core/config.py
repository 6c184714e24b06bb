"""FOAM coupled-model configuration.

The paper's production configuration (``paper_config``): R15 spectral
atmosphere on a 48 x 40 Gaussian grid with 18 levels and a 30-minute step;
128 x 128 x 16 Mercator ocean with a 6-hour step (called 4x per simulated
day); radiation recomputed twice per day.  ``test_config`` scales everything
down for CI-speed runs; ``small_config`` sits in between for the example
scripts.  All knobs are independent, so any resolution in between works.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field

from repro.backend import DTypePolicy, policy_from_name
from repro.ocean.barotropic import BarotropicParams
from repro.ocean.mixing import PPMixingParams
from repro.ocean.model import OceanParams
from repro.util.constants import SECONDS_PER_DAY, SOLAR_CONSTANT

TOPOGRAPHY_KINDS = ("world", "aquaplanet", "paleo")
OCEAN_MODES = ("full", "slab")
OCEAN_INIT_KINDS = ("rest_stratified", "cold_uniform")


@dataclass
class FoamConfig:
    """Every tunable of the coupled system in one place."""

    # Atmosphere (PCCM2-style spectral).
    atm_mmax: int = 15              # rhomboidal truncation (R15)
    atm_nlat: int = 40
    atm_nlon: int = 48
    atm_nlev: int = 18
    atm_dt: float = 1800.0          # 30-minute step (paper)
    robert_filter: float = 0.04

    # Ocean.
    ocn_nx: int = 128
    ocn_ny: int = 128
    ocn_nlev: int = 16
    ocean_params: OceanParams = field(default_factory=OceanParams)

    # Coupling cadence.
    ocean_coupling_interval: float = 6.0 * 3600.0   # ocean called 4x/day
    radiation_interval: float = SECONDS_PER_DAY / 2  # radiation 2x/day

    # Numerics / reproducibility.
    seed: int = 0
    # Working precision: None defers to FOAM_DTYPE (default float64).
    dtype: str | None = None

    # --- scenario (world-builder) knobs --------------------------------
    # The defaults reproduce the paper's Earth exactly; each knob feeds one
    # component constructor, so the scenario registry (repro.scenarios) can
    # describe a whole world as a FoamConfig delta and every driver —
    # serial, batched ensemble, concurrent rank pools — inherits it.
    solar_constant: float = SOLAR_CONSTANT   # W m^-2 at the top of atmosphere
    co2_ppmv: float = 355.0                  # longwave CO2 band concentration
    rotation_factor: float = 1.0             # planetary rotation / Earth's
    # Fixed-sun (tidally locked) insolation: the subsolar point stays pinned
    # at this longitude (degrees) with zero declination.  None = diurnal and
    # seasonal cycles as usual.
    subsolar_lon_deg: float | None = None
    topography: str = "world"                # world | aquaplanet | paleo
    ocean_mode: str = "full"                 # full | slab (mixed layer only)
    mixed_layer_depth: float = 50.0          # m, slab-ocean heat capacity
    ocean_init: str = "rest_stratified"      # rest_stratified | cold_uniform
    initial_ice_thickness: float = 0.0       # m of sea ice at t=0 (ocean-wide)

    @property
    def dtype_policy(self) -> DTypePolicy:
        """The resolved precision policy threaded into every component grid."""
        return policy_from_name(self.dtype)

    def __post_init__(self):
        if self.ocean_coupling_interval % self.atm_dt != 0:
            raise ValueError(
                "ocean_coupling_interval must be a multiple of atm_dt "
                f"({self.ocean_coupling_interval} vs {self.atm_dt})")
        if abs(self.ocean_params.dt_long - self.ocean_coupling_interval) > 1e-9:
            # Keep the two clocks consistent automatically.
            self.ocean_params.dt_long = self.ocean_coupling_interval
        if self.topography not in TOPOGRAPHY_KINDS:
            raise ValueError(f"topography must be one of {TOPOGRAPHY_KINDS}, "
                             f"got {self.topography!r}")
        if self.ocean_mode not in OCEAN_MODES:
            raise ValueError(f"ocean_mode must be one of {OCEAN_MODES}, "
                             f"got {self.ocean_mode!r}")
        if self.ocean_init not in OCEAN_INIT_KINDS:
            raise ValueError(f"ocean_init must be one of {OCEAN_INIT_KINDS}, "
                             f"got {self.ocean_init!r}")
        if self.rotation_factor < 0:
            raise ValueError(f"rotation_factor must be >= 0, "
                             f"got {self.rotation_factor}")
        if self.solar_constant <= 0:
            raise ValueError(f"solar_constant must be positive, "
                             f"got {self.solar_constant}")

    @property
    def atm_steps_per_coupling(self) -> int:
        return int(round(self.ocean_coupling_interval / self.atm_dt))

    # ------------------------------------------------------------------
    # serialization (scenario specs, result-cache keys, restart metadata)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """A plain, JSON-serializable dict of every knob (nested included)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FoamConfig":
        """Rebuild a config from :meth:`to_dict` output (exact round-trip)."""
        data = dict(data)
        ocean = data.pop("ocean_params", None)
        if ocean is not None and not isinstance(ocean, OceanParams):
            ocean = dict(ocean)
            baro = ocean.pop("barotropic", None)
            mixing = ocean.pop("mixing", None)
            ocean = OceanParams(
                barotropic=(BarotropicParams(**baro) if isinstance(baro, dict)
                            else baro or BarotropicParams()),
                mixing=(PPMixingParams(**mixing) if isinstance(mixing, dict)
                        else mixing or PPMixingParams()),
                **ocean)
        if ocean is not None:
            data["ocean_params"] = ocean
        unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ValueError(f"unknown FoamConfig fields: {sorted(unknown)}")
        return cls(**data)

    def content_hash(self) -> str:
        """Stable SHA-256 of the full configuration content.

        Hashes the canonical JSON of :meth:`to_dict` (sorted keys, no
        whitespace), so two configs hash equal iff every knob — nested
        ocean parameters included — is equal, regardless of construction
        order.  This is the :class:`~repro.runs.plan.RunKey` building
        block and the stamp restart checkpoints carry so a resume onto a
        mismatched configuration fails loudly instead of diverging.
        """
        payload = json.dumps(self.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def paper_config() -> FoamConfig:
    """The configuration of the paper's production runs."""
    return FoamConfig()


def small_config() -> FoamConfig:
    """Reduced resolution for example scripts (minutes, not hours)."""
    return FoamConfig(atm_mmax=10, atm_nlat=28, atm_nlon=36, atm_nlev=8,
                      ocn_nx=48, ocn_ny=48, ocn_nlev=8)


def test_config() -> FoamConfig:
    """Minimal configuration for the test suite (seconds per simulated day)."""
    return FoamConfig(atm_mmax=8, atm_nlat=24, atm_nlon=32, atm_nlev=5,
                      atm_dt=3600.0, ocn_nx=24, ocn_ny=24, ocn_nlev=5)


#: The named resolutions (``--config`` / ``--size`` on the CLIs).
NAMED_CONFIGS = {"test": test_config, "small": small_config,
                 "paper": paper_config}


def named_config(name: str) -> FoamConfig:
    """A fresh :class:`FoamConfig` at one of the :data:`NAMED_CONFIGS`."""
    try:
        return NAMED_CONFIGS[name]()
    except KeyError:
        raise ValueError(f"unknown config {name!r}; pick from "
                         f"{sorted(NAMED_CONFIGS)}") from None
