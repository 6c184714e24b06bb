"""Moist convection: Hack (1994) shallow scheme + Zhang-McFarlane deep scheme.

CCM2 handled all moist convection with the Hack mass-flux scheme; CCM3 (and
hence FOAM — paper, "The FOAM Atmosphere Model") pairs it with the
Zhang & McFarlane (1995) deep convection parameterization.  We implement both
with the same division of labor:

* :func:`hack_shallow` — a local three-level mass-flux adjustment: wherever a
  layer is buoyantly unstable with respect to the layer above (moist static
  energy decreasing with height beyond a threshold), a convective mass flux
  mixes the triplet and rains out condensate;
* :func:`zhang_mcfarlane_deep` — a CAPE-consuming bulk plume: when the
  column CAPE exceeds a threshold, heating/drying tendencies relax CAPE back
  toward it over a fixed adjustment time scale, with precipitation closing
  the moisture budget.

Both operate on (L, ...) arrays, vectorized over all columns at once, and
return temperature/humidity tendencies plus surface precipitation rate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.constants import CP, GRAVITY, LATENT_HEAT_VAP, RD
from repro.util.thermo import saturation_mixing_ratio


@dataclass(frozen=True)
class ConvectionParams:
    hack_mse_threshold: float = 200.0       # J/kg instability deadband
    hack_adjustment_time: float = 3600.0    # s, shallow overturning time scale
    zm_cape_threshold: float = 70.0         # J/kg, ZM trigger
    zm_adjustment_time: float = 7200.0      # s, the ZM tau (2 h in CCM3)
    zm_max_fraction: float = 0.25           # max fraction of CAPE removed per call
    parcel_launch_level: int = -1           # lowest model level


def moist_static_energy_profile(temp: np.ndarray, q: np.ndarray,
                                geopotential: np.ndarray) -> np.ndarray:
    """h = cp T + Phi + L q per layer (geopotential already includes g z)."""
    return CP * temp + geopotential + LATENT_HEAT_VAP * q


def hack_shallow(temp: np.ndarray, q: np.ndarray, pressure: np.ndarray,
                 dp: np.ndarray, geopotential: np.ndarray, dt: float,
                 params: ConvectionParams = ConvectionParams()
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hack-style shallow convective adjustment.

    Returns (dT/dt, dq/dt, precipitation rate kg m^-2 s^-1).  Works pairwise
    from the surface upward: if the saturated moist static energy of a layer
    exceeds the saturation MSE of the layer above (conditional instability),
    exchange heat and moisture at a rate that removes the instability over
    ``hack_adjustment_time``, condensing any supersaturation produced.
    """
    L = temp.shape[0]
    h = moist_static_energy_profile(temp, q, geopotential)
    qsat = saturation_mixing_ratio(temp, pressure)
    hsat = CP * temp + geopotential + LATENT_HEAT_VAP * qsat

    dtdt = np.zeros_like(temp)
    dqdt = np.zeros_like(q)
    precip = np.zeros_like(temp[0])

    # Pairwise bottom-up sweep (l below, l-1 above), vectorized over columns.
    copied = False
    for l in range(L - 1, 0, -1):
        below_h = h[l]
        above_hsat = hsat[l - 1]
        instab = below_h - above_hsat - params.hack_mse_threshold
        active = instab > 0.0
        if not np.any(active):
            continue
        # Energy transferred upward this step (J/kg of the lower layer),
        # limited so the instability is at most neutralized.
        rate = np.where(active, instab / params.hack_adjustment_time, 0.0)
        de = rate * dt                       # J/kg moved from lower layer
        de = np.minimum(de, np.maximum(instab, 0.0) * 0.5)

        # Split the transferred MSE between sensible and latent using the
        # lower layer's moisture availability.
        latent_avail = LATENT_HEAT_VAP * np.maximum(q[l], 0.0)
        lat_frac = np.clip(latent_avail / np.maximum(below_h, 1.0), 0.0, 0.5)
        d_sensible = de * (1.0 - lat_frac)
        d_latent = de * lat_frac

        mass_l = dp[l] / GRAVITY
        mass_u = dp[l - 1] / GRAVITY

        dtl = -d_sensible / CP
        dtu = d_sensible / CP * (mass_l / mass_u)
        dql = -d_latent / LATENT_HEAT_VAP
        dqu_all = d_latent / LATENT_HEAT_VAP * (mass_l / mass_u)

        # Moisture arriving above condenses if it exceeds saturation there:
        # rains out and heats the upper layer (the mass-flux detrainment).
        q_up_new = q[l - 1] + dqu_all
        qsat_u = qsat[l - 1]
        excess = np.maximum(q_up_new - qsat_u, 0.0)
        dqu = dqu_all - excess
        dtu = dtu + LATENT_HEAT_VAP * excess / CP
        precip += excess * mass_u / np.maximum(dt, 1e-12)

        dtdt[l] += dtl / dt
        dtdt[l - 1] += dtu / dt
        dqdt[l] += dql / dt
        dqdt[l - 1] += dqu / dt
        # Keep working arrays current for the next pair up, on copies made
        # at the first active pair (most calls have none).
        if not copied:
            temp, q, copied = temp.copy(), q.copy(), True
        temp[l] += dtl
        temp[l - 1] += dtu
        q[l] += dql
        q[l - 1] += dqu
        # The pairs above read h at l - 1 and higher up, hsat and qsat at
        # l - 2 and higher up: h[l - 1] is the one value this pair changed
        # that is read again.
        h[l - 1] = moist_static_energy_profile(temp[l - 1], q[l - 1],
                                               geopotential[l - 1])

    return dtdt, dqdt, np.maximum(precip, 0.0)


def compute_cape(temp: np.ndarray, q: np.ndarray, pressure: np.ndarray,
                 launch: int = -1) -> np.ndarray:
    """Pseudo-adiabatic CAPE (J/kg) of a parcel lifted from ``launch`` level.

    Vectorized over columns; uses a simple undilute parcel with latent heat
    release above the lifting condensation level.  Accurate enough to drive
    a relaxation closure.
    """
    L = temp.shape[0]
    t_parcel = temp[launch].copy()
    q_parcel = q[launch].copy()
    p0 = pressure[launch]
    cape = np.zeros_like(t_parcel)
    kappa = RD / CP

    t_lev = t_parcel
    start = (L + launch if launch < 0 else launch) - 1
    for l in range(start, -1, -1):
        p = pressure[l]
        # Dry-adiabatic lift to this level...
        t_lift = t_lev * (p / p0) ** kappa
        # ...then condense supersaturation pseudo-adiabatically.
        qs = saturation_mixing_ratio(t_lift, p)
        cond = np.maximum(q_parcel - qs, 0.0)
        t_lift = t_lift + LATENT_HEAT_VAP * cond / CP
        q_parcel = q_parcel - cond
        buoy = RD * (t_lift - temp[l]) * np.log(p0 / p)
        cape += np.maximum(buoy, 0.0)
        t_lev, p0 = t_lift, p
    return cape


def zhang_mcfarlane_deep(temp: np.ndarray, q: np.ndarray, pressure: np.ndarray,
                         dp: np.ndarray, dt: float,
                         params: ConvectionParams = ConvectionParams()
                         ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ZM deep convection: CAPE relaxation with a bulk heating profile.

    Returns (dT/dt, dq/dt, precipitation rate).  Where CAPE exceeds the
    trigger, the column is heated aloft / dried below with a fixed vertical
    shape whose amplitude removes (dt / tau) of the excess CAPE; the moisture
    sink is converted to precipitation.
    """
    L = temp.shape[0]
    cape = compute_cape(temp, q, pressure, params.parcel_launch_level)
    excess = np.maximum(cape - params.zm_cape_threshold, 0.0)
    active = excess > 0.0
    dtdt = np.zeros_like(temp)
    dqdt = np.zeros_like(q)
    precip = np.zeros_like(temp[0])
    if not np.any(active):
        return dtdt, dqdt, precip

    frac = np.minimum(dt / params.zm_adjustment_time, params.zm_max_fraction)
    # Energy to redistribute per unit mass of column (J/kg):
    de = excess * frac

    # Heating shape: half-sine peaked in the mid troposphere (sigma ~ 0.4),
    # the canonical deep-convective profile; drying shape peaked at low levels.
    sigma = pressure / pressure[-1]
    heat_shape = np.sin(np.pi * np.clip((1.0 - sigma) / 0.85, 0.0, 1.0))
    dry_shape = np.clip((sigma - 0.6) / 0.4, 0.0, 1.0)

    # Normalize shapes by column mass so the budget closes.
    mass = dp / GRAVITY
    heat_norm = np.sum(heat_shape * mass, axis=0)
    dry_norm = np.sum(dry_shape * mass, axis=0)
    heat_shape = np.where(heat_norm > 0, heat_shape / np.maximum(heat_norm, 1e-12), 0.0)
    dry_shape = np.where(dry_norm > 0, dry_shape / np.maximum(dry_norm, 1e-12), 0.0)

    colmass = mass.sum(axis=0)
    e_col = de * colmass * active                # J/m^2 redistributed
    # Latent closure: heating comes from condensing moisture; drying supplies it.
    dq_col = e_col / LATENT_HEAT_VAP             # kg/m^2 condensed
    # Cap drying at 50% of available column moisture this step.
    q_col = np.sum(np.maximum(q, 0.0) * mass, axis=0)
    dq_col = np.minimum(dq_col, 0.5 * q_col)
    e_col = dq_col * LATENT_HEAT_VAP

    dtdt += heat_shape * e_col / (CP * dt)
    dqdt += -dry_shape * dq_col / dt
    # Don't let drying drive q negative anywhere.
    floor = -np.maximum(q, 0.0) / dt
    dqdt = np.maximum(dqdt, floor)
    precip = np.maximum(-np.sum(dqdt * mass, axis=0), 0.0)
    return dtdt, dqdt, precip
