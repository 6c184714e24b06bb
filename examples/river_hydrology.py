#!/usr/bin/env python
"""The closed hydrological cycle: bucket -> rivers -> ocean.

The paper's coupler innovation beyond flux exchange is the *closed
hydrological cycle*: a 15 cm bucket on every land cell, runoff routed
through an explicit river model (F = V u / d with u = 0.35 m/s), and the
discharge injected at river mouths so that "variations in continental
rainfall and delayed resultant variations in ocean salinity" can interact.

This demo builds an idealized continent, rains on it, and traces the water:
bucket filling, overflow, the routing delay to the coast, and exact global
conservation at every step.

Run:  python examples/river_hydrology.py
"""

import numpy as np

from repro.coupler import (
    HydrologyState,
    RiverModel,
    distance_to_ocean,
    step_hydrology,
    wetness_factor,
)
from repro.util.constants import RHO_WATER


def main() -> None:
    ny, nx = 16, 24
    land = np.zeros((ny, nx), dtype=bool)
    land[4:12, 6:18] = True                      # one rectangular continent
    areas = np.full((ny, nx), 1.0e10)            # 100 km cells
    spacing = np.full(ny, 1.0e5)

    print("=== continent and drainage ===")
    dist = distance_to_ocean(land)
    print(f"land cells: {land.sum()}, interior distance to coast: "
          f"up to {dist[land].max()} cells")

    river = RiverModel(land, areas, spacing)
    hydro = HydrologyState.initialized(ny, nx, moisture_fraction=0.3)

    dt = 6 * 3600.0
    rain = np.where(land, 4.0e-4, 0.0)           # ~35 mm/day over land
    warm = np.full((ny, nx), 290.0)
    evap = np.where(land, 4.0e-5, 0.0)

    print("\n=== raining 30 days at ~35 mm/day ===")
    print(f"{'day':>4} {'bucket (mm)':>12} {'wetness':>8} "
          f"{'runoff (kg/s)':>14} {'discharge (kg/s)':>17} {'stored (m^3)':>13}")
    added = 0.0
    delivered = 0.0
    stored = np.zeros((ny, nx))                  # m^3 in the river channels
    for step in range(120):
        hydro, runoff = step_hydrology(
            hydro, precip=rain, evaporation=evap, ground_temp=warm,
            t_low1=warm, t_low2=warm, melt_energy=np.zeros((ny, nx)),
            dt=dt, land_mask=land)
        discharge, stored = river.step(stored, runoff, dt)
        added += float(np.sum((rain - evap) * np.where(land, areas, 0.0))) * dt
        delivered += float(np.sum(discharge * areas)) * dt
        if step % 20 == 19:
            bucket = hydro.soil_moisture[land].mean() * 1000.0
            dw = wetness_factor(hydro)[land].mean()
            print(f"{(step + 1) / 4:4.0f} {bucket:12.1f} {dw:8.2f} "
                  f"{np.sum(runoff * areas):14.3e} "
                  f"{np.sum(discharge * areas):17.3e} "
                  f"{stored.sum():13.3e}")

    print("\n=== water ledger (kg) ===")
    bucket_kg = float(np.sum(hydro.soil_moisture * RHO_WATER
                             * np.where(land, areas, 0.0)))
    initial_kg = 0.3 * 0.15 * RHO_WATER * float(np.sum(np.where(land, areas, 0.0)))
    stored_kg = float(stored.sum()) * 1000.0
    print(f"net precipitation input:    {added:.4e}")
    print(f"delivered to the ocean:     {delivered:.4e}")
    print(f"held in river channels:     {stored_kg:.4e}")
    print(f"bucket change:              {bucket_kg - initial_kg:.4e}")
    closure = added - delivered - stored_kg - (bucket_kg - initial_kg)
    print(f"ledger residual:            {closure:.3e} "
          f"({abs(closure) / max(added, 1e-30):.2e} relative — exact to roundoff)")

    print("\n=== river mouths ===")
    discharge, stored = river.step(stored, runoff, dt)
    mouths = np.argwhere(discharge > 0)
    print(f"{len(mouths)} mouth cells along the coast; largest:")
    flat = [(float(discharge[j, i] * areas[j, i]), j, i) for j, i in mouths]
    for kgps, j, i in sorted(flat, reverse=True)[:5]:
        print(f"  cell ({j:2d},{i:2d}): {kgps:.3e} kg/s")


if __name__ == "__main__":
    main()
