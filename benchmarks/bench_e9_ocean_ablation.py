"""E9: the ocean formulation ablation — 'roughly a tenfold increase'.

Paper section 4.2: the combination of (1) the slowed free surface, (2)
barotropic/baroclinic mode splitting and (3) multi-rate subcycling yields
"roughly a tenfold increase in the amount of simulated time represented per
unit of computation" over state-of-the-art contemporaries.

Two measurements:

* the cost model's ratio against a rigid-lid MOM-class baseline (the
  paper's actual comparator class);
* the running implementation's op-count ratio against the naive unsplit
  explicit model on the same grid (a harsher baseline, hence larger ratio).
"""

from conftest import report
from repro.ocean import (
    ConventionalOceanModel,
    OceanForcing,
    OceanGrid,
    OceanModel,
    world_topography,
)
from repro.perf.costmodel import OceanCost


def test_ocean_ablation(benchmark):
    # Cost-model ratio at paper resolution.
    ocn = OceanCost()
    model_ratio = ocn.conventional_day_ops() / ocn.day_ops()

    # Implementation ratio on a real (reduced) grid.
    g = OceanGrid(nx=32, ny=32, nlev=8)
    land, depth = world_topography(g)
    foam = OceanModel(g, land, depth)
    conv = ConventionalOceanModel(g, land, depth)
    forcing = OceanForcing.zeros(g.ny, g.nx)

    def measure():
        foam.op_count = 0
        conv.op_count = 0
        foam.step(foam.initial_state(), forcing)
        conv.step(conv.initial_state(), forcing)
        return conv.op_count / foam.op_count

    impl_ratio = benchmark(measure)

    report("E9: ocean formulation ablation", [
        ("vs MOM-class rigid-lid baseline (cost model)", "~10x",
         f"{model_ratio:.1f}x"),
        ("vs naive explicit baseline (implementation)", ">10x",
         f"{impl_ratio:.1f}x"),
        ("conventional single-rate steps per 6 h", "many",
         f"{conv.steps_per_long()}"),
        ("slowed barotropic CFL gain", "10x (slow_factor 0.1)",
         f"{conv.dt_single and foam.baro.dt_max / conv.dt_single:.1f}x"),
    ])
    assert 7.0 < model_ratio < 14.0           # 'roughly tenfold'
    assert impl_ratio > 10.0
    assert foam.baro.dt_max / conv.dt_single > 9.0
