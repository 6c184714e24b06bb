"""FOAM: the Fast Ocean-Atmosphere Model — an SC'97 reproduction.

A coupled ocean-atmosphere climate model built for throughput, after
Tobis, Schafer, Foster, Jacob & Anderson, "FOAM: Expanding the Horizons of
Climate Modeling" (Supercomputing 1997):

* :mod:`repro.atmosphere` — R15-class spectral atmosphere (PCCM2 lineage)
  with CCM2/CCM3-style physics;
* :mod:`repro.ocean` — the fast z-coordinate ocean (slowed free surface,
  mode splitting, triple-rate subcycling);
* :mod:`repro.coupler` — overlap-grid fluxes, land, bucket hydrology,
  rivers, sea ice, closed hydrological cycle;
* :mod:`repro.core` — the coupled FOAM driver, configuration, restarts;
* :mod:`repro.parallel` — simulated MPI on forked rank processes, decompositions;
* :mod:`repro.perf` — machine/cost models reproducing the paper's
  performance results;
* :mod:`repro.analysis` — EOF/VARIMAX/filtering toolkit for the science
  figures.

Quick start::

    from repro.core import FoamModel, small_config
    model = FoamModel(small_config())
    state = model.initial_state()
    state = model.run_days(state, 5.0)
    print(model.ocean.sst(state.ocean))
"""

__version__ = "1.0.0"

from repro.core import FoamConfig, FoamModel, paper_config, small_config, test_config

__all__ = ["FoamConfig", "FoamModel", "paper_config", "small_config",
           "test_config", "__version__"]
