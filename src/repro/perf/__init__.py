"""Performance measurement and modelling.

Every model component imports :mod:`repro.perf.profiler`, so this package
re-exports the profiler only.  The 1997 machine model that reproduces the
paper's section 5 results (Figure 2 and the throughput claims) lives in
its own modules, imported by its users:

* :mod:`repro.perf.machine` — machine models (IBM SP2, Cray C90, ...);
* :mod:`repro.perf.costmodel` — op counts and profile calibration;
* :mod:`repro.perf.eventsim` — the event simulator of a coupled day;
* :mod:`repro.perf.csm` — the NCAR-CSM cost comparison;
* :mod:`repro.perf.report` — the profiled-run CLI.

Importing them here would load the rank transport (``eventsim`` reads
:mod:`repro.parallel.trace`) into every serial run's set-up.
"""

from repro.perf.profiler import (
    Profiler,
    RunProfile,
    SectionStat,
    disable_profiling,
    enable_profiling,
    get_profiler,
    layer_of,
    profile_section,
    profiled,
    take_profile,
)

__all__ = [
    "Profiler", "RunProfile", "SectionStat",
    "disable_profiling", "enable_profiling", "get_profiler", "layer_of",
    "profile_section", "profiled", "take_profile",
]
