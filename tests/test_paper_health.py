"""Paper-size health: the runs the ledger times, held to the ledger's bounds
over every window a ledger worker may time.

These are marked ``paper_health``: the default run leaves them out
(``pyproject.toml`` addopts) and the CI job of that name runs them
(``pytest -m paper_health``).  A bound that fails today is a strict xfail
naming the ROADMAP item that mends it.
"""

import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"

#: The worker's discarded warm-up window plus its ``--max-windows 60``.
LEDGER_WINDOWS = 61


@pytest.fixture(scope="module")
def workloads():
    """``benchmarks/e2e/workloads.py``, imported the way the ledger's own
    self-test imports it."""
    if not (E2E / "workloads.py").exists():
        pytest.skip("the ledger is not shipped with this checkout")
    if str(E2E) not in sys.path:
        sys.path.insert(0, str(E2E))
    return pytest.importorskip("workloads")


@pytest.mark.paper_health
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP 9(c): under ocean_paper's forcing the SST passes the ledger's "
    "40 C bound at day 21.0 (seed 0) and day 20.0 (seed 3), inside the "
    "30.5 days a worker may time; the forward-in-time centred tracer "
    "advection under the growing equatorial jet, mended by epoch 4"))
@pytest.mark.parametrize("seed", [0, 3])
def test_ocean_paper_stays_inside_the_ledger_bounds(workloads, seed, tmp_path):
    wl = workloads.OceanPaper(seed=seed, scratch=tmp_path)
    wl.setup()
    for _ in range(LEDGER_WINDOWS):
        wl.window()
        assert wl.invariants() == [], f"day {wl.sim_day}"
        assert workloads.all_finite(wl.state), f"day {wl.sim_day}"
