"""Shared fixtures for the FOAM benchmark harness.

Each ``bench_eN_*`` module regenerates one paper artifact (figure or
quantitative claim); see DESIGN.md's experiment index.  Run with::

    pytest benchmarks/ --benchmark-only

Benchmarks print their reproduction rows (paper value vs measured value);
use ``-s`` to see them inline.
"""

import numpy as np
import pytest

try:
    import pytest_benchmark  # noqa: F401
    HAVE_PYTEST_BENCHMARK = True
except ImportError:
    HAVE_PYTEST_BENCHMARK = False


def pytest_configure(config):
    # Deterministic fallback for any legacy np.random use inside benches.
    np.random.seed(42)


if not HAVE_PYTEST_BENCHMARK:
    # Headless/minimal environments without pytest-benchmark still collect
    # and run the bench files: each benchmarked callable runs exactly once.
    class _OnceBenchmark:
        def __call__(self, fn, *args, **kwargs):
            return fn(*args, **kwargs)

        def pedantic(self, fn, args=(), kwargs=None, rounds=1, iterations=1):
            return fn(*args, **(kwargs or {}))

    @pytest.fixture
    def benchmark():
        return _OnceBenchmark()


def pytest_sessionfinish(session, exitstatus):
    """Exit 0, not 5, when a marker expression deselects every benchmark.

    ``pytest benchmarks/ -m parallel`` (or any ``-m``/``-k`` that matches
    nothing here) would otherwise fail CI with NO_TESTS_COLLECTED even
    though nothing is wrong.
    """
    deselecting = session.config.getoption("-m") or session.config.getoption("-k")
    if exitstatus == pytest.ExitCode.NO_TESTS_COLLECTED and deselecting:
        session.exitstatus = pytest.ExitCode.OK


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(42)


def report(title: str, rows: list[tuple[str, str, str]]) -> None:
    """Print a paper-vs-measured table (shown under -s; captured otherwise)."""
    print(f"\n--- {title} ---")
    print(f"{'quantity':44s} {'paper':>16s} {'measured':>16s}")
    for name, paper, measured in rows:
        print(f"{name:44s} {paper:>16s} {measured:>16s}")
