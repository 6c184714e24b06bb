"""Self-test of the end-to-end benchmark (run explicitly; not under testpaths).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_bench_e2e.py -q

The arithmetic tests need nothing but this directory; ``test_quick_run_*``
drive ``run.py --quick --trace 1`` over every workload once (about 35 s).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for path in (HERE, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import compare  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ----------------------------------------------------------------------
# BENCHMARK.json and the result schema
# ----------------------------------------------------------------------
def test_spec_names_are_legal_and_unique():
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])


def test_every_traced_span_feeds_a_declared_metric():
    declared = {m["name"] for m in SPEC["per_layer"]}
    booked = set(tracing.SELF_TIME_METRIC.values()) - {"ocean.step_self_s"}
    assert booked <= declared


@pytest.fixture(scope="module")
def quick_results(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--trace", "1",
         "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return json.loads((out / "results.json").read_text()), out


def test_quick_run_carries_exactly_the_declared_names(quick_results):
    record, _out = quick_results
    assert list(record["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for result in record["workloads"].values():
        assert set(result["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert set(result["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert result["windows"] == 2
        assert result["failed"] == 0, result["failures"]
        assert all(value != 0 for value in result["end_to_end"].values())


def test_quick_run_cross_checks_and_traces(quick_results):
    record, out = quick_results
    loads = record["workloads"]
    for name in ("concurrent_paper", "ensemble16_io_test"):
        assert loads[name]["digest_check"]["equal"]
        assert loads[name]["digest_check"]["days_compared"]
    assert loads["concurrent_paper"]["per_layer"]["parallel.speedup_vs_serial"] > 0
    # Self times are disjoint: with the glue they add up to the traced wall.
    additive = (set(tracing.SELF_TIME_METRIC.values())
                - {"ocean.step_self_s", "ocean.barotropic_s"}) | {"ocean.step_s"}
    for name in ("serial_paper", "ensemble16_test"):
        layers = loads[name]["per_layer"]
        assert layers["trace.coverage_frac"] >= 0.95
        assert sum(layers[m] for m in additive) == pytest.approx(
            loads[name]["samples"]["traced_wall_s_per_day"], rel=0.05)
    for name in loads:
        events = json.loads((out / f"trace_{name}.json").read_text())["traceEvents"]
        assert any(event["ph"] == "X" for event in events)
    assert {"git_commit", "nproc", "cpu_model", "python", "numpy", "scipy",
            "blas", "thread_env"} <= set(record["environment"])


def test_driver_contract_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "ensemble16_test",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert not (ROOT / ".bench_e2e").exists()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["runs.coupled_step", 0.0, 10.0, -1],       # 0: root
        ["atmosphere.dynamics", 1.0, 5.0, 0],       # 1
        ["spectral.analyze", 2.0, 3.0, 1],          # 2
        ["spectral.synthesize_many", 3.5, 4.5, 1],  # 3
        ["spectral.synthesize", 3.6, 4.0, 3],       # 4: transform in transform
        ["ocean.step", 6.0, 9.0, 0],                # 5
        ["ocean.barotropic", 7.0, 8.0, 5],          # 6
        ["runs.observer", 10.0, 10.5, -1],          # 7: second root
    ]
    own = tracing.self_times(spans)
    assert own == pytest.approx([3.0, 2.0, 1.0, 0.6, 0.4, 2.0, 1.0, 0.5])
    seconds, calls = tracing.attribute(spans)
    assert seconds["runs.glue_s"] == pytest.approx(3.0)
    assert seconds["atmosphere.dynamics_s"] == pytest.approx(2.0)
    assert seconds["atmosphere.spectral_s"] == pytest.approx(2.0)
    assert seconds["ocean.step_self_s"] + seconds["ocean.barotropic_s"] == \
        pytest.approx(3.0)
    assert seconds["roots"] == pytest.approx(10.5)
    assert sum(v for k, v in seconds.items() if k != "roots") == \
        pytest.approx(seconds["roots"])
    assert calls["spectral.synthesize"] == 1
    assert tracing.outermost_calls(spans, "spectral.") == 2


def test_children_that_overlap_are_not_subtracted_twice():
    spans = [["runs.coupled_step", 0.0, 4.0, -1],
             ["ocean.step", 1.0, 3.0, 0], ["ocean.step", 2.0, 3.5, 0]]
    assert tracing.self_times(spans)[0] == pytest.approx(1.5)


def test_tracer_restores_method_identity():
    class Engine:
        def step(self, x):
            return x + 1

    engine = Engine()
    class_function = Engine.step
    tracer = tracing.Tracer()
    tracer.wrap(engine, "step", "ocean.step")
    tracer.wrap(Engine, "step", "ocean.barotropic")
    assert engine.step(1) == 2 and Engine().step(1) == 2
    assert [s[0] for s in tracer.spans] == ["ocean.step", "ocean.barotropic"]
    assert tracer.spans[0][3] == -1
    tracer.uninstall()
    assert "step" not in vars(engine)
    assert Engine.step is class_function


def test_wrappers_are_gone_after_tracing_a_real_model(tmp_path):
    workloads = pytest.importorskip("workloads")
    from repro.core.history import HistoryWriter
    from repro.runs import CheckpointObserver, HistoryObserver

    before = {cls: dict(vars(cls)) for cls in
              (HistoryWriter, HistoryObserver, CheckpointObserver)}
    wl = workloads.Ensemble16Test(seed=0, scratch=tmp_path)
    wl.nens = 2
    wl.plan_kwargs = lambda: {"nens": 2, "ic_perturbation": 1e-8}
    wl.setup()
    targets = (wl.model, wl.model.transform, wl.model.physics,
               wl.model.coupler, wl.model.ocean, wl.model.ocean.baro)
    clean = [dict(vars(obj)) for obj in targets]
    tracer = tracing.Tracer()
    wl.install(tracer)
    wl.window()
    tracer.uninstall()
    assert {s[0] for s in tracer.spans} >= {
        "runs.coupled_step", "atmosphere.physics", "spectral.analyze",
        "coupler.fluxes", "ocean.barotropic"}
    for obj, attrs in zip(targets, clean):
        assert set(vars(obj)) == set(attrs)
    for cls, attrs in before.items():
        assert all(vars(cls)[name] is value for name, value in attrs.items())


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def test_window_median_ignores_one_slow_window():
    assert stats.median([1.0, 1.1, 9.0, 1.05, 0.95]) == pytest.approx(1.05)
    assert stats.quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == \
        pytest.approx((2.75, 5.5, 8.25))
    assert stats.spread([10.0] * 5) == 0.0


@pytest.mark.parametrize("n, pct", [(9, 50.0), (39, 50.0), (40, 75.0),
                                    (99, 75.0), (100, 90.0), (200, 95.0),
                                    (1000, 99.0), (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond_it(n, pct):
    assert stats.tail_percentile(n) == pct


def test_percentile_interpolates():
    assert stats.percentile(range(101), 90.0) == pytest.approx(90.0)
    assert stats.percentile([1.0, 2.0], 50.0) == pytest.approx(1.5)


# ----------------------------------------------------------------------
# compare.py verdicts
# ----------------------------------------------------------------------
def test_compare_verdicts_on_synthetic_runs():
    base = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    judge = compare.verdict
    assert judge(base, [x * 1.2 for x in base], better="higher", bound=0.1) == "improved"
    assert judge(base, [x * 1.2 for x in base], better="lower", bound=0.1) == "regressed"
    assert judge(base, [x * 1.02 for x in base], better="lower", bound=0.1) == "unchanged"
    assert judge(base, list(reversed(base)), better="higher", bound=0.1) == "unchanged"
    # One pair only: a gain must exceed the bound to be called one.
    assert judge([100.0], [105.0], better="higher", bound=0.1) == "unchanged"
    assert judge([100.0], [115.0], better="higher", bound=0.1) == "improved"
    assert judge([100.0], [85.0], better="higher", bound=0.1) == "regressed"


def test_compare_reports_unresolved_when_noise_exceeds_the_bound():
    noisy_a = [80.0, 120.0, 90.0, 110.0, 100.0, 85.0, 115.0, 95.0, 105.0, 100.0]
    noisy_b = [x * 0.85 for x in noisy_a]
    assert compare.verdict(noisy_a, noisy_b, better="higher", bound=0.1) == "unresolved"
    # ... unless every run of B is on one side of every run of A.
    assert compare.verdict(noisy_a, [x * 3 for x in noisy_a], better="higher",
                           bound=0.1) == "improved"
    assert compare.verdict(noisy_a, [x / 3 for x in noisy_a], better="higher",
                           bound=0.1) == "regressed"


def _record(rate: float, failed: int = 0) -> dict:
    e2e = {m["name"]: 1.0 for m in SPEC["end_to_end"]}
    e2e["sim_days_per_s"] = rate
    return {"workloads": {"serial_paper": {
        "end_to_end": e2e, "attempted": 100, "failed": failed}}}


def test_compare_cli_exit_status(tmp_path, capsys):
    paths = {}
    for name, record in {"a": _record(1.0), "slow": _record(0.5),
                         "same": _record(1.01),
                         "failing": _record(1.0, failed=1)}.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(record))
    assert compare.main([str(paths["a"]), str(paths["same"])]) == 0
    assert compare.main([str(paths["a"]), str(paths["slow"])]) == 1
    assert compare.main(["--a", str(paths["a"]), str(paths["a"]),
                         "--b", str(paths["same"]), str(paths["failing"])]) == 1
    out = capsys.readouterr().out
    assert "regressed" in out and "base A" in out and "failed_frac" in out
