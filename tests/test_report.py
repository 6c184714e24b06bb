"""Tests for the measured time-allocation report CLI (repro.perf.report)."""

import json

import pytest

from repro.core.config import test_config as tiny_config
from repro.perf.profiler import RunProfile, get_profiler
from repro.perf.report import format_calibration, main, profile_run
from repro.runs import RunPlan, plan_from_flags


@pytest.fixture(scope="module")
def quarter_day_profile():
    """One profiled coupling interval of the test config (shared: ~0.2 s)."""
    profile, _result = profile_run(RunPlan(config=tiny_config(), days=0.25))
    return profile


def test_profile_run_covers_all_components(quarter_day_profile):
    profile = quarter_day_profile
    assert not get_profiler().enabled   # profiling must be off afterwards
    assert set(profile.layer_seconds()) == {"runs", "atmosphere", "coupler",
                                            "ocean"}
    # 0.25 days at dt=3600 is 6 steps; dynamics runs once per step.
    assert profile.calls("runs.coupled_step") == 6
    assert profile.calls("atmosphere.dynamics") == 6
    assert profile.calls("atmosphere.radiation") >= 1
    assert profile.meta["mode"] == "serial"
    cfg = tiny_config()
    assert profile.meta["atm_grid"] == [cfg.atm_nlat, cfg.atm_nlon,
                                        cfg.atm_nlev]
    assert set(profile.meta["kernel_caches"]) == {"legendre_plan", "workspace"}
    assert "backend" not in profile.meta


def test_plan_from_flags_rejects_unknown_config():
    with pytest.raises(ValueError, match="unknown config"):
        plan_from_flags(size="huge", days=0.25)


def test_format_calibration_renders_costs(quarter_day_profile):
    text = format_calibration(quarter_day_profile)
    assert "ordinary atmosphere step" in text
    assert "radiation atmosphere step" in text
    assert "ocean call" in text


def test_format_calibration_reports_uncalibratable_profile():
    empty = RunProfile(label="empty", wall_seconds=0.0, sections=[])
    assert format_calibration(empty).startswith("calibration unavailable")


def test_cli_prints_section_table(capsys, tmp_path):
    """The Figure-2-style report: per-span rows with calls and shares."""
    out = tmp_path / "profile.json"
    rc = main(["--days", "0.25", "--seed", "0", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for span in ("atmosphere.dynamics", "atmosphere.physics",
                 "atmosphere.radiation", "coupler.fluxes", "ocean.step",
                 "ocean.barotropic", "runs.coupled_step"):
        assert span in text
    assert "calls" in text and "incl s" in text and "%" in text
    assert "calibrated event-simulator costs" in text
    assert "blocking waits" not in text          # serial: no waits block
    assert "kernel caches:" in text
    # No ice forms in six steps: one plan, asked for once per step.
    assert "exchange plans   1 built / 6 requests" in text

    saved = json.loads(out.read_text())
    assert saved["sections"]   # non-empty profile was written


def test_table_says_what_blas_threads_it_ran_on(capsys, tmp_path, monkeypatch):
    """The header line prints the three thread variables as the process saw
    them — recorded in ``profile.meta``, never set — and survives a JSON
    round trip; a profile saved without them says so."""
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.setenv("MKL_NUM_THREADS", "3")
    line = ("BLAS threads: OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=unset "
            "MKL_NUM_THREADS=3; the ledger runs with 1")
    out = tmp_path / "profile.json"
    assert main(["--days", "0.25", "--json", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line
    assert main(["--load", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == line
    old = RunProfile.load(out)
    del old.meta["blas_threads"]
    old.save(out)
    assert main(["--load", str(out)]) == 0
    assert capsys.readouterr().out.startswith("BLAS threads: not recorded")


def test_cli_renders_saved_profile(capsys, tmp_path, quarter_day_profile):
    path = tmp_path / "saved.json"
    quarter_day_profile.save(path)
    rc = main(["--load", str(path), "--min-fraction", "0.02"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "atmosphere" in text
    assert quarter_day_profile.label in text


def test_profile_run_batches_members():
    """An ensemble plan profiles one batched run: per-step span call counts
    match a serial run (the batch amortizes, it does not multiply calls)."""
    profile, result = profile_run(
        RunPlan(config=tiny_config(), days=0.25, mode="ensemble", nens=2))
    assert profile.meta["nens"] == 2 and result.nens == 2
    # 0.25 days at dt=3600 is 6 steps; dynamics runs once per batched step.
    assert profile.calls("atmosphere.dynamics") == 6
    assert set(profile.layer_seconds()) == {"runs", "atmosphere", "coupler",
                                            "ocean"}


def test_ensemble_plan_validates_nens():
    with pytest.raises(ValueError, match="nens"):
        RunPlan(days=0.25, mode="ensemble", nens=0)
    with pytest.raises(ValueError, match="unknown config"):
        plan_from_flags(size="huge", days=0.25, ensemble=2)


def test_cli_ensemble_flag(capsys):
    rc = main(["--days", "0.25", "--seed", "0", "--ensemble", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nens=2" in text
    assert "atmosphere" in text and "ocean" in text
    assert "exchange plans   1 built / 6 requests" in text


def test_cli_ensemble_excludes_ranks(capsys):
    with pytest.raises(SystemExit):
        main(["--ensemble", "2", "--atm-ranks", "2"])


# ------------------------------------------------- flags on the pool path
@pytest.mark.parallel
def test_cli_pool_run_honours_dtype_and_seed(capsys, tmp_path):
    """``--atm-ranks 1 --dtype float32 --seed 5`` used to profile a float64
    run from the default seed: the pool driver took neither flag."""
    out = tmp_path / "pool.json"
    rc = main(["--days", "0.25", "--atm-ranks", "1", "--dtype", "float32",
               "--seed", "5", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "blocking waits over" in text
    assert "exchange plans" not in text     # the coupler ran in a rank
    meta = RunProfile.load(out).meta
    assert meta["exchange_plans"] is None
    assert meta["dtype"] == "float32"
    assert meta["seed"] == 5
    assert meta["mode"] == "concurrent"
