"""Tests for the measured time-allocation report CLI (repro.perf.report)."""

import json

import pytest

from repro.perf.profiler import RunProfile, profiling_enabled
from repro.perf.report import format_calibration, main, profile_coupled_run


@pytest.fixture(scope="module")
def quarter_day_profile():
    """One profiled coupling interval of the test config (shared: ~0.2 s)."""
    return profile_coupled_run(days=0.25, config="test", seed=0)


def test_profile_coupled_run_covers_all_components(quarter_day_profile):
    profile = quarter_day_profile
    assert not profiling_enabled()   # profiling must be off afterwards
    roots = {s.path for s in profile.roots()}
    assert roots == {"atmosphere", "coupler", "ocean"}
    # 0.25 days at dt=3600 is 6 steps; dynamics runs once per step.
    assert profile.calls("atmosphere/dynamics") == 6
    assert profile.total_calls("radiation") >= 1
    assert profile.meta["config"] == "test"
    assert set(profile.meta["kernel_caches"]) == {"legendre_plan", "workspace"}
    assert "backend" not in profile.meta


def test_profile_coupled_run_rejects_unknown_config():
    with pytest.raises(ValueError, match="unknown config"):
        profile_coupled_run(days=0.25, config="huge")


def test_format_calibration_renders_costs(quarter_day_profile):
    text = format_calibration(quarter_day_profile)
    assert "ordinary atmosphere step" in text
    assert "radiation atmosphere step" in text
    assert "ocean call" in text


def test_format_calibration_reports_uncalibratable_profile():
    empty = RunProfile(label="empty", wall_seconds=0.0, sections=[])
    assert format_calibration(empty).startswith("calibration unavailable")


def test_cli_prints_section_table(capsys, tmp_path):
    """The Figure-2-style report: per-section rows with calls and shares."""
    out = tmp_path / "profile.json"
    rc = main(["--days", "0.25", "--seed", "0", "--json", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    for section in ("atmosphere", "dynamics", "physics", "coupler", "ocean"):
        assert section in text
    assert "calls" in text and "incl s" in text and "%" in text
    assert "calibrated event-simulator costs" in text
    assert "kernel caches:" in text

    saved = json.loads(out.read_text())
    assert saved["sections"]   # non-empty profile was written


def test_cli_renders_saved_profile(capsys, tmp_path, quarter_day_profile):
    path = tmp_path / "saved.json"
    quarter_day_profile.save(path)
    rc = main(["--load", str(path), "--min-fraction", "0.02"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "atmosphere" in text
    assert quarter_day_profile.label in text


def test_profile_ensemble_run_batches_members():
    """--ensemble N profiles one batched run: per-step section call counts
    match a serial run (the batch amortizes, it does not multiply calls)."""
    from repro.perf.report import profile_ensemble_run

    profile = profile_ensemble_run(days=0.25, config="test", nens=2, seed=0)
    assert profile.meta["nens"] == 2
    # 0.25 days at dt=3600 is 6 steps; dynamics runs once per batched step.
    assert profile.calls("atmosphere/dynamics") == 6
    roots = {s.path for s in profile.roots()}
    assert roots == {"atmosphere", "coupler", "ocean"}


def test_profile_ensemble_run_validates_nens():
    from repro.perf.report import profile_ensemble_run

    with pytest.raises(ValueError, match="nens"):
        profile_ensemble_run(days=0.25, nens=0)
    with pytest.raises(ValueError, match="unknown config"):
        profile_ensemble_run(days=0.25, config="huge")


def test_cli_ensemble_flag(capsys):
    rc = main(["--days", "0.25", "--seed", "0", "--ensemble", "2"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "nens=2" in text
    assert "atmosphere" in text and "ocean" in text


def test_cli_ensemble_excludes_ranks(capsys):
    with pytest.raises(SystemExit):
        main(["--ensemble", "2", "--atm-ranks", "2"])
