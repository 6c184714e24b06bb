"""Tests for the hierarchical wall-clock profiler (repro.perf.profiler)."""

import json
import time

import pytest

from repro.perf.profiler import (
    Profiler,
    RunProfile,
    disable_profiling,
    enable_profiling,
    get_profiler,
    profile_count,
    profile_section,
    profiled,
    profiling_enabled,
    set_profiler,
    take_profile,
)


@pytest.fixture
def fresh_profiler():
    """Install a fresh enabled profiler as the default; restore afterwards."""
    prof = Profiler(enabled=True)
    previous = set_profiler(prof)
    try:
        yield prof
    finally:
        set_profiler(previous)


# ------------------------------------------------------------- nesting
def test_nested_sections_record_full_paths(fresh_profiler):
    with profile_section("a"):
        with profile_section("b"):
            with profile_section("c"):
                pass
        with profile_section("b"):
            pass
    profile = take_profile("nesting")
    paths = {s.path: s.calls for s in profile.sections}
    assert paths == {"a": 1, "a/b": 2, "a/b/c": 1}


def test_sibling_sections_do_not_nest(fresh_profiler):
    with profile_section("first"):
        pass
    with profile_section("second"):
        pass
    profile = take_profile()
    assert {s.path for s in profile.sections} == {"first", "second"}
    assert all(s.depth == 0 for s in profile.sections)


def test_decorator_records_section(fresh_profiler):
    @profiled("work")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert fn(2) == 3
    profile = take_profile()
    assert profile["work"].calls == 2


def test_decorator_defaults_to_function_name(fresh_profiler):
    @profiled()
    def named_thing():
        return 42

    named_thing()
    assert take_profile().calls("named_thing") == 1


# ------------------------------------------- exclusive vs inclusive
def test_exclusive_excludes_child_time(fresh_profiler):
    with profile_section("outer"):
        time.sleep(0.005)
        with profile_section("inner"):
            time.sleep(0.01)
    profile = take_profile()
    outer, inner = profile["outer"], profile["outer/inner"]
    assert inner.inclusive >= 0.01
    assert outer.inclusive >= inner.inclusive + 0.005
    # The accounting identity is exact by construction: the parent's
    # exclusive time is its inclusive time minus its children's elapsed.
    assert outer.exclusive == pytest.approx(outer.inclusive - inner.inclusive,
                                            abs=1e-9)
    assert inner.exclusive == pytest.approx(inner.inclusive, abs=1e-9)


def test_repeated_entries_accumulate(fresh_profiler):
    for _ in range(5):
        with profile_section("loop"):
            time.sleep(0.001)
    s = take_profile()["loop"]
    assert s.calls == 5
    assert s.inclusive >= 5 * 0.001
    assert s.per_call == pytest.approx(s.inclusive / 5)


# ------------------------------------------------------------- counters
def test_counter_attaches_to_innermost_section(fresh_profiler):
    with profile_section("xfer") as sec:
        sec.count("comm_bytes", 1024)
        sec.count("comm_bytes", 1024)
    profile = take_profile()
    assert profile["xfer"].counters["comm_bytes"] == 2048
    assert profile.comm_bytes() == 2048


def test_counter_outside_section_is_profile_level(fresh_profiler):
    profile_count("events", 3)
    profile_count("events", 4)
    profile = take_profile()
    assert profile.counters["events"] == 7
    assert profile.sections == []


# ------------------------------------------------------------- disabled mode
def test_disabled_records_nothing(fresh_profiler):
    disable_profiling()
    assert not profiling_enabled()
    with profile_section("ghost") as sec:
        assert sec is None
        profile_count("ghost_counter")
    profile = take_profile()
    assert profile.sections == []
    assert profile.counters == {}
    enable_profiling()
    assert profiling_enabled()


def test_disabled_sections_are_one_shared_noop(fresh_profiler, monkeypatch):
    """What bounds the cost of instrumentation left in a hot loop: while
    disabled, every section is the same preallocated no-op — no ``_Section``
    is built, nothing is recorded — so an instrumented call pays one flag
    test.  (The measured cost is the ledger's ``trace.overhead_frac``; a
    wall-clock ratio asserted here flaked on loaded hosts.)"""
    from repro.perf import profiler as mod

    def no_section(*args):
        raise AssertionError("a _Section was constructed while disabled")

    @profiled("decorated")
    def work():
        return 7

    disable_profiling()
    monkeypatch.setattr(mod, "_Section", no_section)
    assert profile_section("x") is profile_section("y")
    assert fresh_profiler.section("x") is profile_section("y")
    with profile_section("hot") as sec:
        assert sec is None
        assert work() == 7
    profile = take_profile()
    assert profile.sections == [] and profile.counters == {}


# ------------------------------------------------------------- ranks
@pytest.mark.parallel
def test_rank_processes_profile_transpose(fresh_profiler):
    """Sections recorded inside forked ranks reach the caller's profiler.

    Each rank resets the accumulators it inherited at fork, records the
    instrumented transpose into its own profiler, and ships the snapshot
    back with its result; ``run_ranks`` absorbs them.  A section the caller
    recorded *before* the fork must therefore still count once, not once
    per rank.
    """
    from repro.parallel.components import measure_transpose_comm

    nranks = 4
    with profile_section("before_fork"):
        pass
    stats = measure_transpose_comm(nranks, nlat=16, nm=8, nlev=3)
    profile = take_profile("transpose")
    assert profile["before_fork"].calls == 1
    fwd = profile["transpose.forward"]
    bwd = profile["transpose.backward"]
    assert fwd.calls == nranks and bwd.calls == nranks
    assert fwd.inclusive > 0 and bwd.inclusive > 0
    # The comm_bytes counter must agree with the CommStats ground truth.
    measured = sum(s.bytes_for("transpose") for s in stats)
    assert profile.comm_bytes("transpose") == pytest.approx(measured)


# ------------------------------------------------------------- RunProfile
def _sample_profile(prof):
    with prof.section("atmosphere"):
        with prof.section("physics"):
            with prof.section("radiation") as sec:
                sec.count("calls_counted", 2)
        with prof.section("dynamics"):
            pass
    with prof.section("ocean"):
        pass
    return prof.snapshot(label="sample", meta={"config": "test"})


def test_runprofile_lookup_helpers(fresh_profiler):
    profile = _sample_profile(fresh_profiler)
    assert profile.calls("atmosphere/physics/radiation") == 1
    # Leaf-name matching finds sections wherever they nest.
    assert profile.total_calls("radiation") == 1
    assert profile.total_inclusive("radiation") > 0
    # Topmost matching: children do not double-count under their ancestor.
    assert profile.total_inclusive("atmosphere") == profile["atmosphere"].inclusive
    assert profile.get("no/such/section") is None
    with pytest.raises(KeyError):
        profile["no/such/section"]
    assert {s.path for s in profile.roots()} == {"atmosphere", "ocean"}
    assert profile.accounted_seconds == pytest.approx(
        profile["atmosphere"].inclusive + profile["ocean"].inclusive)


def test_runprofile_json_roundtrip(fresh_profiler, tmp_path):
    profile = _sample_profile(fresh_profiler)
    text = profile.to_json()
    json.loads(text)   # valid JSON
    back = RunProfile.from_json(text)
    assert back.to_dict() == profile.to_dict()
    assert back.label == "sample"
    assert back.meta == {"config": "test"}
    assert back["atmosphere/physics/radiation"].counters["calls_counted"] == 2

    path = tmp_path / "profile.json"
    profile.save(path)
    assert RunProfile.load(path).to_dict() == profile.to_dict()


def test_format_table_renders_tree(fresh_profiler):
    profile = _sample_profile(fresh_profiler)
    table = profile.format_table()
    lines = table.splitlines()
    assert any("radiation" in line for line in lines)
    assert any(line.startswith("atmosphere") for line in lines)
    # Nested rows are indented under their parents.
    assert any(line.startswith("  physics") for line in lines)


def test_take_profile_resets_by_default(fresh_profiler):
    with profile_section("once"):
        pass
    first = take_profile()
    assert first.calls("once") == 1
    second = take_profile()
    assert second.sections == []


def test_default_profiler_starts_disabled():
    # The library-wide default must not record in normal (unprofiled) runs.
    assert isinstance(get_profiler(), Profiler)
    assert not profiling_enabled()


# ---------------------------------------------------------------- merging
def _profile_with(label, path, calls, seconds, wall):
    from repro.perf.profiler import SectionStat
    return RunProfile(label=label, wall_seconds=wall, sections=[
        SectionStat(path=path, calls=calls, inclusive=seconds,
                    exclusive=seconds)])


def test_merge_profiles_sums_sections_and_maxes_wall():
    from repro.perf.profiler import merge_profiles

    a = _profile_with("rank0", "atmosphere", 4, 2.0, wall=5.0)
    b = _profile_with("rank1", "atmosphere", 4, 3.0, wall=4.0)
    merged = merge_profiles([a, b], label="both")
    assert merged.total_calls("atmosphere") == 8
    assert merged.total_inclusive("atmosphere") == pytest.approx(5.0)
    assert merged.wall_seconds == pytest.approx(5.0)   # max, not sum
    assert merged.meta["merged_from"] == 2
    assert merged.meta["rank_walls"] == [5.0, 4.0]
    assert merged.meta["rank_labels"] == ["rank0", "rank1"]


def test_merge_profiles_user_meta_and_empty():
    from repro.perf.profiler import merge_profiles

    a = _profile_with("a", "x", 1, 1.0, wall=1.0)
    merged = merge_profiles([a], meta={"nsteps": 7})
    assert merged.meta["nsteps"] == 7
    with pytest.raises(ValueError):
        merge_profiles([])
