"""Tests for the flat-span wall-clock profiler (repro.perf.profiler)."""

import json
import time

import pytest

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


@pytest.fixture
def fresh_profiler():
    """The process's one recorder, enabled and empty; off and empty afterwards."""
    prof = enable_profiling()
    prof.reset()
    try:
        yield prof
    finally:
        disable_profiling()
        prof.reset()


# ------------------------------------------------------------- nesting
def test_nested_sections_record_flat_names(fresh_profiler):
    """Rows are keyed by the span's own name wherever it nests: the same
    name under two parents is one row."""
    with profile_section("a.outer"):
        with profile_section("a.mid"):
            with profile_section("a.leaf"):
                pass
        with profile_section("a.mid"):
            pass
    with profile_section("b.outer"):
        with profile_section("a.leaf"):
            pass
    profile = take_profile("nesting")
    assert {s.name: s.calls for s in profile.sections} == {
        "a.outer": 1, "a.mid": 2, "a.leaf": 2, "b.outer": 1}


def test_sibling_sections_do_not_nest(fresh_profiler):
    with profile_section("x.first"):
        pass
    with profile_section("x.second"):
        pass
    profile = take_profile()
    assert {s.name for s in profile.sections} == {"x.first", "x.second"}
    # Neither is the other's child: each row's self time is all of it.
    assert all(s.exclusive == s.inclusive for s in profile.sections)


def test_decorator_records_section(fresh_profiler):
    @profiled("x.work")
    def fn(x):
        return x + 1

    assert fn(1) == 2
    assert fn(2) == 3
    profile = take_profile()
    assert profile["x.work"].calls == 2


def test_decorator_defaults_to_function_name(fresh_profiler):
    @profiled()
    def named_thing():
        return 42

    named_thing()
    assert take_profile().calls("named_thing") == 1


# ------------------------------------------- self vs inclusive
def test_exclusive_excludes_child_time(fresh_profiler):
    with profile_section("x.outer"):
        time.sleep(0.005)
        with profile_section("x.inner"):
            time.sleep(0.01)
    profile = take_profile()
    outer, inner = profile["x.outer"], profile["x.inner"]
    assert inner.inclusive >= 0.01
    assert outer.inclusive >= inner.inclusive + 0.005
    # The accounting identity is exact by construction: the parent's
    # self time is its inclusive time minus its children's elapsed.
    assert outer.exclusive == pytest.approx(outer.inclusive - inner.inclusive,
                                            abs=1e-9)
    assert inner.exclusive == pytest.approx(inner.inclusive, abs=1e-9)


def test_self_times_sum_to_the_roots(fresh_profiler):
    """The ledger's arithmetic: only *direct* children are subtracted, so
    self times over all rows add up to the time inside root spans — also
    when a name recurs at several depths."""
    for _ in range(3):
        with profile_section("atmosphere.dynamics"):
            with profile_section("spectral.analyze"):
                time.sleep(0.001)
            with profile_section("spectral.gradient"):
                with profile_section("spectral.analyze"):
                    time.sleep(0.001)
        with profile_section("ocean.step"):
            time.sleep(0.001)
    profile = take_profile()
    assert profile.calls("spectral.analyze") == 6
    roots = (profile["atmosphere.dynamics"].inclusive
             + profile["ocean.step"].inclusive)
    assert profile.accounted_seconds == pytest.approx(roots, abs=1e-9)
    layers = profile.layer_seconds()
    assert set(layers) == {"atmosphere", "ocean"}
    assert sum(layers.values()) == pytest.approx(roots, abs=1e-9)


def test_repeated_entries_accumulate(fresh_profiler):
    for _ in range(5):
        with profile_section("x.loop"):
            time.sleep(0.001)
    s = take_profile()["x.loop"]
    assert s.calls == 5
    assert s.inclusive >= 5 * 0.001
    assert s.per_call == pytest.approx(s.inclusive / 5)


# ------------------------------------------------------------- counters
def test_counter_attaches_to_innermost_section(fresh_profiler):
    with profile_section("x.outer"):
        with profile_section("x.xfer") as sec:
            sec.count("comm_bytes", 1024)
            sec.count("comm_bytes", 1024)
    profile = take_profile()
    assert profile["x.xfer"].counters == {"comm_bytes": 2048}
    assert profile["x.outer"].counters == {}


# ------------------------------------------------------------- disabled mode
def test_disabled_records_nothing(fresh_profiler):
    disable_profiling()
    assert not get_profiler().enabled
    with profile_section("x.ghost") as sec:
        assert sec is None
    profile = take_profile()
    assert profile.sections == []
    assert profile.counters == {}
    enable_profiling()
    assert get_profiler().enabled


def test_disabled_sections_are_one_shared_noop(fresh_profiler, monkeypatch):
    """What bounds the cost of instrumentation left in a hot loop: while
    disabled, every section is the same preallocated no-op — no ``_Section``
    is built, nothing is recorded — so an instrumented call pays one flag
    test.  (The measured cost is the ledger's ``trace.overhead_frac``; a
    wall-clock ratio asserted here flaked on loaded hosts.)"""
    from repro.perf import profiler as mod

    def no_section(*args):
        raise AssertionError("a _Section was constructed while disabled")

    @profiled("x.decorated")
    def work():
        return 7

    disable_profiling()
    monkeypatch.setattr(mod, "_Section", no_section)
    assert profile_section("x.a") is profile_section("x.b")
    with profile_section("x.hot") as sec:
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
    with profile_section("x.before_fork"):
        pass
    stats = measure_transpose_comm(nranks, nlat=16, nm=8, nlev=3)
    profile = take_profile("transpose")
    assert profile["x.before_fork"].calls == 1
    fwd = profile["transpose.forward"]
    bwd = profile["transpose.backward"]
    assert fwd.calls == nranks and bwd.calls == nranks
    assert fwd.inclusive > 0 and bwd.inclusive > 0
    # The comm_bytes counter must agree with the CommStats ground truth.
    measured = sum(s.bytes_for("transpose") for s in stats)
    assert fwd.counters["comm_bytes"] + bwd.counters["comm_bytes"] \
        == pytest.approx(measured)


# ------------------------------------------------------------- RunProfile
def _sample_profile():
    with profile_section("atmosphere.physics"):
        with profile_section("atmosphere.radiation") as sec:
            sec.count("calls_counted", 2)
        with profile_section("spectral.analyze"):
            pass
    with profile_section("ocean.step"):
        pass
    return get_profiler().snapshot(label="sample", meta={"config": "test"})


def test_runprofile_lookup_helpers(fresh_profiler):
    profile = _sample_profile()
    # Exact names only: no prefix, leaf or path matching.
    assert profile.calls("atmosphere.radiation") == 1
    assert profile.calls("radiation") == 0
    assert profile.get("atmosphere") is None
    with pytest.raises(KeyError):
        profile["no.such_span"]
    # A layer's seconds are the self times of its rows; the transforms
    # count towards the atmosphere, as in the ledger.
    assert layer_of("spectral.analyze") == "atmosphere"
    assert layer_of("coupler.fluxes") == "coupler"
    layers = profile.layer_seconds()
    assert set(layers) == {"atmosphere", "ocean"}
    assert layers["atmosphere"] == pytest.approx(
        profile["atmosphere.physics"].inclusive, abs=1e-9)
    assert profile.accounted_seconds == pytest.approx(
        profile["atmosphere.physics"].inclusive
        + profile["ocean.step"].inclusive, abs=1e-9)


def test_runprofile_json_roundtrip(fresh_profiler, tmp_path):
    profile = _sample_profile()
    text = json.dumps(profile.to_dict())   # plain JSON types throughout
    back = RunProfile.from_dict(json.loads(text))
    assert back.to_dict() == profile.to_dict()
    assert back.label == "sample"
    assert back.meta == {"config": "test"}
    assert back["atmosphere.radiation"].counters["calls_counted"] == 2

    path = tmp_path / "profile.json"
    profile.save(path)
    assert RunProfile.load(path).to_dict() == profile.to_dict()


def test_path_keyed_profile_json_is_refused():
    """A profile saved before the flat vocabulary keyed rows by nesting
    path; loading one must fail loudly, naming the format, not mis-read."""
    old = {"label": "old", "wall_seconds": 1.0, "counters": {}, "meta": {},
           "sections": [{"path": "atmosphere/physics", "calls": 1,
                         "inclusive": 1.0, "exclusive": 1.0, "counters": {}}]}
    with pytest.raises(ValueError, match="profile format 1"):
        RunProfile.from_dict(old)


def test_format_table_groups_by_layer(fresh_profiler):
    profile = _sample_profile()
    lines = profile.format_table().splitlines()
    # One header row per layer, its spans indented beneath by full name.
    assert any(line.startswith("atmosphere ") for line in lines)
    assert any(line.startswith("ocean ") for line in lines)
    assert any(line.startswith("  atmosphere.radiation") for line in lines)
    assert any(line.startswith("  spectral.analyze") for line in lines)
    hidden = profile.format_table(min_fraction=1.1).splitlines()
    assert not any(line.startswith("  ") for line in hidden)


def test_take_profile_resets_by_default(fresh_profiler):
    with profile_section("x.once"):
        pass
    first = take_profile()
    assert first.calls("x.once") == 1
    second = take_profile()
    assert second.sections == []


def test_default_profiler_starts_disabled():
    # The library-wide default must not record in normal (unprofiled) runs.
    assert isinstance(get_profiler(), Profiler)
    assert not get_profiler().enabled


def test_absorb_sums_rows_by_name(fresh_profiler):
    """How rank profiles come home: rows add by exact name."""
    rank = RunProfile(label="rank0", wall_seconds=5.0, sections=[
        SectionStat("atmosphere.dynamics", calls=4, inclusive=2.0,
                    exclusive=1.5, counters={"comm_bytes": 8.0})],
        counters={"events": 1.0})
    fresh_profiler.absorb(rank)
    fresh_profiler.absorb(rank)
    profile = take_profile()
    row = profile["atmosphere.dynamics"]
    assert (row.calls, row.inclusive, row.exclusive) == (8, 4.0, 3.0)
    assert row.counters == {"comm_bytes": 16.0}
    assert profile.counters == {"events": 2.0}
