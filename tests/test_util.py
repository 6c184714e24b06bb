"""Tests for the shared utilities: thermodynamics, constants, censuses."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util import (
    potential_temperature,
    saturation_mixing_ratio,
    saturation_vapor_pressure,
)
from repro.util.constants import KAPPA, P0


# ------------------------------------------------------------- thermo
def test_saturation_vapor_pressure_anchor_points():
    """611 Pa at 0 C; ~2.3 kPa at 20 C; ~4.2 kPa at 30 C (standard tables)."""
    assert saturation_vapor_pressure(273.15) == pytest.approx(611.2, rel=1e-3)
    assert saturation_vapor_pressure(293.15) == pytest.approx(2339.0, rel=0.02)
    assert saturation_vapor_pressure(303.15) == pytest.approx(4247.0, rel=0.02)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(220.0, 320.0))
def test_saturation_vapor_pressure_monotone(t):
    assert saturation_vapor_pressure(t + 1.0) > saturation_vapor_pressure(t)


@settings(max_examples=50, deadline=None)
@given(t=st.floats(230.0, 315.0), p=st.floats(2.0e4, 1.05e5))
def test_saturation_mixing_ratio_positive_and_bounded(t, p):
    q = saturation_mixing_ratio(t, p)
    assert 0.0 < q < 1.0


def test_potential_temperature_roundtrip():
    t = np.array([250.0, 280.0, 300.0])
    p = np.array([3.0e4, 7.0e4, 1.0e5])
    theta = potential_temperature(t, p)
    np.testing.assert_allclose(theta * (p / P0) ** KAPPA, t, rtol=1e-12)
    # theta == T at the reference pressure.
    assert potential_temperature(288.0, 1.0e5) == pytest.approx(288.0)


def test_potential_temperature_increases_aloft_when_stable():
    # A moist-adiabat-ish profile: theta grows with height (lower p).
    assert potential_temperature(250.0, 3.0e4) > potential_temperature(288.0, 1.0e5)


# ------------------------------------------------------------- constants
def test_paper_constants_verbatim():
    """The coupler constants quoted in the paper, exactly."""
    from repro.util import constants as c

    assert c.SOIL_MOISTURE_CAPACITY == 0.15        # "a 15 cm soil moisture box"
    assert c.SNOW_RUNOFF_DEPTH == 1.0              # "greater than 1 m"
    assert c.RIVER_FLOW_VELOCITY == 0.35           # "a constant 0.35 m/s"
    assert c.SEAICE_FRESHWATER_DEPTH == 2.0        # "a flux of 2 m of water"
    assert c.SEAICE_STRESS_DIVISOR == 15.0         # "divided by 15"
    assert c.T_FREEZE_SEA == pytest.approx(273.15 - 1.92)  # "-1.92 C" clamp


# ------------------------------------------------------------- switches
def test_foam_env_switch_census():
    """``src/`` reads exactly these environment variables.

    Each switch doubles the configurations tests and benchmarks must
    cover; adding one means editing this set, i.e. arguing for it in review
    (and adding its row to README "Environment switches").  Every
    ``os.environ`` / ``os.getenv`` use must name its key as a literal so
    none escapes the count.
    """
    src = Path(__file__).resolve().parents[1] / "src"
    text = "\n".join(path.read_text() for path in src.rglob("*.py"))
    uses = re.findall(r"\bos\.(?:environ|getenv)\b", text)
    keys = re.findall(
        r"""\bos\.(?:environ\.get\(|environ\[|getenv\()\s*["'](\w+)["']""", text)
    assert len(keys) == len(uses), "environment read without a literal key"
    assert set(keys) == {
        "FOAM_DTYPE",
        # read-only probes: perf.report prints what its table ran under
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    }
    # The code never asks whether it runs under a test harness.
    assert "pytest" not in text


def test_front_door_fields_census():
    """The settable fields of the run-level front doors, exactly.

    Like an environment switch, every field is a configuration tests must
    cover; a new one means editing this census, i.e. arguing in review that
    something outside ``tests/`` sets it.  (``FoamConfig`` is pinned by
    ``TestContentHash::test_pinned``.)
    """
    import dataclasses

    from repro.core import EnsembleConfig
    from repro.runs import RunPlan
    from repro.scenarios import Scenario

    def names(cls):
        return [f.name for f in dataclasses.fields(cls)]

    assert names(EnsembleConfig) == [
        "nens", "base", "ic_perturbation", "perturb_seed"]
    assert names(Scenario) == ["name", "description", "knobs", "tags"]
    assert names(RunPlan) == [
        "config", "scenario", "days", "mode", "nens", "ic_perturbation",
        "n_atm", "n_ocn", "substrate", "history", "checkpoint", "tags"]


#: Public names in ``src/repro`` that nothing outside ``tests/`` references
#: yet, each kept for the reader named beside it.  An entry that gains a
#: caller, or whose name is gone, fails the census too: delete the line.
_NO_CALLER_YET = {
    # The decomposition proofs ROADMAP 5(b) keeps (``-m parallel``).
    "parallel/components.py:parallel_physics": "ROADMAP 5(b)",
    "parallel/components.py:parallel_biharmonic": "ROADMAP 5(b)",
    "parallel/components.py:parallel_spectral_analysis": "ROADMAP 5(b)",
    "parallel/components.py:measure_transpose_comm": "ROADMAP 5(b)",
    # The diagnostics ROADMAP 3(c)'s run report will read.
    "core/diagnostics.py:nino3_index": "ROADMAP 3(c)",
    "core/diagnostics.py:ice_area": "ROADMAP 3(c)",
    "core/diagnostics.py:ocean_heat_content": "ROADMAP 3(c)",
    "core/diagnostics.py:meridional_heat_transport": "ROADMAP 3(c)",
    "core/diagnostics.py:surface_energy_balance": "ROADMAP 3(c)",
    "core/diagnostics.py:equator_pole_gradient": "ROADMAP 3(c)",
    "ocean/diagnostics.py:barotropic_streamfunction": "ROADMAP 3(c)",
    "ocean/diagnostics.py:drake_passage_transport": "ROADMAP 3(c)",
    "ocean/diagnostics.py:meridional_overturning": "ROADMAP 3(c)",
    "analysis/climatology.py:time_mean": "ROADMAP 3(c)",
    "analysis/climatology.py:zonal_mean": "ROADMAP 3(c)",
    "analysis/climatology.py:area_weights_from_lats": "ROADMAP 3(c)",
    "analysis/eof.py:EOFResult.reconstruct": "ROADMAP 3(c)",
    "analysis/filters.py:monthly_means": "ROADMAP 3(c)",
    "analysis/filters.py:detrend": "ROADMAP 3(c)",
    # The sea-level reducer of ROADMAP 2's ocean budgets.
    "ocean/barotropic.py:BarotropicSolver.mean_sea_level": "ROADMAP 2",
    # The dry-dycore climate of ROADMAP 2(d).
    "atmosphere/heldsuarez.py:HeldSuarezForcing": "ROADMAP 2(d)",
    # The golden check of the CI scenarios job
    # (``test_scenarios.py::test_climatology_regression``).
    "scenarios/climatology.py:compare_climatology": "CI scenarios job",
    # The plan-cache test hook (a cold cache on demand).
    "atmosphere/spectral.py:clear_legendre_plans": "cache tests",
}


def _uncalled_public_names(package: Path, callers: list[Path]) -> set[str]:
    """``module.py:Name`` / ``module.py:Class.method`` of every public
    top-level function and class under ``package`` (and every public method
    of such a class) whose name no ``Name`` or ``Attribute`` node in the
    ``.py`` files under ``callers`` mentions outside its own body.  Imports,
    ``__all__`` and docstrings hold no such node, so they are no callers;
    the match is by name alone, so any ``.step`` is a caller of every
    ``step``."""
    import ast

    refs: dict[str, list[tuple[Path, int]]] = {}
    for root in callers:
        for path in root.rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                name = (node.id if isinstance(node, ast.Name) else node.attr
                        if isinstance(node, ast.Attribute) else None)
                if name is not None:
                    refs.setdefault(name, []).append((path, node.lineno))

    def public(nodes, kinds):
        return [n for n in nodes
                if isinstance(n, kinds) and not n.name.startswith("_")]

    uncalled = set()
    for path in package.rglob("*.py"):
        module = path.relative_to(package).as_posix()
        tree = ast.parse(path.read_text())
        defs = [(d.name, d) for d in public(
            tree.body, (ast.FunctionDef, ast.ClassDef))]
        defs += [(f"{c.name}.{m.name}", m) for _, c in list(defs)
                 if isinstance(c, ast.ClassDef)
                 for m in public(c.body, ast.FunctionDef)]
        for qualname, d in defs:
            if not any(p != path or not d.lineno <= line <= d.end_lineno
                       for p, line in refs.get(d.name, ())):
                uncalled.add(f"{module}:{qualname}")
    return uncalled


def test_every_public_name_has_a_caller(tmp_path):
    """A public function, method or class in ``src/`` has a caller outside
    ``tests/`` — in ``src/``, ``benchmarks/`` or ``examples/`` — or a line in
    ``_NO_CALLER_YET`` naming the reader it is kept for.  A name only tests
    call is deleted with its tests (DESIGN.md "Every name has a caller")."""
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(
        '"""Mentions used_only_in_a_docstring()."""\n'
        '__all__ = ["exported"]\n'
        "def exported(): pass\n"
        "def used_only_in_a_docstring(): pass\n"
        "def recursive(n): return recursive(n - 1)\n"
        "def called(): pass\n"
        "class Box:\n"
        "    def used(self): pass\n"
        "    def unused(self): pass\n"
        "    def _private(self): pass\n")
    (pkg / "user.py").write_text(
        "from pkg.mod import Box, exported, used_only_in_a_docstring\n"
        "called()\n"
        "Box().used()\n")
    assert _uncalled_public_names(pkg, [pkg]) == {   # the scan sees what it must
        "mod.py:exported", "mod.py:used_only_in_a_docstring",
        "mod.py:recursive", "mod.py:Box.unused"}

    root = Path(__file__).resolve().parents[1]
    uncalled = _uncalled_public_names(
        root / "src" / "repro",
        [root / top for top in ("src", "benchmarks", "examples")])
    assert sorted(uncalled - set(_NO_CALLER_YET)) == [], \
        "public names only tests call: delete them, or give each a reader"
    assert sorted(set(_NO_CALLER_YET) - uncalled) == [], \
        "census entries that gained a caller or are gone: delete the lines"


def test_one_rank_transport_census():
    """Forked processes are the only rank transport, and nothing selects it.

    The model is single-threaded by construction (a rank is a process), so
    no module under ``src/repro`` imports ``threading`` — which is what
    lets the profiler, the workspace arena and the Legendre plan cache be
    plain module state — and no function takes a ``substrate`` parameter
    (``RunPlan.substrate`` is a vestigial dataclass field, not a selector).
    One communicator class moves messages: no abstract transport interface
    (no ``NotImplementedError`` hook under ``parallel/``), no second class
    defining ``_send`` / ``_recv``, and no message-fault injector
    (``parallel/faults.py``, a ``faults`` parameter anywhere).  It is the
    world communicator, with a pinned public method set.
    """
    import ast

    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    assert not (src / "parallel" / "simmpi.py").exists()
    assert not (src / "parallel" / "faults.py").exists()
    transports = []
    for path in (src / "parallel").rglob("*.py"):
        text = path.read_text()
        assert "NotImplementedError" not in text, f"{path} has a transport hook"
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ClassDef):
                methods = {f.name for f in node.body
                           if isinstance(f, ast.FunctionDef)}
                if {"_send", "_recv"} <= methods:
                    transports.append(f"{path.name}:{node.name}")
    assert len(transports) <= 1, transports
    # One world communicator with the collectives something outside tests
    # calls: no ``split`` and no sub-communicator context, no ``sendrecv``,
    # ``reduce`` or ``allreduce``, and the vocabulary lives with the
    # transport that speaks it (no ``commbase.py``).
    from repro.parallel import Comm

    assert not (src / "parallel" / "commbase.py").exists()
    assert {name for name in vars(Comm)
            if not name.startswith("_") and callable(getattr(Comm, name))} == {
        "send", "recv", "barrier", "bcast", "gather", "scatter", "alltoall"}
    for path in (src / "parallel").rglob("*.py"):
        hit = re.search(r"\bctx\b|_ctx|_CTX|\bcontext\b|\bsplit\(",
                        path.read_text())
        assert hit is None, f"{path} mentions a communicator context: {hit[0]}"
    for path in src.rglob("*.py"):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module or ""]
            else:
                imported = []
            assert "threading" not in imported, f"{path} imports threading"
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = node.args
                params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
                for banned in ("substrate", "faults"):
                    assert banned not in params, \
                        f"{path}:{node.lineno} {node.name}() takes {banned}="


def test_no_line_over_the_lint_limit():
    """Every ``.py`` line fits pyproject's ``[tool.ruff] line-length`` (the
    CI lint job's E501), checked here too so a build without ruff sees it."""
    import tomllib

    root = Path(__file__).resolve().parents[1]
    limit = tomllib.loads((root / "pyproject.toml").read_text())[
        "tool"]["ruff"]["line-length"]
    long_lines = [
        f"{path.relative_to(root)}:{n} ({len(line)})"
        for top in ("src", "tests", "benchmarks", "examples")
        for path in sorted((root / top).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > limit]
    assert not long_lines, long_lines


def test_one_legendre_contraction_census():
    """``atmosphere/spectral.py`` sums over latitude / total wavenumber in
    exactly two places — one ``matmul`` per direction, no ``einsum`` — and
    only the constructor consults the truncation mask (it zeroes the
    truncated slots of the tables).  Every operator goes through those two
    sites, so a change to how the Legendre sum is evaluated is made once
    per direction, not once per operator.  And the dynamical core has no
    Python loop over members: the member axis is a matmul broadcast axis
    (``for e in range(...)`` was how ``_implicit_update`` and ``_dsig_dot``
    kept batched == serial before epoch 2).
    """
    import ast

    atmosphere = Path(__file__).resolve().parents[1] / "src" / "repro" / "atmosphere"
    calls = {"matmul": [], "einsum": []}
    mask_readers = set()
    for fn in ast.walk(ast.parse((atmosphere / "spectral.py").read_text())):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and \
                    getattr(node.func, "attr", None) in calls:
                calls[node.func.attr].append(fn.name)
            if isinstance(node, ast.Attribute) and node.attr == "_mask" and \
                    isinstance(node.ctx, ast.Load):
                mask_readers.add(fn.name)
    assert sorted(calls["matmul"]) == ["_fourier_to_spec", "_spec_to_fourier"]
    assert calls["einsum"] == []
    assert mask_readers <= {"__init__"}, sorted(mask_readers)

    dynamics = ast.parse((atmosphere / "dynamics.py").read_text())
    member_loops = [
        getattr(node, "lineno", None) for node in ast.walk(dynamics)
        if isinstance(node, (ast.For, ast.comprehension))
        and isinstance(node.target, ast.Name) and node.target.id == "e"]
    assert member_loops == []
    assert not any(isinstance(node, ast.Call)
                   and getattr(node.func, "attr", None) == "einsum"
                   for node in ast.walk(dynamics))


@pytest.fixture(scope="module")
def serial_quarter_day_profile():
    from repro.core.config import test_config
    from repro.perf.report import profile_run
    from repro.runs import RunPlan

    profile, _result = profile_run(RunPlan(config=test_config(), days=0.25))
    return profile


def test_one_span_vocabulary_census(serial_quarter_day_profile):
    """``layer.phase`` is the only span vocabulary, and it is the ledger's.

    Every name given to ``profile_section`` / ``profiled`` under
    ``src/repro`` is a literal of that form; the profiler has no nesting
    paths to join or match; and a profiled serial run records every
    model-layer span ``benchmarks/e2e/tracing.py`` attributes time to
    (booked under the same layer), so a ``perf.report`` row and a
    ``--trace 1`` per-layer metric are one key.
    """
    import ast
    import importlib.util

    from repro.perf.profiler import layer_of

    root = Path(__file__).resolve().parents[1]
    for path in (root / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) in ("profile_section", "profiled"):
                (name,) = node.args
                assert isinstance(name, ast.Constant) and re.fullmatch(
                    r"[a-z]+\.[a-z0-9_]+", name.value), \
                    f"{path}:{node.lineno} span name is not a layer.phase literal"
    profiler = (root / "src" / "repro" / "perf" / "profiler.py").read_text()
    assert '"/"' not in profiler and "SEP" not in profiler

    tracing_py = root / "benchmarks" / "e2e" / "tracing.py"
    if not tracing_py.exists():
        pytest.skip("the ledger is not shipped with this checkout")
    spec = importlib.util.spec_from_file_location("e2e_tracing", tracing_py)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    model_spans = {
        name for name in tracing.SELF_TIME_METRIC
        if tracing.layer_of(name) in ("atmosphere", "coupler", "ocean")
        or name == "runs.coupled_step"}
    assert len(model_spans) == 18
    recorded = {s.name for s in serial_quarter_day_profile.sections}
    assert model_spans <= recorded, sorted(model_spans - recorded)
    assert all(layer_of(n) == tracing.layer_of(n) for n in recorded)


def test_span_self_times_sum_to_the_roots(serial_quarter_day_profile):
    """The ledger's accounting identity on a real run: self seconds over
    all rows add up to the root spans (``coupled_step`` is a serial run's
    only root), and the layer totals are exactly the four model layers."""
    profile = serial_quarter_day_profile
    assert sum(s.exclusive for s in profile.sections) == pytest.approx(
        profile["runs.coupled_step"].inclusive, abs=1e-9)
    layers = profile.layer_seconds()
    assert set(layers) == {"runs", "atmosphere", "coupler", "ocean"}
    assert sum(layers.values()) == pytest.approx(profile.accounted_seconds)


# ------------------------------------------------------------- tree walkers
def _container_dispatching_recursions(source: str) -> list[str]:
    """Names of self-recursive functions that dispatch on container type."""
    import ast

    def names_in(node):
        return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}

    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        calls = [n for n in ast.walk(fn) if isinstance(n, ast.Call)]
        recursive = any(
            getattr(c.func, "id", getattr(c.func, "attr", None)) == fn.name
            for c in calls)
        dispatches = any(
            getattr(c.func, "id", None) == "isinstance" and len(c.args) == 2
            and names_in(c.args[1]) & {"tuple", "list", "dict"}
            for c in calls)
        if recursive and dispatches:
            found.append(fn.name)
    return found


def test_tree_walker_census(tmp_path):
    """``repro/util/tree.py`` is the only recursive container walker.

    A second hand-written ``isinstance(obj, (tuple, list, dict))``
    recursion is a second place that must learn every new state field or
    payload shape; it belongs in a leaf function handed to ``tree_map``.
    """
    assert _container_dispatching_recursions(
        "def walk(o):\n"
        "    if isinstance(o, (list, dict)):\n"
        "        return [walk(x) for x in o]\n"
        "    return o\n") == ["walk"]          # the scan sees what it must
    src = Path(__file__).resolve().parents[1] / "src"
    offenders = {
        str(path.relative_to(src)): names
        for path in sorted(src.rglob("*.py"))
        if path.relative_to(src).as_posix() != "repro/util/tree.py"
        and (names := _container_dispatching_recursions(path.read_text()))}
    assert offenders == {}

    # ... and the checkpoint that walker writes drops no state array.
    from repro.core import FoamModel, save_restart, test_config
    from repro.util.tree import tree_leaves

    # (On the initial state and three steps in: radiation computed, the
    # forcing window part-full.)
    model = FoamModel(test_config())
    state = model.initial_state()
    for state in (state, model.run_days(state, 0.125)):
        with np.load(save_restart(tmp_path / "ckpt.npz", state)) as saved:
            for path, leaf in tree_leaves(state):
                if isinstance(leaf, np.ndarray):
                    key = ".".join(("state", *path))
                    assert key in saved.files, f"{key} missing from checkpoint"
                    assert np.array_equal(saved[key], leaf)
    assert state.coupler.forcing_steps == 3
    assert isinstance(state.radiation.sw_heat, np.ndarray)


# ------------------------------------------------------------- trajectory
def _attributes_written_outside_init(source: str) -> dict[str, set[str]]:
    """``{class: names}`` of every ``self.<name>`` a method other than
    ``__init__`` assigns, augments or stores into (``self.<name>[i] = x``)."""
    import ast

    found: dict[str, set[str]] = {}
    for cls in ast.walk(ast.parse(source)):
        if not isinstance(cls, ast.ClassDef):
            continue
        for fn in cls.body:
            if not isinstance(fn, ast.FunctionDef) or fn.name == "__init__":
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                else:
                    continue
                for target in targets:
                    for t in ast.walk(target):      # tuple targets too
                        while isinstance(t, ast.Subscript):
                            t = t.value
                        if isinstance(t, ast.Attribute) and \
                                getattr(t.value, "id", None) == "self":
                            found.setdefault(cls.name, set()).add(t.attr)
    return found


def test_no_trajectory_on_model_objects_census():
    """What evolves is a leaf of ``FoamState``; a model object holds static
    data, derived caches rebuilt from a checked key, and counters (DESIGN.md
    "State layout").  So outside ``__init__`` the component classes assign
    only the attributes listed here, each for the reason beside it — a new
    entry is a value some later step may read off the object instead of the
    state, which is what pinned checkpoints to half-day boundaries before
    PR 22."""
    assert _attributes_written_outside_init(
        "class Sample:\n"
        "    def __init__(self):\n"
        "        self.static = 1\n"
        "    def step(self, x):\n"
        "        self._cached = x\n"
        "        self.table[0] = x\n"
        "        self.count += 1\n") == {
            "Sample": {"_cached", "table", "count"}}   # the scan sees them

    allowed = {
        # What a step leaves behind for watchers is state too
        # (``coupler.precip`` / ``.evap``): an observer reads the state.
        "FoamModel": set(),
        "PhysicsSuite": set(),
        "FluxCoupler": {
            # The exchange plan: rebuilt when its key, a copy of the ice
            # mask it was derived from, differs from the state's mask.
            "_plan", "_plan_key",
            "plans_built", "plan_requests"},        # counters
        "RiverModel": set(),
        "SeaIceModel": set(),
        "LandModel": set(),
        "OceanModel": {"op_count"},                 # counter
        "SlabOceanModel": {"op_count"},             # counter
        "BarotropicSolver": set(),
        "SpectralDynamicalCore": {
            # The semi-implicit inverses, rebuilt from dt (their key) ...
            "_inv", "_n_of_slot", "_hyper_denom",
            # ... which _forward_start halves and restores around its
            # one forward half step.
            "dt"},
    }
    src = Path(__file__).resolve().parents[1] / "src" / "repro"
    written: dict[str, set[str]] = {}
    for path in src.rglob("*.py"):
        for cls, names in _attributes_written_outside_init(
                path.read_text()).items():
            if cls in allowed:
                written.setdefault(cls, set()).update(names)
    assert set(written) <= set(allowed)
    for cls, names in allowed.items():
        assert written.get(cls, set()) == names, cls
        assert not [n for n in names
                    if n.startswith("last_") or "diagnostics" in n], cls
