"""The one tree walker (repro.util.tree) and the state operations built on it.

Stacking members, extracting one, copying and checkpointing a coupled state
are all ``tree_map`` / ``tree_leaves`` calls, so none of them names a state
field: the last test adds a field in a test-local subclass and every one of
those operations carries it without any edit under ``src/``.  Runs under
``FOAM_DTYPE=float32`` too (float32 / complex64 leaves keep their dtype).
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import (
    EnsembleConfig,
    FoamEnsemble,
    FoamModel,
    load_checkpoint,
    member_state,
    save_restart,
    stack_members,
)
from repro.core import test_config as _test_config
from repro.core.foam import FoamState
from repro.ocean.model import OceanState
from repro.util.tree import tree_leaves, tree_map, tree_skeleton, tree_unflatten
from tests.helpers import assert_trees_identical


# ----------------------------------------------------------------------
# the walker itself
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Pair:
    left: object
    right: object = None


@dataclasses.dataclass(frozen=True)
class Frozen:
    item: object


_arrays = hnp.arrays(
    dtype=st.sampled_from([np.float32, np.float64, np.complex64, np.bool_]),
    shape=hnp.array_shapes(min_dims=1, max_dims=3, max_side=3))
_scalars = st.one_of(st.none(), st.integers(-5, 5), st.text(max_size=3),
                     st.floats(allow_nan=False))
_trees = st.recursive(
    st.one_of(_scalars, _arrays),
    lambda kids: st.one_of(
        st.lists(kids, max_size=3),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=2), st.integers(0, 3)),
                        kids, max_size=3),
        st.builds(Pair, kids, kids),
        st.builds(Frozen, kids)),
    max_leaves=12)


def _blanked(tree):
    """``tree`` with None at every leaf: ``==`` then compares structure only."""
    return tree_unflatten(tree, ((p, None) for p, _ in tree_leaves(tree)))


@settings(max_examples=150, deadline=None)
@given(_trees)
def test_unflatten_inverts_leaves(tree):
    leaves = list(tree_leaves(tree))
    assert len({path for path, _ in leaves}) == len(leaves)   # paths unique
    rebuilt = tree_unflatten(tree, leaves)
    assert_trees_identical(rebuilt, tree)
    # Container types survive: list stays list, tuple tuple, Pair Pair.
    assert _blanked(rebuilt) == _blanked(tree)
    if not any(isinstance(leaf, np.ndarray) for _, leaf in leaves):
        assert rebuilt == tree


@settings(max_examples=100, deadline=None)
@given(_trees)
def test_map_touches_arrays_and_passes_everything_else_through(tree):
    copied = tree_map(np.ndarray.copy, tree)
    assert_trees_identical(copied, tree)
    for (_, new), (_, old) in zip(tree_leaves(copied), tree_leaves(tree)):
        if isinstance(old, np.ndarray):
            assert new is not old
        else:
            assert new is old


def test_map_over_several_trees_and_custom_leaves():
    a = {"x": np.arange(3.0), "n": None, "p": Pair(np.ones(2), 7)}
    b = {"x": np.full(3, 10.0), "n": "ignored", "p": Pair(np.ones(2), 8)}
    total = tree_map(np.add, a, b)
    assert np.array_equal(total["x"], [10.0, 11.0, 12.0])
    assert total["n"] is None and total["p"].right == 7     # first tree's
    assert np.array_equal(total["p"].left, [2.0, 2.0])
    # ``is_leaf`` replaces the ndarray test: a Pair can be made atomic.
    def is_pair(node):
        return isinstance(node, Pair)

    assert [path for path, leaf in tree_leaves(a, is_leaf=is_pair)
            if is_pair(leaf)] == [("p",)]
    swapped = tree_map(lambda p: Pair(p.right, p.left), a, is_leaf=is_pair)
    assert swapped["p"].left == 7 and swapped["x"] is a["x"]
    # Frozen dataclasses and subclasses rebuild as themselves.
    doubled = tree_map(lambda arr: arr * 2, Frozen(np.ones(2)))
    assert type(doubled) is Frozen and doubled.item.tolist() == [2.0, 2.0]


def test_skeleton_follows_the_annotations():
    blank = tree_skeleton(FoamState)
    assert type(blank.coupler.hydrology).__name__ == "HydrologyState"
    assert all(leaf is None for _, leaf in tree_leaves(blank))
    state = FoamModel(_test_config()).initial_state()
    assert ([path for path, _ in tree_leaves(blank)]
            == [path for path, _ in tree_leaves(state)])


# ----------------------------------------------------------------------
# state operations
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def model():
    return FoamModel(_test_config())


@pytest.fixture(scope="module")
def members(model):
    states = [model.initial_state(seed=seed) for seed in (1, 2, 3)]
    return [model.coupled_step(s) for s in states]


def test_a_step_keeps_the_coupler_tree_shape_and_dtype(model, members):
    """Every coupler leaf is allocated at t = 0 as a step will leave it —
    the forcing window and the last step's rain and evaporation are zeros
    there, never ``None`` — so a history of any of them starts at t = 0."""
    def layout(state):
        return [(path, getattr(leaf, "shape", None), getattr(leaf, "dtype", None))
                for path, leaf in tree_leaves(state.coupler)]

    start = model.initial_state()
    assert not start.coupler.precip.any() and not start.coupler.evap.any()
    assert layout(members[0]) == layout(start)
    assert members[0].coupler.evap.any()


def test_member_of_stacked_is_the_member(members):
    batched = stack_members(members)
    assert batched.atm_curr.vort.shape[1] == 3          # after the level axis
    assert batched.atm_curr.lnps.shape[0] == 3          # leading elsewhere
    assert batched.coupler.land.soil_temp.shape[1] == 3
    for e, want in enumerate(members):
        assert_trees_identical(member_state(batched, e), want, f"member {e}")
    assert not np.shares_memory(member_state(batched, 0).ocean.temp,
                                batched.ocean.temp)


def test_state_copies_are_deep(members):
    state = members[0]
    for part in (state.atm_curr, state.ocean):
        dup = part.copy()
        assert type(dup) is type(part)
        assert_trees_identical(dup, part)
        for (_, new), (_, old) in zip(tree_leaves(dup), tree_leaves(part)):
            if isinstance(old, np.ndarray):
                assert not np.shares_memory(new, old)


def _without_rivers(state):
    return dataclasses.replace(state, coupler=dataclasses.replace(
        state.coupler, river_volume=None))


@pytest.mark.parametrize("kind", ["serial", "batched", "no_rivers"])
def test_checkpoint_roundtrip_is_bitwise(tmp_path, members, kind):
    if kind == "batched":
        ens = FoamEnsemble(EnsembleConfig(nens=3, base=_test_config(),
                                          ic_perturbation=1e-7))
        state = ens.step(ens.initial_state())
    else:
        state = members[0] if kind == "serial" else _without_rivers(members[0])
    loaded = load_checkpoint(save_restart(tmp_path / f"{kind}.npz", state))[0]
    assert_trees_identical(loaded, state, kind)        # dtypes included
    assert isinstance(loaded.time, float)
    # One step in: radiation computed, the forcing window part-full.
    assert loaded.radiation.sw_heat is not None and loaded.radiation.time == 0.0
    assert loaded.coupler.forcing_steps == 1
    if kind == "no_rivers":
        assert loaded.coupler.river_volume is None


# ----------------------------------------------------------------------
# a new prognostic field needs no edit under src/
# ----------------------------------------------------------------------
@dataclasses.dataclass
class TracerOcean(OceanState):
    tracer: np.ndarray | None = None     # (L, ny, nx), like temp


def _with_tracer(state, value):
    ocean = TracerOcean(**{f.name: getattr(state.ocean, f.name)
                           for f in dataclasses.fields(state.ocean)},
                        tracer=np.full_like(state.ocean.temp, value))
    return dataclasses.replace(state, ocean=ocean)


def test_extra_field_is_stacked_copied_and_checkpointed(tmp_path, model,
                                                        members):
    tagged = [_with_tracer(s, float(e)) for e, s in enumerate(members)]

    batched = stack_members(tagged)
    assert type(batched.ocean) is TracerOcean
    assert batched.ocean.tracer.shape == batched.ocean.temp.shape
    for e, want in enumerate(tagged):
        got = member_state(batched, e)
        assert type(got.ocean) is TracerOcean
        assert_trees_identical(got, want, f"member {e}")

    dup = tagged[1].ocean.copy()
    assert type(dup) is TracerOcean
    assert np.array_equal(dup.tracer, tagged[1].ocean.tracer)
    assert not np.shares_memory(dup.tracer, tagged[1].ocean.tracer)

    # The ocean step carries the field along with the rest of the state.
    from repro.ocean.model import OceanForcing
    g = model.ocean_grid
    stepped = model.ocean.step(tagged[2].ocean, OceanForcing.zeros(
        g.ny, g.nx, dtype=model.policy.float_dtype))
    assert np.array_equal(stepped.tracer, tagged[2].ocean.tracer)

    path = save_restart(tmp_path / "tracer.npz", batched)
    # load_checkpoint rebuilds the FoamState schema ...
    assert_trees_identical(load_checkpoint(path)[0].ocean.temp,
                           batched.ocean.temp)
    # ... and the file holds every leaf of the extended one, bit for bit.
    with np.load(path) as saved:
        for leaf_path, leaf in tree_leaves(batched):
            key = ".".join(("state", *leaf_path))
            assert np.array_equal(saved[key], leaf), key
        assert "state.ocean.tracer" in saved.files
