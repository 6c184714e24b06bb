"""Batched ensemble execution (repro.core.ensemble).

The load-bearing guarantee: a zero-perturbation batch of N members is
bitwise float64-identical, member for member, to N independent serial runs
— batching is a pure throughput optimization, never a trajectory change.
"""

import numpy as np
import pytest

from repro.backend import workspace_totals
from repro.core import (EnsembleConfig, FoamEnsemble, FoamModel, member_state,
                        stack_members)
from repro.core import test_config as _test_config
from repro.util.tree import tree_leaves
from tests.helpers import assert_trees_identical, leaf_name

NENS = 3
STEPS = 3


def _serial_run(cfg, steps, seed=None):
    model = FoamModel(cfg)
    state = model.initial_state(seed=seed)
    for _ in range(steps):
        state = model.coupled_step(state)
    return model, state


class TestBitwiseEquivalence:
    def test_zero_perturbation_matches_serial(self):
        """N identical members batched == N serial runs, bit for bit."""
        cfg = _test_config()
        cfg.dtype = "float64"
        ens = FoamEnsemble(EnsembleConfig(nens=NENS, base=cfg))
        bstate = ens.initial_state()
        assert bstate.atm_curr.vort.shape[1] == NENS
        for _ in range(STEPS):
            bstate = ens.step(bstate)

        scfg = _test_config()
        scfg.dtype = "float64"
        _, sstate = _serial_run(scfg, STEPS)
        for e in range(NENS):
            assert_trees_identical(ens.member_state(bstate, e), sstate,
                                   f"member {e}")

    def test_stack_unstack_roundtrip(self):
        cfg = _test_config()
        model = FoamModel(cfg)
        states = [model.initial_state(seed=s) for s in (1, 2)]
        batched = stack_members(states)
        for e, want in enumerate(states):
            got = member_state(batched, e)
            assert_trees_identical(got, want, f"member {e}")


class TestPerturbedEnsemble:
    def test_perturbed_members_diverge(self):
        ens = FoamEnsemble(EnsembleConfig(nens=2, base=_test_config(),
                                          ic_perturbation=1e-7))
        state = ens.initial_state()
        for _ in range(STEPS):
            state = ens.step(state)
        m0 = ens.member_state(state, 0)
        m1 = ens.member_state(state, 1)
        # Different noise realizations: trajectories must have separated.
        assert not np.array_equal(m0.atm_curr.vort, m1.atm_curr.vort)
        assert np.max(np.abs(m0.atm_curr.vort - m1.atm_curr.vort)) > 0
        # ... while every field stays finite.
        for path, leaf in tree_leaves(m0):
            assert np.all(np.isfinite(leaf)), f"{leaf_name(path)} not finite"

    def test_zero_perturbation_members_identical(self):
        ens = FoamEnsemble(EnsembleConfig(nens=2, base=_test_config()))
        state = ens.initial_state()
        for _ in range(2):
            state = ens.step(state)
        m0 = ens.member_state(state, 0)
        m1 = ens.member_state(state, 1)
        assert_trees_identical(m0, m1, "members differ")


class TestBatchedDiagnostics:
    @pytest.mark.parametrize("nens", [3, 5])
    def test_budget_diagnostics_are_per_member(self, nens):
        """Each budget scalar of a batched state is the ``(nens,)`` vector of
        its members' serial values, bit for bit.  ``global_mean`` used to sum
        over the members, and the ocean volume sums broadcast ``(L, ny, nx)``
        against ``(L, E, ny, nx)`` — an error, or garbage when
        ``nens == ocn_nlev`` (5 on the test grid)."""
        cfg = _test_config()
        assert cfg.ocn_nlev == 5
        ens = FoamEnsemble(EnsembleConfig(nens=nens, base=cfg,
                                          ic_perturbation=1e-7))
        state = ens.step(ens.initial_state())
        dycore, ocean = ens.model.dycore, ens.model.ocean
        diagnostics = {
            "global_mass": lambda s: dycore.global_mass(s.atm_curr),
            "total_energy": lambda s: dycore.total_energy(s.atm_curr),
            "mean_temperature": lambda s: ocean.mean_temperature(s.ocean),
            "mean_salinity": lambda s: ocean.mean_salinity(s.ocean),
            "total_kinetic_energy":
                lambda s: ocean.total_kinetic_energy(s.ocean),
        }
        for name, diagnostic in diagnostics.items():
            batched = diagnostic(state)
            assert np.shape(batched) == (nens,), name
            for e in range(nens):
                serial = diagnostic(ens.member_state(state, e))
                assert isinstance(serial, float), name
                assert batched[e] == serial, f"{name}, member {e}"


class TestWorkspaceReuse:
    def test_hit_rate_survives_ensemble_shapes(self):
        """Ensemble-shaped buffers miss once, then hit: the arena's >99%
        steady-state hit rate survives the member axis."""
        ens = FoamEnsemble(EnsembleConfig(nens=4, base=_test_config()))
        state = ens.initial_state()
        state = ens.step(state)          # warm the arena with batched shapes
        before = workspace_totals()
        for _ in range(3):
            state = ens.step(state)
        after = workspace_totals()
        hits = after["hits"] - before["hits"]
        misses = after["misses"] - before["misses"]
        assert hits > 0
        assert hits / (hits + misses) > 0.99, (hits, misses)


class TestFloat32Ensemble:
    def test_float32_batch_bounded_drift(self):
        """Mirrors test_backend.TestFloat32Integration for the batched path:
        same dtype guarantees, bounded conserved-quantity drift vs float64."""
        steps = 12

        def run(dtype):
            cfg = _test_config()
            cfg.dtype = dtype
            ens = FoamEnsemble(EnsembleConfig(nens=2, base=cfg))
            state = ens.initial_state()
            for _ in range(steps):
                state = ens.step(state)
            return ens, state

        ens64, s64 = run("float64")
        ens32, s32 = run("float32")

        assert s32.atm_curr.vort.dtype == np.complex64
        assert s32.atm_curr.q.dtype == np.float32
        assert s32.ocean.temp.dtype == np.float32
        assert s64.atm_curr.vort.dtype == np.complex128

        m64 = ens64.member_state(s64, 0)
        m32 = ens32.member_state(s32, 0)
        mass64 = ens64.model.dycore.global_mass(m64.atm_curr)
        mass32 = ens32.model.dycore.global_mass(m32.atm_curr)
        assert np.isfinite(mass32)
        assert abs(mass32 - mass64) / abs(mass64) < 1e-4

        e64 = ens64.model.dycore.total_energy(m64.atm_curr)
        e32 = ens32.model.dycore.total_energy(m32.atm_curr)
        assert np.isfinite(e32)
        assert abs(e32 - e64) / abs(e64) < 1e-3

        for arr in (s32.atm_curr.temp, s32.atm_curr.q, s32.ocean.temp,
                    s32.ocean.salt, s32.ocean.eta):
            assert np.all(np.isfinite(arr))


class TestEnsembleAPI:
    def test_kwargs_construction_and_defaults(self):
        """One constructor form: an :class:`EnsembleConfig`, whose fields do
        not pass through ``**kwargs``; ``base`` defaults to the test
        config."""
        with pytest.raises(TypeError):
            FoamEnsemble(nens=2, base=_test_config())
        default_base = FoamEnsemble(EnsembleConfig(nens=1))
        assert default_base.nens == 1
        assert (default_base.model.config.atm_nlat
                == _test_config().atm_nlat)

    def test_run_days_advances_all_members(self):
        ens = FoamEnsemble(EnsembleConfig(nens=2, base=_test_config()))
        state = ens.initial_state()
        dt = ens.model.config.atm_dt
        out = ens.run_days(state, 2 * dt / 86400.0)
        assert out.time == pytest.approx(state.time + 2 * dt)
        assert out.atm_curr.vort.shape[1] == 2

    def test_invalid_arguments_raise(self):
        with pytest.raises(ValueError, match="nens"):
            FoamEnsemble(EnsembleConfig(nens=0, base=_test_config()))
        with pytest.raises(ValueError, match="at least one"):
            stack_members([])
        ens = FoamEnsemble(EnsembleConfig(nens=2, base=_test_config()))
        state = ens.initial_state()
        with pytest.raises(IndexError):
            ens.member_state(state, 2)
