"""Batched ensemble execution: N coupled members as one leading array axis.

The ROADMAP's serving target is mostly the *same* model run under perturbed
initial conditions, so the biggest throughput lever is amortizing every
Legendre matmul, semi-implicit solve, and physics column across an ensemble
batch instead of looping N sequential runs (the batch-first design
NeuralGCM demonstrates for a GCM core).

Layout convention: the member axis sits directly after the level axis —
third from last — everywhere:

* spectral state ``(L, E, nm, nk)``, surface spectral ``(E, nm, nk)``;
* grid fields ``(L, E, nlat, nlon)``, surface grid ``(E, nlat, nlon)``;
* ocean 3-D ``(L, E, ny, nx)``, 2-D ``(E, ny, nx)``;
* soil ``(NSOIL, E, nlat, nlon)``.

That keeps every level contraction (``tensordot`` over axis 0) and every
horizontal kernel (last two axes) shape-generic, and makes the member slice
``[..., e, :, :]`` a view of any leaf.

Correctness contract (regression-tested in ``tests/test_ensemble.py``): a
zero-perturbation batch of N members is **bitwise float64-identical** per
member to N independent serial runs.  Every batched kernel therefore runs
the identical operation sequence per member: the member axis is a matmul
broadcast axis of every spectral contraction, never a GEMM dimension, and
the river routing loops over members where a whole-batch accumulation
would reorder its sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.atmosphere.dynamics import AtmosphereState
from repro.core.config import FoamConfig, test_config
from repro.core.foam import FoamModel, FoamState
from repro.util.tree import tree_map

__all__ = ["EnsembleConfig", "FoamEnsemble", "stack_members", "member_state"]


# ----------------------------------------------------------------------
# state stacking / unstacking: the member axis is third from last on
# every leaf, so neither direction needs to know the state's fields
# ----------------------------------------------------------------------
def stack_members(members: Sequence[FoamState]) -> FoamState:
    """Stack per-member serial states into one batched :class:`FoamState`.

    Every array gains the member axis third from last (after the level
    axis of level-major arrays, leading everywhere else); ``time`` and
    absent (``None``) leaves are taken from the first member.
    """
    if not members:
        raise ValueError("need at least one member state")
    return tree_map(lambda *arrays: np.stack(arrays, axis=-3), *members)


def member_state(state: FoamState, e: int) -> FoamState:
    """Extract member ``e`` of a batched state as an independent serial state."""
    return tree_map(lambda a: a[..., e, :, :].copy(), state)


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
@dataclass
class EnsembleConfig:
    """Configuration of a batched member ensemble.

    Every member runs ``base``.  ``ic_perturbation`` is the amplitude of
    per-member rotational spectral noise added to the initial vorticity
    (member ``e`` draws it with seed ``perturb_seed + e``); 0 makes every
    member bitwise-identical.
    """

    nens: int = 4
    base: FoamConfig | None = None
    ic_perturbation: float = 0.0
    perturb_seed: int = 100


class FoamEnsemble:
    """N coupled FOAM members advanced as one batch through ``coupled_step``.

    One :class:`FoamModel` instance owns the (member-shape-aware) components;
    the batched state carries the member axis and every hot kernel operates
    on all members at once, reusing the workspace arena with ensemble-shaped
    buffers.
    """

    def __init__(self, config: EnsembleConfig):
        self.config = config
        self.nens = int(config.nens)
        if self.nens < 1:
            raise ValueError(f"nens must be >= 1, got {config.nens}")
        self.model = FoamModel(config.base if config.base is not None
                               else test_config())

    # ------------------------------------------------------------------
    def initial_state(self, seed: int | None = None) -> FoamState:
        """Batched initial state: N serial member states, stacked.

        Members are built one at a time (the leapfrog forward start runs
        inside), then stacked along the member axis — so member ``e`` starts
        from exactly the state a standalone run handed the same
        perturbation would.
        """
        m = self.model
        base_seed = m.config.seed if seed is None else seed
        amp = float(self.config.ic_perturbation)
        members = [m.initial_state(seed=base_seed,
                                   perturb=(self._ic_perturbation(e, amp)
                                            if amp > 0 else None))
                   for e in range(self.nens)]
        return stack_members(members)

    def _ic_perturbation(self, e: int, amplitude: float):
        cdt = self.model.policy.complex_dtype
        seed = self.config.perturb_seed + e

        def perturb(atm: AtmosphereState) -> None:
            rng = np.random.default_rng(seed)
            noise = (rng.normal(size=atm.vort.shape)
                     + 1j * rng.normal(size=atm.vort.shape)) * amplitude
            noise[:, 0, :] = noise[:, 0, :].real    # zonal coeffs stay real
            atm.vort += noise.astype(cdt)

        return perturb

    # ------------------------------------------------------------------
    def step(self, state: FoamState) -> FoamState:
        """Advance all members by one coupled (atmosphere) step."""
        return self.model.coupled_step(state)

    def run_days(self, state: FoamState, days: float,
                 observers: tuple = ()) -> FoamState:
        """Integrate the whole batch for ``days`` simulated days.

        Runs the same harness stepping loop as the serial model;
        observers see the *batched* state, so history snapshots carry the
        member axis natively.
        """
        return self.model.run_days(state, days, observers=observers)

    def member_state(self, state: FoamState, e: int) -> FoamState:
        """Member ``e`` of a batched state as an independent serial state."""
        if not 0 <= e < self.nens:
            raise IndexError(f"member {e} out of range for nens={self.nens}")
        return member_state(state, e)
