"""Batched ensemble execution: N coupled members as one leading array axis.

The ROADMAP's serving target is mostly the *same* model run under perturbed
initial conditions and parameter knobs, so the biggest throughput lever is
amortizing every Legendre matmul, semi-implicit solve, and physics column
across an ensemble batch instead of looping N sequential runs (the
batch-first design NeuralGCM demonstrates for a GCM core).

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

import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.atmosphere.dynamics import AtmosphereState
from repro.backend import weak_scalar
from repro.core.config import FoamConfig, test_config
from repro.core.foam import FoamModel, FoamState
from repro.util.tree import tree_map

__all__ = ["EnsembleConfig", "FoamEnsemble", "promote_member_values",
           "stack_members", "member_state"]


def promote_member_values(value, nens: int, dtype) -> float | np.ndarray:
    """Promote a scalar config knob to a broadcastable per-member array.

    Scalars (python numbers and 0-d arrays) collapse to python floats so the
    shared-knob path stays operation-identical to the serial model
    (:func:`repro.backend.weak_scalar`).  Length-``nens`` sequences become
    ``(nens, 1, 1)`` arrays of the policy float dtype, shaped to broadcast
    against both grid ``(..., E, nlat, nlon)`` and spectral
    ``(..., E, nm, nk)`` member layouts.
    """
    arr = weak_scalar(np.asarray(value, dtype=dtype))
    if not isinstance(arr, np.ndarray):
        return arr
    if arr.shape != (nens,):
        raise ValueError(f"per-member value must be a scalar or a length-"
                         f"{nens} sequence, got shape {arr.shape}")
    return arr.reshape(nens, 1, 1)


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

    ``robert_filter`` / ``sst_clamp`` may be scalars (shared by all members)
    or length-``nens`` sequences (promoted to ``(nens, 1, 1)`` broadcast
    arrays).  ``ic_perturbation`` is the amplitude of per-member rotational
    spectral noise added to the initial vorticity; 0 makes every member
    bitwise-identical.
    """

    nens: int = 4
    base: FoamConfig | None = None
    ic_perturbation: float = 0.0
    perturb_seed: int = 100
    robert_filter: float | Sequence[float] | None = None
    sst_clamp: float | Sequence[float] | None = None


class FoamEnsemble:
    """N coupled FOAM members advanced as one batch through ``coupled_step``.

    One :class:`FoamModel` instance owns the (member-shape-aware) components;
    the batched state carries the member axis and every hot kernel operates
    on all members at once, reusing the workspace arena with ensemble-shaped
    buffers.
    """

    def __init__(self, config: EnsembleConfig | None = None, **kwargs):
        self.config = config if config is not None else EnsembleConfig(**kwargs)
        cfg = self.config
        self.nens = int(cfg.nens)
        if self.nens < 1:
            raise ValueError(f"nens must be >= 1, got {cfg.nens}")
        base = cfg.base if cfg.base is not None else test_config()
        self.model = FoamModel(base)
        fdt = self.model.policy.float_dtype

        robert = (base.robert_filter if cfg.robert_filter is None
                  else cfg.robert_filter)
        self._robert = promote_member_values(robert, self.nens, fdt)
        self.model.dycore.robert = self._robert

        clamp = (self.model.ocean.params.sst_clamp if cfg.sst_clamp is None
                 else cfg.sst_clamp)
        self._sst_clamp = promote_member_values(clamp, self.nens, fdt)
        if isinstance(self._sst_clamp, np.ndarray):
            # Replace rather than mutate: ``base.ocean_params`` may be shared
            # with the caller's config object.
            self.model.ocean.params = dataclasses.replace(
                self.model.ocean.params, sst_clamp=self._sst_clamp)

    # ------------------------------------------------------------------
    def _member_scalar(self, promoted, e: int) -> float:
        if isinstance(promoted, np.ndarray):
            return float(promoted[e, 0, 0])
        return promoted

    def member_config(self, e: int) -> FoamConfig:
        """The serial :class:`FoamConfig` equivalent to batch member ``e``.

        Used by the equivalence tests and the sequential benchmark baseline:
        a serial model built from this config must reproduce member ``e``
        bitwise (at zero perturbation).
        """
        base = self.model.config
        params = dataclasses.replace(
            base.ocean_params,
            sst_clamp=self._member_scalar(self._sst_clamp, e))
        return dataclasses.replace(
            base, robert_filter=self._member_scalar(self._robert, e),
            ocean_params=params)

    # ------------------------------------------------------------------
    def initial_state(self, seed: int | None = None) -> FoamState:
        """Batched initial state: N serial member states, stacked.

        Members are built one at a time with their *serial* per-member knobs
        (the leapfrog forward start runs inside), then stacked along the
        member axis — so member ``e`` starts from exactly the state a
        standalone run with ``member_config(e)`` would.
        """
        m = self.model
        base_seed = m.config.seed if seed is None else seed
        amp = float(self.config.ic_perturbation)
        saved_robert = m.dycore.robert
        members = []
        try:
            for e in range(self.nens):
                m.dycore.robert = self._member_scalar(self._robert, e)
                perturb = self._ic_perturbation(e, amp) if amp > 0 else None
                members.append(m.initial_state(seed=base_seed, perturb=perturb))
        finally:
            m.dycore.robert = saved_robert
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
