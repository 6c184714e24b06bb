"""The run's health check: a non-finite state fails the run loudly.

A model state that has gone NaN keeps stepping — every later step is NaN
too — and a run that only reports at the end prints ``nan`` and exits 0.
:func:`drive_steps` therefore checks the whole state at every coupling
boundary (once per ocean window) and stops at the first window that ends
non-finite, with one :class:`NonFiniteStateError` that says where.

The check costs one reduction per leaf: a leaf's sum is finite exactly
when every element is (a NaN or an infinity propagates; only an overflow
of finite values could make the sum non-finite, and then the elementwise
pass below finds nothing and the leaf passes).
"""

from __future__ import annotations

import numpy as np

from repro.util.tree import tree_leaves

__all__ = ["NonFiniteStateError", "check_finite"]


class NonFiniteStateError(FloatingPointError):
    """A state leaf holds a NaN or an infinity.

    ``path`` is the leaf's dotted path in the state tree (the first bad leaf
    in tree order), ``member`` the ensemble member of its first bad value
    (``None`` for a serial state), ``index`` that value's position in one
    member's field — (level, lat, lon) for a grid field, (level, m, n) for
    spectral coefficients, without the level for a single-level field —
    and ``step`` / ``time`` (s) the coupled step the check ran after.
    """

    def __init__(self, path: str, member: int | None, index: tuple,
                 step: int, time: float, n_bad: int):
        self.path, self.member, self.index = path, member, index
        self.step, self.time, self.n_bad = step, time, n_bad
        where = "" if member is None else f"member {member}, "
        super().__init__(
            f"non-finite state at step {step} (day {time / 86400.0:.4f}): "
            f"{path} holds {n_bad} non-finite value(s), the first at "
            f"{where}index {index}")


def check_finite(state, step: int) -> None:
    """Raise :class:`NonFiniteStateError` unless every float leaf of
    ``state`` is finite.

    A batched state (an ``lnps`` with a member axis) carries its members
    third from last on every leaf (:mod:`repro.core.ensemble`).
    """
    batched = state.atm_curr.lnps.ndim == 3
    for path, leaf in tree_leaves(state):
        if not (isinstance(leaf, np.ndarray) and leaf.dtype.kind in "fc"):
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(np.sum(leaf)):
                continue
        bad = ~np.isfinite(leaf)
        if not bad.any():
            continue
        index = np.unravel_index(int(np.argmax(bad)), leaf.shape)
        member = None
        if batched:
            member = int(index[-3])
            index = index[:-3] + index[-2:]
        raise NonFiniteStateError(".".join(map(str, path)), member,
                                  tuple(int(i) for i in index), step,
                                  float(state.time), int(bad.sum()))
