"""Precision policy: one object naming the float/complex pair in use.

The model was written float64-only; the policy threads a single choice
of working precision through every constructor that used to hard-code
``np.float64`` / ``dtype=complex``.  Selection order:

1. an explicit ``DTypePolicy`` passed to a constructor
   (``FoamConfig.dtype`` resolves to one),
2. the ``FOAM_DTYPE`` environment variable (``float32`` or ``float64``),
3. float64 (the seed behaviour — bitwise identical to the pre-backend
   code).

Solver tables (Legendre recurrences, implicit-inverse matrices,
tridiagonal coefficients) are always *built* in float64 for stability
and only cast down on the way into policy-dtype storage.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DTypePolicy", "FLOAT32", "FLOAT64", "policy_from_name",
    "default_policy",
]


@dataclass(frozen=True)
class DTypePolicy:
    """An immutable float/complex dtype pair with byte-size metadata."""

    name: str
    float_dtype: np.dtype
    complex_dtype: np.dtype


FLOAT64 = DTypePolicy("float64", np.dtype(np.float64), np.dtype(np.complex128))
FLOAT32 = DTypePolicy("float32", np.dtype(np.float32), np.dtype(np.complex64))

_BY_NAME = {"float64": FLOAT64, "float32": FLOAT32}


def policy_from_name(name: str | DTypePolicy | None) -> DTypePolicy:
    """Resolve a dtype name (or pass through a policy / None -> default)."""
    if name is None:
        return default_policy()
    if isinstance(name, DTypePolicy):
        return name
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(
            f"unknown dtype policy {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None


def default_policy() -> DTypePolicy:
    """The ambient policy: FOAM_DTYPE if set, else float64."""
    env = os.environ.get("FOAM_DTYPE")
    if env:
        return policy_from_name(env)
    return FLOAT64
