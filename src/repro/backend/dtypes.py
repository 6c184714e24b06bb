"""Precision policy: one object naming the float/complex pair in use.

The model was written float64-only; the policy threads a single choice
of working precision through every constructor that used to hard-code
``np.float64`` / ``dtype=complex``.  Selection order:

1. an explicit ``DTypePolicy`` passed to a constructor
   (``FoamConfig.dtype`` resolves to one),
2. the ``FOAM_DTYPE`` environment variable (``float32``/``float64``,
   with ``f32``/``single``/``f64``/``double`` accepted as aliases),
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
    "default_policy", "weak_scalar",
]


@dataclass(frozen=True)
class DTypePolicy:
    """An immutable float/complex dtype pair with byte-size metadata."""

    name: str
    float_dtype: np.dtype
    complex_dtype: np.dtype

    @property
    def float_bytes(self) -> int:
        return self.float_dtype.itemsize

    @property
    def complex_bytes(self) -> int:
        return self.complex_dtype.itemsize

    def asfloat(self, arr: np.ndarray) -> np.ndarray:
        """Cast to the policy float dtype; identity (no copy) if already there."""
        return np.asarray(arr).astype(self.float_dtype, copy=False)

    def ascomplex(self, arr: np.ndarray) -> np.ndarray:
        """Cast to the policy complex dtype; identity (no copy) if already there."""
        return np.asarray(arr).astype(self.complex_dtype, copy=False)


def weak_scalar(value):
    """``value`` as a python float unless it is an array with >= 1 axis.

    A python float never decides a result dtype; a 0-d float64 array (or a
    NumPy scalar) would silently upcast every float32/complex64 field it
    meets.  Per-member knob arrays (``(nens, 1, 1)``) pass through.
    """
    if isinstance(value, np.ndarray) and value.ndim:
        return value
    return float(value)


FLOAT64 = DTypePolicy("float64", np.dtype(np.float64), np.dtype(np.complex128))
FLOAT32 = DTypePolicy("float32", np.dtype(np.float32), np.dtype(np.complex64))

_ALIASES = {
    "float64": FLOAT64, "f64": FLOAT64, "double": FLOAT64, "fp64": FLOAT64,
    "float32": FLOAT32, "f32": FLOAT32, "single": FLOAT32, "fp32": FLOAT32,
}


def policy_from_name(name: str | DTypePolicy | None) -> DTypePolicy:
    """Resolve a dtype name (or pass through a policy / None -> default)."""
    if name is None:
        return default_policy()
    if isinstance(name, DTypePolicy):
        return name
    try:
        return _ALIASES[str(name).strip().lower()]
    except KeyError:
        raise ValueError(
            f"unknown dtype policy {name!r}; expected one of {sorted(_ALIASES)}"
        ) from None


def default_policy() -> DTypePolicy:
    """The ambient policy: FOAM_DTYPE if set, else float64."""
    env = os.environ.get("FOAM_DTYPE")
    if env:
        return policy_from_name(env)
    return FLOAT64
