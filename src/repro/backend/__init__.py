"""Precision policy + preallocated workspaces.

Every hot kernel in the model (spectral transforms, ocean stepping, the
coupler's regrid passes, the parallel transpose) is plain NumPy on top of
two shared pieces instead of ad hoc dtype literals and allocations:

* :class:`DTypePolicy` — the precision policy (``float32``/``float64``
  plus the matching complex type), selected with ``FOAM_DTYPE`` and
  threaded through the grid/spectral constructors instead of hard-coded
  ``float64``/``complex`` literals.
* :class:`Workspace` — a named, shape/dtype-keyed arena of reusable
  buffers.  Hot paths request scratch by name and get the same buffer
  back every step, so the steady-state allocation count of a step is
  (near) zero; the arena's ``hits`` / ``misses`` are how the win is
  measured (``backend.ws_hit_rate`` in ``benchmarks/e2e``).

The contract that keeps the default configuration *bitwise identical* to
ad-hoc allocation: a workspace buffer holds exactly what the requesting
call site writes into it, the arithmetic performed on it is the same
sequence of NumPy ufunc applications as before, and only values that do
not escape the requesting step live in the arena.
"""

from repro.backend.dtypes import (
    FLOAT32,
    FLOAT64,
    DTypePolicy,
    default_policy,
    policy_from_name,
)
from repro.backend.workspace import (
    Workspace,
    get_workspace,
    workspace_totals,
)

__all__ = [
    "DTypePolicy", "FLOAT32", "FLOAT64", "default_policy",
    "policy_from_name",
    "Workspace", "get_workspace", "workspace_totals",
]
