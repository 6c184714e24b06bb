"""Workspace arena: named, shape/dtype-keyed reusable scratch buffers.

Hot paths call ``ws.empty("ocean.pgx", shape, dtype)`` instead of
``np.empty(shape)``.  The first request for a (name, shape, dtype) key
allocates (a *miss*); every later request returns the same buffer (a
*hit*), so a warmed-up model step performs (near) zero temporary
allocations.  ``ws.zeros`` refills the reused buffer with ``buf[...] = 0``,
which is bitwise-identical to a fresh ``np.zeros``.

Usage rules that make reuse safe:

* only scratch that does **not** escape the requesting call lives here —
  anything stored into model state must stay freshly allocated;
* every call site uses a unique name, so two live temporaries can never
  alias the same buffer;
* there is one arena **per process**: the model is single-threaded, and
  a forked rank clears the arena it inherited before it starts
  (``repro.parallel.procmpi._child_main``), so ranks never share scratch.

Counters: ``hits``/``misses`` accumulate on the arena; the whole-run hit
rate is ``backend.ws_hit_rate`` in ``benchmarks/e2e``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["Workspace", "get_workspace", "workspace_totals"]


class Workspace:
    """A keyed arena of reusable buffers with hit/miss accounting."""

    __slots__ = ("_buffers", "hits", "misses")

    def __init__(self):
        self._buffers: dict[tuple, np.ndarray] = {}
        self.hits = 0
        self.misses = 0

    def _request(self, alloc, name: str, shape, dtype) -> np.ndarray:
        """The buffer keyed (name, shape, dtype); ``alloc`` builds it on a miss."""
        shape = (shape,) if isinstance(shape, (int, np.integer)) else tuple(shape)
        key = (name, shape, np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            self.misses += 1
            buf = self._buffers[key] = alloc(shape, dtype=dtype)
        else:
            self.hits += 1
        return buf

    def empty(self, name: str, shape, dtype) -> np.ndarray:
        """An uninitialised buffer for ``name`` (contents are stale on a hit)."""
        return self._request(np.empty, name, shape, dtype)

    def zeros(self, name: str, shape, dtype) -> np.ndarray:
        """A zero-filled buffer (refill of a reused buffer ≡ fresh np.zeros)."""
        buf = self.empty(name, shape, dtype)
        buf[...] = 0
        return buf

    def zeros_once(self, name: str, shape, dtype) -> np.ndarray:
        """A buffer zeroed only at allocation; hits return it as last left.

        For pad buffers whose zero region is never overwritten (e.g. the
        inverse-FFT tail beyond the truncation), this skips the per-call
        refill: the caller rewrites its live columns every request and the
        zero tail persists.
        """
        return self._request(np.zeros, name, shape, dtype)

    def empty_like(self, name: str, arr: np.ndarray) -> np.ndarray:
        return self.empty(name, arr.shape, arr.dtype)

    def zeros_like(self, name: str, arr: np.ndarray) -> np.ndarray:
        return self.zeros(name, arr.shape, arr.dtype)

    @property
    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)

    def clear(self) -> None:
        """Drop all buffers and zero the counters."""
        self._buffers.clear()
        self.hits = 0
        self.misses = 0


_arena = Workspace()


def get_workspace() -> Workspace:
    """This process's workspace arena."""
    return _arena


def workspace_totals() -> dict[str, int]:
    """Hit/miss/buffer/byte counts of this process's arena."""
    return {"hits": _arena.hits, "misses": _arena.misses,
            "buffers": len(_arena), "nbytes": _arena.nbytes}
