"""Spans recorded from outside the program, and the arithmetic on them.

The benchmark owns the tracing: :class:`Tracer` replaces public methods of
already-constructed objects (or, for objects the run harness builds
internally, of their classes) with timing wrappers, keeps the spans in
memory, and restores every original on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` knows it is being traced.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 for a root).  A span's *self time* is its duration
minus the part of that interval its children cover, so self times of a
tree add up to the duration of its roots -- that is what lets the
per-layer seconds be checked against the measured window wall.

Standard library only (the self-test exercises it without the model).
"""

from __future__ import annotations

import time

#: Span name -> the per-layer metric its *self time* is booked under.
#: Buckets are disjoint, so their sum is the time inside traced roots.
SELF_TIME_METRIC = {
    "atmosphere.diagnose": "atmosphere.diagnose_s",
    "atmosphere.physics": "atmosphere.physics_s",
    "atmosphere.advance": "atmosphere.spectral_update_s",
    "atmosphere.dynamics": "atmosphere.dynamics_s",
    "spectral.analyze": "atmosphere.spectral_s",
    "spectral.synthesize": "atmosphere.spectral_s",
    "spectral.synthesize_many": "atmosphere.spectral_s",
    "spectral.uv_from_vortdiv": "atmosphere.spectral_s",
    "spectral.vortdiv_from_uv": "atmosphere.spectral_s",
    "spectral.gradient": "atmosphere.spectral_s",
    "coupler.merge_surface": "coupler.merge_surface_s",
    "coupler.fluxes": "coupler.fluxes_s",
    "coupler.accumulate": "coupler.accumulate_s",
    "coupler.land_rivers": "coupler.land_rivers_s",
    "coupler.ocean_forcing": "coupler.ocean_forcing_s",
    "ocean.step": "ocean.step_self_s",
    "ocean.barotropic": "ocean.barotropic_s",
    "runs.coupled_step": "runs.glue_s",
    "runs.observer": "runs.observer_s",
    "history.record": "history.write_s",
    "history.flush": "history.write_s",
    "history.close": "history.write_s",
    "checkpoint.write": "checkpoint.write_s",
}

#: Chrome-trace track per layer (one ``tid`` each, so nesting stays valid).
LAYER_TRACKS = ("runs", "atmosphere", "coupler", "ocean", "history")


def layer_of(span_name: str) -> str:
    prefix = span_name.split(".", 1)[0]
    return {"spectral": "atmosphere", "checkpoint": "history"}.get(prefix, prefix)


class Tracer:
    """Wraps methods with span recording; fully reversible."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a wrapper recording spans called ``name``.

        ``owner`` is an instance (the wrapper shadows the class's method as
        an instance attribute) or a class (the function is replaced for
        every instance, which is how observers built inside
        ``RunHarness.run`` are reached).
        """
        original = getattr(owner, attr)
        own = vars(owner).get(attr, _MISSING)
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, clock(), None, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                return original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, own))

    def uninstall(self) -> None:
        """Restore every wrapped attribute exactly as it was found."""
        for owner, attr, own in reversed(self._patched):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._patched.clear()


_MISSING = object()


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------
def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans) -> list[float]:
    """Self time of every span: duration minus what its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [(end - start) - _covered(children.get(i, ()), start, end)
            for i, (_name, start, end, _parent) in enumerate(spans)]


def attribute(spans) -> tuple[dict[str, float], dict[str, int]]:
    """Book self times under per-layer metrics; count calls per span name.

    Returns ``(seconds, calls)``.  ``seconds`` holds one entry per metric
    in :data:`SELF_TIME_METRIC` (0.0 when its spans never ran) plus
    ``"roots"``, the total duration of root spans -- equal, up to float
    rounding, to the sum of the other entries.
    """
    seconds = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    calls: dict[str, int] = {}
    roots = 0.0
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        seconds[SELF_TIME_METRIC[name]] += own
        calls[name] = calls.get(name, 0) + 1
        if parent < 0:
            roots += end - start
    seconds["roots"] = roots
    return seconds, calls


def outermost_calls(spans, prefix: str) -> int:
    """Spans named ``prefix*`` whose parent is not (a transform calling a
    transform counts once)."""
    count = 0
    for name, _start, _end, parent in spans:
        if name.startswith(prefix) and not (
                parent >= 0 and spans[parent][0].startswith(prefix)):
            count += 1
    return count


# ----------------------------------------------------------------------
# Chrome trace-event export
# ----------------------------------------------------------------------
def _track_metadata(tracks) -> list[dict]:
    return [{"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
             "args": {"name": track}} for tid, track in enumerate(tracks)]


def chrome_trace(spans, origin: float) -> list[dict]:
    """Trace-event list (``ph: X`` complete events), one track per layer."""
    events = _track_metadata(LAYER_TRACKS)
    for name, start, end, _parent in spans:
        events.append({"name": name, "ph": "X", "pid": 1,
                       "tid": LAYER_TRACKS.index(layer_of(name)),
                       "ts": (start - origin) * 1e6,
                       "dur": (end - start) * 1e6})
    return events


def chrome_trace_ranks(legs: list[dict]) -> list[dict]:
    """Fig 2 Gantt of a pool run from per-leg wait/busy totals.

    The pool driver reports, per rank, its loop wall and its blocked
    seconds by payload kind -- not when each wait happened -- so every leg
    is drawn as one ``busy`` block followed by one block per wait kind,
    in proportion.  ``legs`` entries: ``{"start": s, "ranks": [{"role",
    "rank", "wall", "waits": {kind: s}}]}``.
    """
    tracks = []
    events: list[dict] = []
    for leg in legs:
        for rank in leg["ranks"]:
            track = f"rank{rank['rank']}:{rank['role']}"
            if track not in tracks:
                tracks.append(track)
            tid = tracks.index(track)
            waited = sum(rank["waits"].values())
            cursor = leg["start"]
            blocks = [("busy", max(rank["wall"] - waited, 0.0))]
            blocks += [(f"wait:{kind}", secs)
                       for kind, secs in sorted(rank["waits"].items())]
            for name, secs in blocks:
                events.append({"name": name, "ph": "X", "pid": 1, "tid": tid,
                               "ts": cursor * 1e6, "dur": secs * 1e6})
                cursor += secs
    return _track_metadata(tracks) + events
