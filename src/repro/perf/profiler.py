"""Hierarchical wall-clock profiling of the *real* Python components.

The performance story so far ran entirely on modeled time: analytic op
counts (:mod:`repro.perf.costmodel`) fed a discrete-event simulator
(:mod:`repro.perf.eventsim`) whose output mimics the paper's Figure 2.
This module closes the loop with *measured* time: a low-overhead
instrumentation layer threaded through the hot paths (spectral transforms,
semi-Lagrangian advection, physics, ocean stages, coupler, the
distributed transpose), producing a structured :class:`RunProfile` whose
per-section costs can in turn calibrate the event simulator
(:func:`repro.perf.costmodel.calibrate_from_profile`).

Design constraints, in order:

1. **Near-zero cost when disabled.**  Instrumentation stays in the hot
   paths permanently, so the disabled check is one attribute read and the
   returned context manager is a shared no-op singleton; a test bounds the
   overhead on an instrumented hot loop.
2. **One profiler per process.**  The model is single-threaded and a
   rank is a forked process with its own default profiler, so there is
   one section stack and no locking; what a rank recorded comes back to
   the caller as a :class:`RunProfile` and is added with
   :meth:`Profiler.absorb`.
3. **Hierarchical.**  Sections nest: entering ``"physics"`` inside
   ``"atmosphere"`` records under the path ``"atmosphere/physics"``, and
   each node tracks both *inclusive* time (with children) and *exclusive*
   time (children subtracted), the two columns of the report table.

Usage::

    from repro.perf.profiler import enable_profiling, profile_section, take_profile

    enable_profiling()
    with profile_section("atmosphere"):
        with profile_section("physics"):
            ...
    profile = take_profile(label="one day")   # -> RunProfile (and resets)
    print(profile.format_table())
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from functools import wraps

SEP = "/"


class _NullSection:
    """Shared no-op context manager returned while profiling is disabled."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL_SECTION = _NullSection()


class _Node:
    """Accumulator for one section path."""

    __slots__ = ("calls", "inclusive", "exclusive", "counters")

    def __init__(self):
        self.calls = 0
        self.inclusive = 0.0
        self.exclusive = 0.0
        self.counters: dict[str, float] = {}


class _Section:
    """Live context manager for one enabled section entry."""

    __slots__ = ("_prof", "_name", "_start", "_child", "_counters")

    def __init__(self, prof: "Profiler", name: str):
        self._prof = prof
        self._name = name

    def __enter__(self):
        self._child = 0.0
        self._counters = None
        self._prof._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        frames = self._prof._stack
        frames.pop()
        if frames:
            frames[-1]._child += elapsed
        path = SEP.join(f._name for f in frames) + SEP + self._name if frames \
            else self._name
        self._prof._record(path, 1, elapsed, elapsed - self._child,
                           self._counters)
        return False

    def count(self, name: str, value: float = 1.0) -> None:
        if self._counters is None:
            self._counters = {}
        self._counters[name] = self._counters.get(name, 0.0) + value


class Profiler:
    """Hierarchical wall-clock timer + counter registry."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self._nodes: dict[str, _Node] = {}
        self._counters: dict[str, float] = {}
        self._stack: list[_Section] = []
        self._started = time.perf_counter()

    # -- section management ------------------------------------------------
    def _record(self, path: str, calls: int, inclusive: float,
                exclusive: float, counters: dict | None) -> None:
        node = self._nodes.get(path)
        if node is None:
            node = self._nodes[path] = _Node()
        node.calls += calls
        node.inclusive += inclusive
        node.exclusive += exclusive
        if counters:
            for k, v in counters.items():
                node.counters[k] = node.counters.get(k, 0.0) + v

    def section(self, name: str):
        """Context manager timing one (possibly nested) section.

        Disabled profilers return a shared no-op object — the hot-path cost
        is one attribute check and one method call.
        """
        if not self.enabled:
            return _NULL_SECTION
        return _Section(self, name)

    def profiled(self, name: str | None = None):
        """Decorator equivalent of :meth:`section` (name defaults to ``fn.__name__``)."""
        def decorate(fn):
            label = name or fn.__name__

            @wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with _Section(self, label):
                    return fn(*args, **kwargs)
            return wrapper
        return decorate

    def count(self, name: str, value: float = 1.0) -> None:
        """Add to a counter on the innermost active section.

        Outside any section the count lands in the profile-level counter
        table instead.
        """
        if not self.enabled:
            return
        if self._stack:
            self._stack[-1].count(name, value)
            return
        self._counters[name] = self._counters.get(name, 0.0) + value

    # -- lifecycle ---------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        self._nodes.clear()
        self._counters.clear()
        self._started = time.perf_counter()

    def snapshot(self, label: str = "", meta: dict | None = None) -> "RunProfile":
        """Freeze current accumulators into a :class:`RunProfile` (no reset)."""
        sections = [
            SectionStat(path=path, calls=n.calls, inclusive=n.inclusive,
                        exclusive=n.exclusive, counters=dict(n.counters))
            for path, n in sorted(self._nodes.items())
        ]
        return RunProfile(label=label,
                          wall_seconds=time.perf_counter() - self._started,
                          sections=sections, counters=dict(self._counters),
                          meta=dict(meta or {}))

    def absorb(self, profile: "RunProfile") -> None:
        """Add a finished profile's sections and counters to the accumulators.

        How sections recorded in a forked rank process reach the caller:
        ``run_ranks`` absorbs every rank's snapshot into the caller's
        profiler.  :func:`merge_profiles` is the same summation.
        """
        for s in profile.sections:
            self._record(s.path, s.calls, s.inclusive, s.exclusive, s.counters)
        for k, v in profile.counters.items():
            self._counters[k] = self._counters.get(k, 0.0) + v


@dataclass
class SectionStat:
    """One row of a :class:`RunProfile`: measured cost of one section path."""

    path: str                 # "/"-joined nesting path, e.g. "atmosphere/physics"
    calls: int
    inclusive: float          # seconds, children included
    exclusive: float          # seconds, children subtracted
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.path.rsplit(SEP, 1)[-1]

    @property
    def depth(self) -> int:
        return self.path.count(SEP)

    @property
    def per_call(self) -> float:
        return self.inclusive / self.calls if self.calls else 0.0


@dataclass
class RunProfile:
    """Structured, JSON-serializable report of one profiled run.

    The measured analogue of the event simulator's Figure-2 breakdown:
    per-section inclusive/exclusive wall time, call counts, and whatever
    counters the sections recorded (notably ``comm_bytes`` from the
    distributed transpose).  This is both the human-readable artifact behind
    ``python -m repro.perf.report`` and the machine-readable calibration
    input of :func:`repro.perf.costmodel.calibrate_from_profile`.
    """

    label: str = ""
    wall_seconds: float = 0.0
    sections: list[SectionStat] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- lookup ------------------------------------------------------------
    def __getitem__(self, path: str) -> SectionStat:
        for s in self.sections:
            if s.path == path:
                return s
        raise KeyError(f"no section {path!r} in profile "
                       f"(have {[s.path for s in self.sections]})")

    def get(self, path: str) -> SectionStat | None:
        try:
            return self[path]
        except KeyError:
            return None

    def matching(self, predicate) -> list[SectionStat]:
        """All sections whose *path* satisfies ``predicate``."""
        return [s for s in self.sections if predicate(s.path)]

    def _topmost_matches(self, prefix: str) -> list[SectionStat]:
        """Sections matching ``prefix`` whose ancestors do not also match.

        A section matches when its full path equals or extends ``prefix``,
        or when its own (leaf) name equals ``prefix`` — so ``"radiation"``
        finds ``"atmosphere/physics/radiation"`` wherever it nests.
        Ancestor-matching sections shadow their children to avoid
        double-charging nested matches.
        """
        out = []
        for s in self.sections:
            if not (s.path == prefix or s.path.startswith(prefix + SEP)
                    or s.name == prefix):
                continue
            parts = s.path.split(SEP)
            ancestor_match = any(
                SEP.join(parts[:i]) == prefix or parts[i - 1] == prefix
                for i in range(1, len(parts)))
            if not ancestor_match:
                out.append(s)
        return out

    def total_inclusive(self, prefix: str) -> float:
        """Summed inclusive seconds of all top-most sections under ``prefix``."""
        return sum(s.inclusive for s in self._topmost_matches(prefix))

    def total_calls(self, prefix: str) -> int:
        """Summed call count of all top-most sections under ``prefix``."""
        return sum(s.calls for s in self._topmost_matches(prefix))

    def calls(self, path: str) -> int:
        s = self.get(path)
        return s.calls if s else 0

    def comm_bytes(self, prefix: str = "") -> float:
        """Total ``comm_bytes`` counters under sections matching ``prefix``."""
        return sum(s.counters.get("comm_bytes", 0.0) for s in self.sections
                   if s.path.startswith(prefix))

    def roots(self) -> list[SectionStat]:
        return [s for s in self.sections if SEP not in s.path]

    @property
    def accounted_seconds(self) -> float:
        """Wall time covered by top-level sections."""
        return sum(s.inclusive for s in self.roots())

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counters),
            "meta": dict(self.meta),
            "sections": [
                {"path": s.path, "calls": s.calls, "inclusive": s.inclusive,
                 "exclusive": s.exclusive, "counters": dict(s.counters)}
                for s in self.sections
            ],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunProfile":
        return cls(
            label=d.get("label", ""),
            wall_seconds=float(d.get("wall_seconds", 0.0)),
            counters=dict(d.get("counters", {})),
            meta=dict(d.get("meta", {})),
            sections=[SectionStat(path=s["path"], calls=int(s["calls"]),
                                  inclusive=float(s["inclusive"]),
                                  exclusive=float(s["exclusive"]),
                                  counters=dict(s.get("counters", {})))
                      for s in d.get("sections", [])],
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "RunProfile":
        return cls.from_dict(json.loads(text))

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json())

    @classmethod
    def load(cls, path) -> "RunProfile":
        with open(path) as fh:
            return cls.from_json(fh.read())

    # -- rendering ---------------------------------------------------------
    def format_table(self, min_fraction: float = 0.0) -> str:
        """Render the measured time-allocation table (Figure-2 analogue).

        One row per section in tree order, indented by nesting depth, with
        call counts, exclusive and inclusive seconds, the share of total
        accounted time, and comm bytes when a section recorded traffic.
        ``min_fraction`` hides rows below that share of the total.
        """
        total = self.accounted_seconds or 1e-30
        header = (f"{'section':38s} {'calls':>7s} {'excl s':>10s} "
                  f"{'incl s':>10s} {'share':>7s} {'comm':>10s}")
        lines = []
        if self.label:
            lines.append(f"profile: {self.label}")
        lines.append(f"wall time {self.wall_seconds:.3f} s, "
                     f"accounted {self.accounted_seconds:.3f} s")
        lines.append(header)
        lines.append("-" * len(header))
        for s in self.sections:
            share = s.inclusive / total
            if share < min_fraction and s.depth > 0:
                continue
            indent = "  " * s.depth
            comm = s.counters.get("comm_bytes", 0.0)
            comm_str = _human_bytes(comm) if comm else ""
            lines.append(f"{indent + s.name:38s} {s.calls:7d} "
                         f"{s.exclusive:10.4f} {s.inclusive:10.4f} "
                         f"{100.0 * share:6.1f}% {comm_str:>10s}")
        for name, value in sorted(self.counters.items()):
            lines.append(f"counter {name} = {value:g}")
        return "\n".join(lines)


def _human_bytes(n: float) -> str:
    for unit in ("B", "KB", "MB", "GB"):
        if abs(n) < 1024.0 or unit == "GB":
            return f"{n:.0f}{unit}" if unit == "B" else f"{n:.1f}{unit}"
        n /= 1024.0
    return f"{n:.1f}GB"


# ---------------------------------------------------------------------------
# Default (module-level) profiler: what the instrumented library code uses.
# A forked rank inherits it and resets it, so each rank process records
# into its own.
# ---------------------------------------------------------------------------
_default = Profiler(enabled=False)


def merge_profiles(profiles, label: str = "",
                   meta: dict | None = None) -> RunProfile:
    """Merge per-rank :class:`RunProfile` s into one aggregate profile.

    Section calls, inclusive/exclusive seconds, and counters are summed by
    path; profile-level counters are summed by name.  ``wall_seconds`` is
    the *maximum* rank wall (the ranks ran concurrently), while the summed
    section seconds keep the total work visible — so the merged profile's
    overlap (accounted_seconds vs wall) is exactly what the concurrent
    schedule hid.  Per-rank walls and labels land in ``meta``.
    """
    profiles = list(profiles)
    if not profiles:
        raise ValueError("merge_profiles needs at least one profile")
    total = Profiler()
    for p in profiles:
        total.absorb(p)
    merged_meta = {
        "merged_from": len(profiles),
        "rank_walls": [p.wall_seconds for p in profiles],
        "rank_labels": [p.label for p in profiles],
    }
    merged_meta.update(meta or {})
    merged = total.snapshot(label=label or f"merge of {len(profiles)} profiles",
                            meta=merged_meta)
    merged.wall_seconds = max(p.wall_seconds for p in profiles)
    return merged


def get_profiler() -> Profiler:
    """The process-wide default profiler the instrumentation reports to."""
    return _default


def set_profiler(profiler: Profiler) -> Profiler:
    """Install ``profiler`` as the default; returns the previous one."""
    global _default
    previous = _default
    _default = profiler
    return previous


def enable_profiling() -> Profiler:
    """Enable (and return) the default profiler."""
    _default.enable()
    return _default


def disable_profiling() -> None:
    _default.disable()


def profiling_enabled() -> bool:
    return _default.enabled


def profile_section(name: str):
    """Section context manager on the default profiler (the hot-path hook)."""
    if not _default.enabled:
        return _NULL_SECTION
    return _Section(_default, name)


def profile_count(name: str, value: float = 1.0) -> None:
    """Counter on the default profiler (no-op while disabled)."""
    if _default.enabled:
        _default.count(name, value)


def profiled(name: str | None = None):
    """Decorator: time every call of ``fn`` as a section on the default profiler."""
    def decorate(fn):
        label = name or fn.__name__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _default.enabled:
                return fn(*args, **kwargs)
            with _Section(_default, label):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def take_profile(label: str = "", meta: dict | None = None,
                 reset: bool = True) -> RunProfile:
    """Snapshot the default profiler into a :class:`RunProfile`.

    With ``reset=True`` (default) the accumulators are cleared so
    back-to-back profiling windows do not bleed into each other.
    """
    profile = _default.snapshot(label=label, meta=meta)
    if reset:
        _default.reset()
    return profile
