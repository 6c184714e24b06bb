"""Wall-clock spans of the *real* Python components, in the ledger's names.

The performance story so far ran entirely on modeled time: analytic op
counts (:mod:`repro.perf.costmodel`) fed a discrete-event simulator
(:mod:`repro.perf.eventsim`) whose output mimics the paper's Figure 2.
This module closes the loop with *measured* time: a low-overhead recorder
whose spans are declared on the model's phase methods, producing a
:class:`RunProfile` that calibrates the event simulator
(:func:`repro.perf.costmodel.calibrate_from_profile`).

One span vocabulary.  A span is named ``layer.phase`` — exactly the names
``benchmarks/e2e/tracing.py`` gives the same methods when it wraps them
from outside (``runs.coupled_step``, ``atmosphere.physics``,
``spectral.analyze``, ``coupler.fluxes``, ``ocean.step`` ...); the
sub-phases only this recorder sees (radiation, the physics schemes, the
ocean stages, the transposes) take names of the same form.  Rows are flat,
keyed by that name, and carry the ledger's arithmetic: *inclusive* seconds
and *self* seconds (``exclusive``: inclusive minus the spans opened
directly inside).  Self times of all rows add up to the time inside root
spans, so :func:`layer_of` turns them into per-layer totals that sum to
the profiled wall — no nesting paths, no name matching.

Design constraints:

1. **Near-zero cost when disabled.**  The spans stay in the hot paths
   permanently, so the disabled check is one attribute read and the
   returned context manager is a shared no-op singleton.
2. **One recorder per process.**  The model is single-threaded and a rank
   is a forked process that resets the recorder it inherited; what a rank
   recorded comes back to the caller as a :class:`RunProfile` and is added
   with :meth:`Profiler.absorb` (``repro.parallel.procmpi.run_ranks``).

Usage::

    from repro.perf.profiler import enable_profiling, profile_section, take_profile

    enable_profiling()
    with profile_section("atmosphere.physics"):
        with profile_section("atmosphere.radiation"):
            ...
    profile = take_profile(label="one day")   # -> RunProfile (and resets)
    print(profile.format_table())
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import wraps

#: ``RunProfile`` JSON format: 2 = flat rows keyed by span name.  Format 1
#: (rows keyed by a nesting ``path``) carried no marker and is refused.
PROFILE_FORMAT = 2


def layer_of(name: str) -> str:
    """The layer a span's self time is booked under (the ledger's rule)."""
    prefix = name.split(".", 1)[0]
    return "atmosphere" if prefix == "spectral" else prefix


#: Shared no-op context manager returned while profiling is disabled.
_NULL_SECTION = nullcontext()


class _Section:
    """Live context manager for one entry of an enabled span."""

    __slots__ = ("_name", "_start", "_child", "_counters")

    def __init__(self, name: str):
        self._name = name

    def __enter__(self):
        self._child = 0.0
        self._counters = None
        _default._stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        stack = _default._stack
        stack.pop()
        if stack:
            stack[-1]._child += elapsed
        _default._record(self._name, 1, elapsed, elapsed - self._child,
                         self._counters)
        return False

    def count(self, name: str, value: float = 1.0) -> None:
        if self._counters is None:
            self._counters = {}
        self._counters[name] = self._counters.get(name, 0.0) + value


@dataclass
class SectionStat:
    """One row of a :class:`RunProfile`: measured cost of one span name."""

    name: str                 # "layer.phase", e.g. "atmosphere.physics"
    calls: int = 0
    inclusive: float = 0.0    # seconds, spans opened inside included
    exclusive: float = 0.0    # self seconds: those spans subtracted
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def per_call(self) -> float:
        return self.inclusive / self.calls if self.calls else 0.0


class Profiler:
    """The process's span recorder: flat rows by name, plus counters."""

    def __init__(self):
        self.enabled = False
        self._rows: dict[str, SectionStat] = {}
        self._counters: dict[str, float] = {}
        self._stack: list[_Section] = []
        self._started = time.perf_counter()

    def _record(self, name: str, calls: int, inclusive: float,
                exclusive: float, counters: dict | None) -> None:
        row = self._rows.get(name)
        if row is None:
            row = self._rows[name] = SectionStat(name)
        row.calls += calls
        row.inclusive += inclusive
        row.exclusive += exclusive
        if counters:
            for k, v in counters.items():
                row.counters[k] = row.counters.get(k, 0.0) + v

    def reset(self) -> None:
        self._rows.clear()
        self._counters.clear()
        self._started = time.perf_counter()

    def snapshot(self, label: str = "", meta: dict | None = None) -> "RunProfile":
        """Freeze current accumulators into a :class:`RunProfile` (no reset)."""
        return RunProfile(
            label=label, wall_seconds=time.perf_counter() - self._started,
            sections=[SectionStat(r.name, r.calls, r.inclusive, r.exclusive,
                                  dict(r.counters))
                      for _, r in sorted(self._rows.items())],
            counters=dict(self._counters), meta=dict(meta or {}))

    def absorb(self, profile: "RunProfile") -> None:
        """Add a finished profile's rows and counters to the accumulators.

        How spans recorded in a forked rank process reach the caller:
        ``run_ranks`` absorbs every rank's snapshot into the caller's
        recorder.
        """
        for s in profile.sections:
            self._record(s.name, s.calls, s.inclusive, s.exclusive, s.counters)
        for k, v in profile.counters.items():
            self._counters[k] = self._counters.get(k, 0.0) + v


@dataclass
class RunProfile:
    """Structured, JSON-serializable report of one profiled run.

    The measured analogue of the event simulator's Figure-2 breakdown: per
    span name the call count, inclusive and self seconds, and whatever
    counters the span recorded (notably ``comm_bytes`` from the distributed
    transpose).  This is both the human-readable artifact behind
    ``python -m repro.perf.report`` and the machine-readable calibration
    input of :func:`repro.perf.costmodel.calibrate_from_profile`.
    """

    label: str = ""
    wall_seconds: float = 0.0
    sections: list[SectionStat] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    # -- lookup ------------------------------------------------------------
    def get(self, name: str) -> SectionStat | None:
        return next((s for s in self.sections if s.name == name), None)

    def __getitem__(self, name: str) -> SectionStat:
        s = self.get(name)
        if s is None:
            raise KeyError(f"no span {name!r} in profile "
                           f"(have {[s.name for s in self.sections]})")
        return s

    def calls(self, name: str) -> int:
        s = self.get(name)
        return s.calls if s else 0

    def layer_seconds(self) -> dict[str, float]:
        """Self seconds summed per :func:`layer_of` layer (disjoint buckets)."""
        layers: dict[str, float] = {}
        for s in self.sections:
            layer = layer_of(s.name)
            layers[layer] = layers.get(layer, 0.0) + s.exclusive
        return layers

    @property
    def accounted_seconds(self) -> float:
        """Seconds inside root spans: what the self times add up to."""
        return sum(s.exclusive for s in self.sections)

    # -- serialization -----------------------------------------------------
    def to_dict(self) -> dict:
        return {"format": PROFILE_FORMAT, **asdict(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "RunProfile":
        fields = dict(d)
        if fields.pop("format", 1) != PROFILE_FORMAT:
            raise ValueError(
                f"profile format {d.get('format', 1)!r} is not supported: "
                f"rows are flat 'layer.phase' span names since format "
                f"{PROFILE_FORMAT} (format 1 keyed them by nesting path); "
                f"capture the profile again")
        fields["sections"] = [SectionStat(**row) for row in d["sections"]]
        return cls(**fields)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path) -> "RunProfile":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- rendering ---------------------------------------------------------
    def format_table(self, min_fraction: float = 0.0) -> str:
        """Render the measured time-allocation table (Figure-2 analogue).

        One block per layer, largest first: the layer's self-second total,
        then its spans by falling self time with call counts, self and
        inclusive seconds, the self-time share of the accounted total, and
        comm bytes when a span recorded traffic.  Shares add up to 100 %.
        ``min_fraction`` hides span rows below that share.
        """
        total = self.accounted_seconds or 1e-30
        header = (f"{'span':38s} {'calls':>7s} {'self s':>10s} "
                  f"{'incl s':>10s} {'share':>7s} {'comm':>10s}")
        lines = []
        if self.label:
            lines.append(f"profile: {self.label}")
        lines.append(f"wall time {self.wall_seconds:.3f} s, "
                     f"accounted {self.accounted_seconds:.3f} s")
        lines.append(header)
        lines.append("-" * len(header))
        layers = self.layer_seconds()
        for layer in sorted(layers, key=layers.get, reverse=True):
            lines.append(f"{layer:38s} {'':7s} {layers[layer]:10.4f} "
                         f"{'':10s} {100.0 * layers[layer] / total:6.1f}%")
            rows = [s for s in self.sections if layer_of(s.name) == layer]
            for s in sorted(rows, key=lambda s: s.exclusive, reverse=True):
                share = s.exclusive / total
                if share < min_fraction:
                    continue
                comm = s.counters.get("comm_bytes", 0.0)
                comm_str = _human_bytes(comm) if comm else ""
                lines.append(f"{'  ' + s.name:38s} {s.calls:7d} "
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


# ---------------------------------------------------------------------------
# The process's recorder: what the instrumented library code reports to.
# A forked rank inherits it and resets it, so each rank process records
# into its own.
# ---------------------------------------------------------------------------
_default = Profiler()


def get_profiler() -> Profiler:
    """The process-wide recorder the instrumentation reports to."""
    return _default


def enable_profiling() -> Profiler:
    """Enable (and return) the recorder."""
    _default.enabled = True
    return _default


def disable_profiling() -> None:
    _default.enabled = False


def profile_section(name: str):
    """Span context manager (the hot-path hook); a shared no-op while disabled."""
    if not _default.enabled:
        return _NULL_SECTION
    return _Section(name)


def profiled(name: str | None = None):
    """Decorator: every call of ``fn`` is a span (``name`` defaults to ``fn.__name__``)."""
    def decorate(fn):
        label = name or fn.__name__

        @wraps(fn)
        def wrapper(*args, **kwargs):
            if not _default.enabled:
                return fn(*args, **kwargs)
            with _Section(label):
                return fn(*args, **kwargs)
        return wrapper
    return decorate


def take_profile(label: str = "", meta: dict | None = None) -> RunProfile:
    """Snapshot the recorder into a :class:`RunProfile` and clear it, so
    back-to-back profiling windows do not bleed into each other."""
    profile = _default.snapshot(label=label, meta=meta)
    _default.reset()
    return profile
