"""Per-rank activity tracing, the data model behind the paper's Figure 2.

Figure 2 of the paper shows, for each SP processor, a bar of colored time
segments: green = atmosphere computation, red = coupler, blue = ocean,
purple = idle.  :class:`RankTrace` records exactly that — a list of
``(start, end, activity)`` segments in model time — and :class:`TraceSet`
aggregates the per-rank utilization statistics the paper discusses (all
atmosphere ranks leaving the coupler simultaneously; imperfect load balance
from non-uniform cloud distributions; one ocean rank keeping up with 16
atmosphere ranks but not 32).
"""

from __future__ import annotations

from dataclasses import dataclass, field

ACTIVITIES = ("atmosphere", "coupler", "ocean", "idle")


@dataclass
class Segment:
    start: float
    end: float
    activity: str

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class RankTrace:
    """Activity timeline for one simulated processor."""

    rank: int
    segments: list[Segment] = field(default_factory=list)

    def record(self, start: float, end: float, activity: str) -> None:
        if activity not in ACTIVITIES:
            raise ValueError(f"unknown activity {activity!r}; must be one of {ACTIVITIES}")
        if end < start:
            raise ValueError(f"segment ends ({end}) before it starts ({start})")
        if self.segments and start < self.segments[-1].end - 1e-12:
            raise ValueError(
                f"rank {self.rank}: segment at {start} overlaps previous "
                f"ending at {self.segments[-1].end}")
        self.segments.append(Segment(start, end, activity))

    @property
    def end_time(self) -> float:
        return self.segments[-1].end if self.segments else 0.0

    def time_in(self, activity: str) -> float:
        return sum(s.duration for s in self.segments if s.activity == activity)


@dataclass
class TraceSet:
    """Traces for every rank of a run, plus Figure-2-style summaries."""

    traces: list[RankTrace]

    @property
    def nranks(self) -> int:
        return len(self.traces)

    @property
    def makespan(self) -> float:
        return max((t.end_time for t in self.traces), default=0.0)

    def total_time_in(self, activity: str) -> float:
        return sum(t.time_in(activity) for t in self.traces)

    def breakdown(self) -> dict[str, float]:
        """Processor-time fractions by activity (the Figure 2 color budget)."""
        span = self.makespan * self.nranks
        out = {}
        for act in ACTIVITIES:
            explicit = self.total_time_in(act)
            out[act] = explicit / span if span > 0 else 0.0
        # Uncovered trailing time (rank finished before makespan) counts as idle.
        covered = sum(t.end_time for t in self.traces)
        if span > 0:
            out["idle"] += (span - covered) / span
        return out

    def render_ascii(self, width: int = 72) -> str:
        """Render the Gantt chart as text (one row per rank), for reports.

        Uses A/C/O/. for atmosphere, coupler, ocean, idle — the same four
        categories as the paper's Figure 2.
        """
        glyph = {"atmosphere": "A", "coupler": "C", "ocean": "O", "idle": "."}
        span = self.makespan
        lines = []
        for t in self.traces:
            row = ["."] * width
            for s in t.segments:
                i0 = int(s.start / span * width) if span > 0 else 0
                i1 = max(i0 + 1, int(s.end / span * width)) if span > 0 else 1
                for i in range(i0, min(i1, width)):
                    row[i] = glyph[s.activity]
            lines.append(f"rank {t.rank:3d} |{''.join(row)}|")
        return "\n".join(lines)
