"""A/B verdicts between two sets of ``results.json`` files.

    python3 benchmarks/e2e/compare.py A.json B.json
    python3 benchmarks/e2e/compare.py --a A1.json A2.json ... --b B1.json B2.json ...

One row per workload x end-to-end metric: both medians with quartiles, the
ratio B/A with its base, the bound from BENCHMARK.json and a verdict.
Files are paired in the order given (A1 with B1, ...), so feed the runs of
ten alternating pairs in the order they were made.  Exit status is 1 when
any row is ``regressed`` or when B failed a larger share of its operations
than A.

Verdicts (choosing-metrics guide, sections 6 and 8):

* ``unresolved`` -- a side's own runs spread wider than the bound and the
  two sides' runs overlap: the data cannot tell a regression from noise;
* ``regressed``  -- B's median is worse than A's by more than the bound;
* ``improved``   -- B wins at least nine tenths of the pairs (ties count
  for neither) and the medians differ by more than the distance between
  A's own quartiles; with a single pair, B must be better by more than
  the bound;
* ``unchanged``  -- everything else.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402


def verdict(a: list[float], b: list[float], *, better: str, bound: float) -> str:
    """Classify B against A for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0     # gain = sign * (b - a)
    med_a, med_b = stats.median(a), stats.median(b)
    worse_by = -sign * (med_b - med_a) / abs(med_a)
    b_all_better = min(sign * x for x in b) > max(sign * x for x in a)
    b_all_worse = max(sign * x for x in b) < min(sign * x for x in a)
    noisy = max(stats.spread(a), stats.spread(b)) > bound
    if noisy and not (b_all_better or b_all_worse):
        return "unresolved"
    if worse_by > bound:
        return "regressed"
    pairs = list(zip(a, b))
    if len(pairs) < 2:
        return "improved" if -worse_by > bound else "unchanged"
    wins = sum(sign * (y - x) > 0 for x, y in pairs)
    ties = sum(x == y for x, y in pairs)
    q1, _, q3 = stats.quartiles(a)
    if wins >= 0.9 * (len(pairs) - ties) and wins > 0 and abs(med_b - med_a) > q3 - q1:
        return "improved"
    return "unchanged"


def load_side(paths: list[Path]) -> dict[str, list[dict]]:
    """workload -> its result in every file of one side that ran it."""
    side: dict[str, list[dict]] = {}
    for path in paths:
        record = json.loads(Path(path).read_text())
        for name, result in record["workloads"].items():
            side.setdefault(name, []).append(result)
    return side


def failed_frac(results: list[dict]) -> float:
    attempted = sum(r["attempted"] for r in results)
    return sum(r["failed"] for r in results) / attempted if attempted else 1.0


def compare(side_a: dict, side_b: dict, spec: dict) -> tuple[list[dict], bool]:
    """Rows for every workload both sides ran, and whether anything is bad."""
    rows = []
    bad = False
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = side_a.get(workload), side_b.get(workload)
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            a = [r["end_to_end"][metric["name"]] for r in runs_a if "end_to_end" in r]
            b = [r["end_to_end"][metric["name"]] for r in runs_b if "end_to_end" in r]
            if not a or not b:
                continue
            row = {"workload": workload, "metric": metric["name"],
                   "unit": metric["unit"], "bound": metric["bound"],
                   "a": stats.summarize(a), "b": stats.summarize(b),
                   "ratio": stats.median(b) / stats.median(a),
                   "verdict": verdict(a, b, better=metric["better"],
                                      bound=metric["bound"])}
            bad |= row["verdict"] == "regressed"
            rows.append(row)
        fa, fb = failed_frac(runs_a), failed_frac(runs_b)
        rows.append({"workload": workload, "metric": "failed_frac",
                     "unit": "ratio", "bound": 0.0,
                     "a": {"n": len(runs_a), "median": fa, "q1": fa, "q3": fa},
                     "b": {"n": len(runs_b), "median": fb, "q1": fb, "q3": fb},
                     "ratio": None,
                     "verdict": "regressed" if fb > fa else "unchanged"})
        bad |= fb > fa
    return rows, bad


def format_row(row: dict) -> str:
    def side(s: dict) -> str:
        return f"{s['median']:11.4f} [{s['q1']:.4f}, {s['q3']:.4f}] n={s['n']}"

    ratio = ("" if row["ratio"] is None else
             f"B/A = {row['ratio']:.3f} (base A = {row['a']['median']:.4f} "
             f"{row['unit']})")
    return (f"{row['workload']:20s} {row['metric']:18s} A {side(row['a'])}  "
            f"B {side(row['b'])}  {ratio:44s} bound {row['bound']:.0%}  "
            f"{row['verdict']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("files", nargs="*", type=Path,
                    help="exactly two files: A.json B.json")
    ap.add_argument("--a", nargs="+", type=Path, default=[])
    ap.add_argument("--b", nargs="+", type=Path, default=[])
    opts = ap.parse_args(argv)
    if opts.files:
        if len(opts.files) != 2 or opts.a or opts.b:
            ap.error("give either A.json B.json, or --a FILES --b FILES")
        opts.a, opts.b = opts.files[:1], opts.files[1:]
    if not opts.a or not opts.b:
        ap.error("both sides need at least one result file")
    spec = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    rows, bad = compare(load_side(opts.a), load_side(opts.b), spec)
    for row in rows:
        print(format_row(row))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
