"""Compare two sets of benchmark results, metric by metric, per workload.

Usage, from the repository root::

    python3 perf/compare.py BASE NEW   # verdict per workload and metric
    python3 perf/compare.py RUNS       # one set: medians, quartiles, spread

Each argument is a result file written by ``perf/run.py --out FILE`` or a
directory of them; traced and smoke runs are skipped.  The end-to-end
metrics, their directions and their regression bounds come from
``BENCHMARK.json``.

Verdicts, for each workload and end-to-end metric:

- ``improved``: NEW wins at least nine tenths of the run pairs (paired by
  seed when both sets share seeds, else in seed order) and the medians
  differ by more than BASE's interquartile distance;
- ``regressed``: NEW's median is worse than BASE's by more than the bound;
- ``unresolved``: BASE's interquartile distance, as a share of its
  median, is wider than the bound, so "unchanged" cannot be told apart
  from noise (unless every NEW run reads better than every BASE run);
- ``unchanged``: otherwise.

The exit code is 1 when any metric regressed.  Standard library only.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: (workload, metric) -> [(seed, value)]
Table = Dict[Tuple[str, str], List[Tuple[int, float]]]


def load_bounds(path: str = os.path.join(ROOT, "BENCHMARK.json")) -> Dict[str, Dict[str, Any]]:
    with open(path) as handle:
        return {entry["name"]: entry for entry in json.load(handle)["end_to_end"]}


def load_runs(paths: List[str]) -> Table:
    """Untraced, non-smoke runs of the given files and directories."""
    files: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            files.extend(
                os.path.join(path, name)
                for name in sorted(os.listdir(path))
                if name.endswith(".json")
            )
        else:
            files.append(path)
    table: Table = {}
    for name in files:
        with open(name) as handle:
            record = json.load(handle)
        for run in record.get("runs", []):
            if run.get("trace") or run.get("smoke") or not run.get("correct"):
                continue
            for metric, reading in run["metrics"].items():
                table.setdefault((run["workload"], metric), []).append(
                    (run["seed"], reading["value"])
                )
    return table


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(
    base: List[Tuple[int, float]],
    new: List[Tuple[int, float]],
    better: str,
    bound: float,
) -> Tuple[str, float]:
    """The verdict for one metric, and NEW's relative change (+ is worse)."""
    sign = 1.0 if better == "lower" else -1.0
    base_values = [value for _, value in base]
    new_values = [value for _, value in new]
    q1, base_median, q3 = quartiles(base_values)
    new_median = statistics.median(new_values)
    worse = sign * (new_median - base_median) / base_median
    base_by_seed, new_by_seed = dict(base), dict(new)
    common = sorted(set(base_by_seed) & set(new_by_seed))
    if common:
        pairs = [(base_by_seed[seed], new_by_seed[seed]) for seed in common]
    else:
        pairs = list(zip(
            [value for _, value in sorted(base)],
            [value for _, value in sorted(new)],
        ))
    wins = sum(1 for old, now in pairs if sign * (now - old) < 0)
    if better == "lower":
        every_run_better = max(new_values) < min(base_values)
    else:
        every_run_better = min(new_values) > max(base_values)
    if (
        pairs
        and wins >= 0.9 * len(pairs)
        and abs(new_median - base_median) > q3 - q1
    ):
        return "improved", worse
    if worse > bound:
        return "regressed", worse
    if (q3 - q1) / base_median > bound and not every_run_better:
        return "unresolved", worse
    return "unchanged", worse


def _fmt(values: List[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:12.4f} [{q1:.4f}, {q3:.4f}]"


def compare(base: Table, new: Table, bounds: Dict[str, Dict[str, Any]]) -> int:
    regressed = 0
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'change':>8s} {'bound':>6s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        if metric not in bounds:
            continue
        entry = bounds[metric]
        outcome, worse = verdict(base[key], new[key], entry["better"], entry["bound"])
        regressed += outcome == "regressed"
        print(
            f"{workload:16s} {metric:12s} "
            f"{_fmt([v for _, v in base[key]]):>36s} "
            f"{_fmt([v for _, v in new[key]]):>36s} "
            f"{worse:+8.1%} {entry['bound']:6.0%}  {outcome} "
            f"(n={len(base[key])}/{len(new[key])})"
        )
    return 1 if regressed else 0


def summarize(runs: Table, bounds: Dict[str, Dict[str, Any]]) -> int:
    print(f"{'workload':16s} {'metric':12s} {'n':>3s} "
          f"{'median [q1, q3]':>36s} {'spread':>7s} {'bound':>6s}")
    for (workload, metric), pairs in sorted(runs.items()):
        if metric not in bounds:
            continue
        values = [value for _, value in pairs]
        bound = bounds[metric]["bound"]
        share = spread(values)
        note = "" if share <= bound / 3 else (
            " above a third of the bound" if share <= bound else " WIDER THAN THE BOUND"
        )
        print(
            f"{workload:16s} {metric:12s} {len(values):3d} {_fmt(values):>36s} "
            f"{share:7.1%} {bound:6.0%}{note}"
        )
    return 0


def main(argv: List[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bounds = load_bounds()
    if len(argv) == 1:
        return summarize(load_runs(argv[:1]), bounds)
    return compare(load_runs(argv[:1]), load_runs(argv[1:]), bounds)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
