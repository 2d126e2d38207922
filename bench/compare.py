"""Compare two sets of benchmark runs.

    python3 bench/compare.py A B

A and B are run logs (``bench/.results/runs.jsonl`` of two checkouts, or a
directory holding one).  For every workload and metric it prints each side's
median and quartiles, how many seed-matched pairs B wins, and the ratio of
the medians with its base.  ``fail_ratio`` is derived from ``failed`` and
``attempted``.  Which direction wins comes from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json")


def load_runs(path: str) -> dict:
    """(workload, trace) -> metric -> seed -> list of values."""
    if os.path.isdir(path):
        path = os.path.join(path, "runs.jsonl")
    table = defaultdict(lambda: defaultdict(lambda: defaultdict(list)))
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            record = json.loads(line)
            result = record["result"]
            values = {k: m["value"] for k, m in result["metrics"].items()}
            values["fail_ratio"] = result["failed"] / result["attempted"]
            for metric, value in values.items():
                table[(record["workload"], record["trace"])][metric][record["seed"]].append(value)
    return table


def directions() -> dict:
    with open(BENCHMARK, encoding="utf-8") as fh:
        bench = json.load(fh)
    out = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    out["fail_ratio"] = "lower"
    return out


def summary(values: list) -> tuple:
    """(median, first quartile, third quartile)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3


def pair_wins(a: dict, b: dict, better: str) -> tuple:
    """(B wins, pairs) over runs with the same seed; ties count for neither."""
    wins = pairs = 0
    for seed in sorted(set(a) & set(b)):
        for x, y in zip(a[seed], b[seed]):
            pairs += 1
            wins += (y < x) if better == "lower" else (y > x)
    return wins, pairs


def compare(a_path: str, b_path: str, out=sys.stdout) -> None:
    a_runs, b_runs = load_runs(a_path), load_runs(b_path)
    better = directions()
    for key in sorted(set(a_runs) & set(b_runs)):
        workload, trace = key
        print(f"== {workload} (trace {trace})", file=out)
        for metric in sorted(set(a_runs[key]) & set(b_runs[key])):
            a = a_runs[key][metric]
            b = b_runs[key][metric]
            a_med, a_q1, a_q3 = summary([v for vs in a.values() for v in vs])
            b_med, b_q1, b_q3 = summary([v for vs in b.values() for v in vs])
            wins, pairs = pair_wins(a, b, better.get(metric, "lower"))
            ratio = f"{b_med / a_med:.3f}" if a_med else "n/a"
            print(
                f"  {metric:40s} A {a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]"
                f"  B {b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]"
                f"  B wins {wins}/{pairs}  B/A {ratio} (base A {a_med:.4g})",
                file=out,
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="compare two sets of benchmark runs")
    parser.add_argument("a", help="run log or results directory of the base side")
    parser.add_argument("b", help="run log or results directory of the changed side")
    args = parser.parse_args(argv)
    compare(args.a, args.b)
    return 0


if __name__ == "__main__":
    sys.exit(main())
