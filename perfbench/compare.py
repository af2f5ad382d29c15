#!/usr/bin/env python3
"""Compare two sets of benchmark results by median, per workload and metric.

  python3 perfbench/compare.py --base perfbench/.work/results/psi-sweep-seed*-trace0.json \
                               --new  other/results/psi-sweep-seed*-trace0.json

Each file is a result written by run.py.  Results that ran on different
kernel backends, or with a different PERMPAT_PURE setting, are refused:
their difference would measure the backend, not the change.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys


def load(paths: list[str]) -> list[dict]:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    return results


def medians(results: list[dict]) -> dict[tuple[str, str], tuple[float, str, int]]:
    values: dict[tuple[str, str], list] = {}
    for r in results:
        for metric, (value, unit) in r["metrics"].items():
            values.setdefault((r["stamp"]["workload"], metric), []).append((value, unit))
    return {key: (statistics.median(v for v, _ in vals), vals[0][1], len(vals)) for key, vals in values.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--new", nargs="+", required=True)
    args = parser.parse_args(argv)
    base, new = load(args.base), load(args.new)
    setups = {(r["stamp"]["backend"], r["stamp"]["permpat_pure"], r["stamp"]["trace"]) for r in base + new}
    if len(setups) != 1:
        print(f"refusing to compare results from different backends or modes: {sorted(setups)}", file=sys.stderr)
        return 2
    before, after = medians(base), medians(new)
    print(f"{'workload':<14} {'metric':<40} {'base':>12} {'new':>12} {'change':>8}  runs")
    for key in sorted(before.keys() & after.keys()):
        (b, unit, nb), (a, _, na) = before[key], after[key]
        change = f"{100 * (a - b) / b:+.1f}%" if b else "n/a"
        print(f"{key[0]:<14} {key[1]:<40} {b:>12.6g} {a:>12.6g} {change:>8}  {nb}/{na} {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
