#!/usr/bin/env python3
"""Compare two sides of an interleaved ledger A/B (see ab.sh).

Each side is a directory of result files named WORKLOAD-PAIR.json, each
holding the last stdout line of one untraced ledger run.  Pairs are matched
by PAIR.  Metrics, their direction and their regression bounds come from
BENCHMARK.json.  One row per workload x metric:

  gain        at least 10 pairs, the change wins >= 9/10 of them (ties
              count for neither), and the medians differ by more than the
              base's interquartile range
  REGRESSION  the change's median is worse than the base's by more than
              the metric's bound
  unresolved  either side's spread (IQR / median) exceeds the bound, unless
              every change run reads better than every base run
  same        none of the above

Exit status: 1 on any regression or failed run, else 0.

  compare.py BASE_DIR CHANGE_DIR [--benchmark BENCHMARK.json]
"""
import argparse
import json
import pathlib
import statistics
import sys


def load_side(directory):
    """{workload: {pair: result}} from WORKLOAD-PAIR.json files."""
    side = {}
    for path in sorted(pathlib.Path(directory).glob("*-*.json")):
        workload, _, pair = path.stem.rpartition("-")
        if not pair.isdigit():
            continue
        text = path.read_text().strip()
        try:
            result = json.loads(text) if text else None
        except json.JSONDecodeError:
            result = None
        side.setdefault(workload, {})[int(pair)] = result
    return side


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base, change, better, bound):
    sign = -1.0 if better == "lower" else 1.0
    q1a, ma, q3a = quartiles(base)
    q1b, mb, q3b = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum(1 for a, b in pairs if (b - a) * sign > 0)
    if (mb - ma) * sign > 0 and wins >= 0.9 * len(pairs) and \
            abs(mb - ma) > q3a - q1a:
        return ("gain" if len(pairs) >= 10 else "unresolved"), wins
    if ma != 0 and (mb - ma) * -sign / abs(ma) > bound:
        return "REGRESSION", wins
    spread = max((q3a - q1a) / abs(ma) if ma else 0.0,
                 (q3b - q1b) / abs(mb) if mb else 0.0)
    every_run_better = all((b - a) * sign > 0 for a in base for b in change)
    if spread > bound and not every_run_better:
        return "unresolved", wins
    return "same", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    args = ap.parse_args()

    metrics = json.loads(pathlib.Path(args.benchmark).read_text())["end_to_end"]
    base, change = load_side(args.base), load_side(args.change)
    bad = False
    header = (f"{'workload':18} {'metric':14} {'base median [q1, q3]':38} "
              f"{'change median [q1, q3]':38} {'wins':>6}  verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) | set(change)):
        a_runs, b_runs = base.get(workload, {}), change.get(workload, {})
        pairs = sorted(set(a_runs) & set(b_runs))
        failed = [p for p in pairs
                  if not (a_runs[p] and a_runs[p]["correct"] and
                          b_runs[p] and b_runs[p]["correct"])]
        if failed or not pairs:
            print(f"{workload:18} runs failed or incorrect in pairs "
                  f"{failed or 'all'}")
            bad = True
            continue
        for m in metrics:
            name = m["name"]
            a = [a_runs[p]["metrics"][name]["value"] for p in pairs]
            b = [b_runs[p]["metrics"][name]["value"] for p in pairs]
            what, wins = verdict(a, b, m["better"], m["bound"])
            bad |= what == "REGRESSION"
            qa, qb = quartiles(a), quartiles(b)
            cell = "{1:.6g} [{0:.6g}, {2:.6g}]"
            print(f"{workload:18} {name:14} {cell.format(*qa):38} "
                  f"{cell.format(*qb):38} {wins:>3}/{len(pairs):<2}  {what}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
