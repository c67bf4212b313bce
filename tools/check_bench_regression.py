#!/usr/bin/env python3
"""Fail on micro-kernel perf regressions against a checked-in baseline.

Usage:
    check_bench_regression.py CURRENT.json BASELINE.json [--tolerance 0.20]
                              [--bench NAME ...] [--min-speedup R]

CURRENT.json is a fresh google-benchmark JSON run (micro_kernels --json=...);
BASELINE.json is the distilled results/BENCH_PR5.json (or another raw
google-benchmark JSON -- both shapes are accepted).  A benchmark regresses
when its real_time exceeds the baseline's by more than the tolerance
(default 20%).  --min-speedup R additionally requires
baseline_real_time / current_real_time >= R for every checked benchmark
(a speedup gate on top of the regression gate).  Benchmarks absent from
either side are reported and skipped unless explicitly requested with
--bench, in which case they fail the run.

Host comparability is checked loudly but never fails the gate: a missing
host descriptor on either side, a core-count mismatch, or a vector-ISA
mismatch each print a warning so a surprise ratio can be read correctly --
timing ratios across different hosts or kernel sets reflect the machine,
not the code.  Standard library only.
"""
import argparse
import json
import sys


def extract(doc):
    """name -> real_time, from either a raw google-benchmark JSON or a
    distilled BENCH_PR5 baseline."""
    if "micro_kernels" in doc:  # distilled baseline
        return {k: v["real_time"] for k, v in doc["micro_kernels"].items()}
    out = {}
    for b in doc.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        out[b["name"]] = b["real_time"]
    return out


def num_cpus(doc):
    """Host core count, from either document shape; None if unrecorded."""
    for block in (doc.get("context"), doc.get("host"),
                  doc.get("host_context")):
        if isinstance(block, dict) and block.get("num_cpus"):
            return block["num_cpus"]
    return None


def host_isa(doc):
    """Widest vector ISA of the host the document was measured on
    ("avx2", ...), or None if unrecorded (raw google-benchmark JSON has no
    such field)."""
    host = doc.get("host")
    if isinstance(host, dict):
        return host.get("isa")
    return None


def warn_host_mismatch(cur_doc, base_doc):
    """Timings only transfer between comparable hosts.  None of these
    checks fails the gate, but every incomparability is called out loudly
    so a surprise ratio can be read correctly."""
    cur, base = num_cpus(cur_doc), num_cpus(base_doc)
    # A side with no host descriptor at all is worse than a mismatch: the
    # comparison is unverifiable.  Warn loudly instead of silently passing.
    for side, n in (("current", cur), ("baseline", base)):
        if n is None:
            print(f"warning: {side} document records no host metadata "
                  f"(num_cpus missing from context/host/host_context); "
                  f"cannot verify the runs are comparable -- treat ratios "
                  f"with suspicion", file=sys.stderr)
    if cur is not None and base is not None and cur != base:
        print(f"warning: host core-count mismatch -- current run on "
              f"{cur} cpus, baseline recorded on {base}; timing ratios "
              f"may reflect the machine, not the code", file=sys.stderr)
    cur_isa, base_isa = host_isa(cur_doc), host_isa(base_doc)
    if cur_isa and base_isa and cur_isa != base_isa:
        print(f"warning: vector-ISA mismatch -- current host is "
              f"{cur_isa}, baseline recorded on {base_isa}; timing ratios "
              f"may reflect the machine, not the code", file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current")
    ap.add_argument("baseline")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed fractional slowdown (default 0.20)")
    ap.add_argument("--bench", action="append", default=[],
                    help="benchmark name that must be present and pass; "
                         "repeatable.  Without it, every common name is "
                         "checked.")
    ap.add_argument("--min-speedup", type=float, default=None,
                    help="require baseline/current real_time >= R for "
                         "every checked benchmark (speedup gate)")
    args = ap.parse_args()

    with open(args.current) as f:
        cur_doc = json.load(f)
    with open(args.baseline) as f:
        base_doc = json.load(f)
    cur = extract(cur_doc)
    base = extract(base_doc)
    warn_host_mismatch(cur_doc, base_doc)

    names = args.bench if args.bench else sorted(set(cur) & set(base))
    failures = []
    for name in names:
        if name not in cur or name not in base:
            failures.append(f"{name}: missing from "
                            f"{'current' if name not in cur else 'baseline'}")
            continue
        ratio = cur[name] / base[name]
        speedup = base[name] / cur[name]
        verdict = "ok"
        if ratio > 1.0 + args.tolerance:
            verdict = "REGRESSION"
            failures.append(f"{name}: {ratio:.3f}x baseline real_time "
                            f"(tolerance {1.0 + args.tolerance:.2f}x)")
        elif args.min_speedup is not None and speedup < args.min_speedup:
            verdict = "TOO SLOW"
            failures.append(f"{name}: {speedup:.3f}x speedup over baseline "
                            f"(required >= {args.min_speedup:.2f}x)")
        print(f"{name}: current {cur[name]:.0f} vs baseline "
              f"{base[name]:.0f} ({ratio:.3f}x, speedup {speedup:.3f}x) "
              f"{verdict}")

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for msg in failures:
            print(f"  {msg}", file=sys.stderr)
        sys.exit(1)
    gate = f"within {args.tolerance:.0%} of baseline"
    if args.min_speedup is not None:
        gate += f" and >= {args.min_speedup:.2f}x speedup"
    print(f"\n{len(names)} benchmark(s) {gate}")


if __name__ == "__main__":
    main()
