#!/usr/bin/env python3
"""Distill a perf-trajectory baseline (results/BENCH_PR5.json).

Collects the machine-readable outputs of a run_benches.sh pass --
micro_kernels (google-benchmark JSON), table2_circuits, and scaling_threads
-- into one small summary future PRs diff against (see
check_bench_regression.py).  Standard library only.
"""
import argparse
import json
import os
import sys


def cpu_model():
    """Human-readable CPU model from /proc/cpuinfo, or None elsewhere."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_isa():
    """Widest vector ISA the host supports, mirroring simd::detect_isa()
    ("avx2" > "sse4.2" > "scalar" on x86, "neon" on aarch64), or None when
    undetectable.  Part of the host descriptor: timings only transfer
    between comparable machines."""
    machine = os.uname().machine if hasattr(os, "uname") else ""
    if machine in ("aarch64", "arm64"):
        return "neon"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.lower().startswith("flags"):
                    flags = line.split(":", 1)[1].split()
                    if "avx2" in flags:
                        return "avx2"
                    if "sse4_2" in flags:
                        return "sse4.2"
                    return "scalar"
    except OSError:
        pass
    return None


def host_block(micro_context):
    """Explicit host descriptor: benchmark timings only transfer between
    comparable machines, so the baseline records where it was measured."""
    host = {
        "num_cpus": micro_context.get("num_cpus") or os.cpu_count(),
        "cpu_model": micro_context.get("cpu_model") or cpu_model(),
        "isa": host_isa(),
    }
    if "mhz_per_cpu" in micro_context:
        host["mhz_per_cpu"] = micro_context["mhz_per_cpu"]
    return host


def load(path, required):
    try:
        with open(path) as f:
            return json.load(f)
    except OSError as e:
        if required:
            sys.exit(f"error: cannot read {path}: {e}")
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--micro", required=True,
                    help="micro_kernels google-benchmark JSON")
    ap.add_argument("--table2", default=None, help="table2_circuits JSON")
    ap.add_argument("--scaling", default=None, help="scaling_threads JSON")
    ap.add_argument("--scale", default="unknown",
                    help="CFS_BENCH_SCALE the run used")
    ap.add_argument("--name", default="BENCH_PR5",
                    help="baseline tag stored in the output")
    ap.add_argument("--out", required=True, help="output baseline JSON")
    args = ap.parse_args()

    micro = load(args.micro, required=True)
    out = {
        "baseline": args.name,
        "scale": args.scale,
        "host_context": micro.get("context", {}),
        "host": host_block(micro.get("context", {})),
        "micro_kernels": {},
    }
    for b in micro.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        entry = {
            "real_time": b["real_time"],
            "cpu_time": b["cpu_time"],
            "time_unit": b.get("time_unit", "ns"),
        }
        if "items_per_second" in b:
            entry["items_per_second"] = b["items_per_second"]
        out["micro_kernels"][b["name"]] = entry

    table2 = load(args.table2, required=False) if args.table2 else None
    if table2 is not None:
        out["table2"] = {
            r["circuit"]: {
                "faults": r.get("faults"),
                "vectors": r.get("vectors"),
                "coverage_pct": r.get("coverage_pct"),
            }
            for r in table2.get("rows", [])
        }

    scaling = load(args.scaling, required=False) if args.scaling else None
    if scaling is not None:
        out["scaling_threads"] = [
            {
                "circuit": r["circuit"],
                "threads": r["threads"],
                "vectors_per_s": r.get("vectors_per_s"),
                "speedup": r.get("speedup"),
                "hard": r.get("hard"),
            }
            for r in scaling.get("rows", [])
        ]

    with open(args.out, "w") as f:
        json.dump(out, f, indent=2, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    main()
