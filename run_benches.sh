#!/bin/bash
# Regenerate every table and ablation into results/ (full scale by default).
#
#   --quick   CI-sized run: tiny circuit suite, short micro-kernel times,
#             outputs under results/quick/ so checked-in full-scale results
#             are not clobbered.
#   --json    additionally distill the perf-trajectory baseline
#             results/BENCH_PR5.json (micro_kernels + table2_circuits +
#             scaling_threads summary) -- the file future PRs and the
#             perf-smoke CI job diff against via tools/check_bench_regression.py.
set -e
cd "$(dirname "$0")"

QUICK=0
EMIT_JSON=0
for arg in "$@"; do
  case $arg in
    --quick) QUICK=1 ;;
    --json) EMIT_JSON=1 ;;
    *) echo "usage: $0 [--quick] [--json]" >&2; exit 2 ;;
  esac
done

if [ "$QUICK" = 1 ]; then
  export CFS_BENCH_SCALE=${CFS_BENCH_SCALE:-tiny}
  MICRO_MIN_TIME=0.05
  OUTDIR=results/quick
else
  export CFS_BENCH_SCALE=${CFS_BENCH_SCALE:-full}
  MICRO_MIN_TIME=0.2
  OUTDIR=results
fi
mkdir -p "$OUTDIR"

for b in table2_circuits table3_deterministic table4_deterministic2 \
         table5_random table6_transition ablation_macro ablation_split \
         ablation_dropping ablation_collapse coverage_curve \
         scaling_threads scaling_rebalance; do
  echo "== $b =="
  extra=""
  case $b in
    # These also emit machine-readable $OUTDIR/*.json siblings.
    table2_circuits|scaling_threads|coverage_curve) extra="--json=$OUTDIR/$b.json" ;;
    # Static-vs-dynamic partitioning baseline; gated by
    # tools/check_scaling_gate.py (core-count-guarded in CI).
    scaling_rebalance) extra="--json=$OUTDIR/BENCH_PR8_scaling.json" ;;
  esac
  ./build/bench/$b $extra | tee "$OUTDIR/$b.txt"
done
python3 tools/check_scaling_gate.py "$OUTDIR/BENCH_PR8_scaling.json"
# A single-core host cannot exercise the wall-clock speedup assertion the
# gate guards (the gate warns on stderr and skips it); say so here too, so
# a green run on a laptop VM is not mistaken for scaling evidence.
if [ "$(nproc 2>/dev/null || echo 1)" -le 1 ]; then
  echo "WARNING: single-core host -- the scaling gate's wall-clock speedup" \
       "assertion was SKIPPED, not passed; regenerate on a multicore host" >&2
fi
./build/bench/micro_kernels --benchmark_min_time=$MICRO_MIN_TIME \
  --json="$OUTDIR/micro_kernels.json" | tee "$OUTDIR/micro_kernels.txt"

if [ "$EMIT_JSON" = 1 ]; then
  python3 tools/make_bench_baseline.py \
    --micro "$OUTDIR/micro_kernels.json" \
    --table2 "$OUTDIR/table2_circuits.json" \
    --scaling "$OUTDIR/scaling_threads.json" \
    --scale "$CFS_BENCH_SCALE" \
    --out "$OUTDIR/BENCH_PR5.json"
  echo "wrote $OUTDIR/BENCH_PR5.json"
fi
