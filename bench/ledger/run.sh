#!/usr/bin/env bash
# Build the ledger driver (Release, from ../../src), then run it.
#
#   bench/ledger/run.sh                    all four workloads, untraced
#   bench/ledger/run.sh --trace            ... then each once more, traced
#   bench/ledger/run.sh --smoke [--trace]  tiny sizes, every check kept
#   bench/ledger/run.sh --seed=N | --reps=N | --seconds=S   passed through
#   bench/ledger/run.sh --build            build only
#
#   bench/ledger/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload; the last stdout line is the JSON result
#
# Reports and ledger documents land in bench/ledger/out/.  Exits non-zero
# when the build fails, a workload errors, or any check fails.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."
# Paths stay relative to the repository root: the service workload puts an
# AF_UNIX socket under out/, and socket paths are limited to ~100 bytes.
rel=bench/ledger
bin="$rel/build/ledger"

if [ ! -f src/CMakeLists.txt ]; then
  echo "run.sh: library sources not found (expected src/ beside bench/)" >&2
  exit 1
fi

cpus="$(nproc)"
jobs=$(( cpus < 4 ? cpus : 4 ))
mkdir -p "$rel/build" "$rel/out"
log="$rel/build/build.log"
if [ ! -f "$rel/build/CMakeCache.txt" ]; then
  gen=()
  if command -v ninja > /dev/null; then gen=(-G Ninja); fi
  if ! cmake -S "$rel" -B "$rel/build" "${gen[@]}" \
      -DCMAKE_BUILD_TYPE=Release > "$log" 2>&1; then
    tail -n 30 "$log" >&2
    rm -f "$rel/build/CMakeCache.txt"
    echo "run.sh: cmake configure failed (log: $log)" >&2
    exit 1
  fi
fi
if ! cmake --build "$rel/build" -j "$jobs" >> "$log" 2>&1; then
  tail -n 30 "$log" >&2
  echo "run.sh: build failed (log: $log)" >&2
  exit 1
fi

LEDGER_COMMIT="$(git rev-parse --short=12 HEAD 2> /dev/null || echo unknown)"
export LEDGER_COMMIT
common=(--out="$rel/out" --pins="$rel/pins.json")

if [ "$cpus" -lt 4 ]; then
  echo "run.sh: WARNING: only $cpus cpus; the workloads assume 4 and" \
       "their numbers are not comparable with a 4-cpu ledger" >&2
fi

for a in "$@"; do
  case "$a" in
    --build) exit 0 ;;
    --workload|--workload=*) exec "$bin" "${common[@]}" "$@" ;;
  esac
done

trace=0
pass=()
for a in "$@"; do
  case "$a" in
    --trace|--trace=1) trace=1 ;;
    --trace=0) ;;
    *) pass+=("$a") ;;
  esac
done

status=0
run_one() {
  local w="$1" t="$2" out="$rel/out/run-$1.txt"
  if [ "$t" = 1 ]; then out="$rel/out/run-$w-trace.txt"; fi
  if ! "$bin" "${common[@]}" --workload="$w" --trace="$t" "${pass[@]}" \
      | tee "$out"; then
    echo "run.sh: $w failed" >&2
    status=1
  elif ! tail -n 1 "$out" | grep -q '^{"correct": true'; then
    echo "run.sh: $w: a check failed" >&2
    status=1
  fi
}
workloads=(seq-s5378 lanes-s35932 campaign-s5378-tr svc-mix)
for w in "${workloads[@]}"; do run_one "$w" 0; done
if [ "$trace" = 1 ]; then
  for w in "${workloads[@]}"; do run_one "$w" 1; done
fi
exit "$status"
