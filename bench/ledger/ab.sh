#!/usr/bin/env bash
# Interleaved A/B of the ledger: <rev> (base) against this checkout
# (change), both running this checkout's bench/ledger code.
#
#   bench/ledger/ab.sh <rev> [--pairs=10] [--seed=N]
#
# The base tree is exported with `git archive` (local, no network) into
# bench/ledger/out/ab/<sha>/base, and its bench/ledger is replaced by this
# checkout's, so only the library differs.  Each pair runs every workload
# on both sides, alternating which side goes first.  compare.py prints one
# row per workload x metric; `ab.sh HEAD` is the repeatability check.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/../.."

if [ $# -lt 1 ] || [ "${1#--}" != "$1" ]; then
  echo "usage: bench/ledger/ab.sh <rev> [--pairs=N] [--seed=N]" >&2
  exit 2
fi
rev="$1"
shift
pairs=10
seed=1
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads=(seq-s5378 lanes-s35932 campaign-s5378-tr svc-mix)
for a in "$@"; do
  case "$a" in
    --pairs=*) pairs="${a#*=}" ;;
    --seed=*) seed="${a#*=}" ;;
    *) echo "ab.sh: unknown flag $a" >&2; exit 2 ;;
  esac
done

sha="$(git rev-parse --verify "$rev^{commit}")"
dir="bench/ledger/out/ab/${sha:0:12}"
base="$dir/base"
rm -rf "$dir"
mkdir -p "$base" "$dir/results/base" "$dir/results/change"
git archive "$sha" | tar -x -C "$base"
rm -rf "$base/bench/ledger"
mkdir -p "$base/bench/ledger"
tar -c --exclude=./build --exclude=./out -C bench/ledger . |
  tar -x -C "$base/bench/ledger"

echo "ab.sh: building base ($rev = ${sha:0:12}) and change" >&2
bash "$base/bench/ledger/run.sh" --build
bash bench/ledger/run.sh --build

run_side() {
  local side="$1" w="$2" p="$3" root=.
  [ "$side" = base ] && root="$base"
  bash "$root/bench/ledger/run.sh" --workload "$w" --seed "$seed" \
      --seconds "$seconds" --trace 0 | tail -n 1 \
      > "$dir/results/$side/$w-$p.json" || true
}
for p in $(seq 1 "$pairs"); do
  for w in "${workloads[@]}"; do
    echo "ab.sh: pair $p/$pairs $w" >&2
    if [ $((p % 2)) = 1 ]; then
      run_side base "$w" "$p"; run_side change "$w" "$p"
    else
      run_side change "$w" "$p"; run_side base "$w" "$p"
    fi
  done
done
python3 bench/ledger/compare.py "$dir/results/base" "$dir/results/change" \
    --benchmark BENCHMARK.json
