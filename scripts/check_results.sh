#!/usr/bin/env bash
# Regenerates every committed results/*.csv and checks it byte for byte.
#
# Runs each fig*/ablation_* bench binary of a build tree in a scratch
# directory (the benches write <name>.csv into their working
# directory), then `cmp`s every CSV against its committed copy under
# results/. Fails on a differing CSV, on a committed CSV no bench wrote
# and on a bench CSV that is not committed.
#
#   scripts/check_results.sh [BUILD_DIR]    # default: build
#
# $HICC_JOBS sets the sweep workers (default 4); outputs do not depend
# on it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=$(cd "${1:-$root/build}" && pwd)
out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
export HICC_JOBS=${HICC_JOBS:-4}

for bench in "$build"/bench/fig* "$build"/bench/ablation_*; do
  [[ -f "$bench" && -x "$bench" ]] || continue
  (cd "$out" && "$bench" > "$(basename "$bench").log")
done

status=0
for committed in "$root"/results/*.csv; do
  name=$(basename "$committed")
  if [[ ! -f "$out/$name" ]]; then
    echo "MISSING: no bench wrote results/$name"
    status=1
  elif ! cmp -s "$committed" "$out/$name"; then
    echo "DIFFERS: results/$name"
    diff "$committed" "$out/$name" | head -n 10 || true
    status=1
  fi
done
for fresh in "$out"/*.csv; do
  [[ -f "$root/results/$(basename "$fresh")" ]] || {
    echo "UNCOMMITTED: $(basename "$fresh") is not under results/"
    status=1
  }
done
[[ $status -eq 0 ]] && echo "results/: every CSV matches"
exit $status
