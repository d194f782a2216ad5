#!/usr/bin/env bash
# One-command end-to-end benchmark: builds bench/e2e/gasched_bench (and the
# gasched library it links) in Release into build-e2e/, then runs it from
# the repository root.
#
#   bench/e2e/run.sh                          # all four workloads, 20 s each
#   bench/e2e/run.sh --smoke                  # all four at a tiny scale
#   bench/e2e/run.sh --workload batch_pn --seed 7 --seconds 20
#   bench/e2e/run.sh --workload stream_pn --trace 1 --trace-dir traces
#
# Without --workload every workload runs in its own process with the
# remaining arguments. Build output goes to stderr; the last line of
# stdout of each run is its JSON result. See bench/e2e/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
if [[ ! -f "$root/CMakeLists.txt" || ! -d "$root/src" ]]; then
  echo "run.sh: $root is not a gasched source tree (no CMakeLists.txt or src/)" >&2
  exit 2
fi

build="$root/build-e2e"
jobs="$(nproc 2>/dev/null || echo 1)"
if (( jobs > 4 )); then jobs=4; fi

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$here" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
fi
cmake --build "$build" --target gasched_bench -j "$jobs" >&2

cd "$root"
unset GASCHED_NUMERIC_MODE GASCHED_KERNEL_ISA

for arg in "$@"; do
  if [[ "$arg" == "--workload" || "$arg" == "--help" || "$arg" == "-h" ]]; then
    exec "$build/gasched_bench" "$@"
  fi
done

status=0
for workload in batch_pn stream_pn stream_ef figset_quick; do
  "$build/gasched_bench" --workload "$workload" "$@" || status=1
done
exit "$status"
