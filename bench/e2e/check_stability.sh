#!/usr/bin/env bash
# Runs the end-to-end benchmark twice over the same seeds and checks that
# the two sets agree within the bounds BENCHMARK.json fixes.
#
#   bench/e2e/check_stability.sh [--seeds N] [--seconds T] [--workload W]...
#                                [--no-trace]
#
# For every workload (default: all four) set A and then set B run the
# seeds 1..N (default 1), each seed in its own process. One row is
# printed per (workload, end-to-end metric): the median of each set, the
# change from A to B in the metric's worse direction, its bound, and,
# with N >= 4, each set's spread — the distance between the first and
# third quartiles (statistics.quantiles, n=4) as a share of the median.
# A row fails when B is worse than A by more than the bound, when a
# spread other than setup_s's exceeds the bound, or when a deterministic
# metric (schedule quality, peak heap) differs between the sets for the
# same seed.
# Unless --no-trace is given, each workload then makes two traced runs
# (default seed) whose per-layer counts must be identical and whose
# replay must match the scheduler on every invocation. Every run's
# metric names must be exactly the ones BENCHMARK.json lists.
#
# Exits 1 on any disagreement, 0 otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
seeds=1
seconds=""
trace=1
workloads=()
while (( $# > 0 )); do
  case "$1" in
    --seeds) seeds="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workloads+=("$2"); shift 2 ;;
    --no-trace) trace=0; shift ;;
    *) echo "check_stability.sh: unknown option '$1'" >&2; exit 2 ;;
  esac
done
if (( ${#workloads[@]} == 0 )); then
  workloads=(batch_pn stream_pn stream_ef figset_quick)
fi
if [[ -z "$seconds" ]]; then
  seconds="$(python3 -c 'import json,sys; print(json.load(open(sys.argv[1]))["run_seconds"])' "$root/BENCHMARK.json")"
fi

out="$root/build-e2e/stability"
rm -rf "$out"
mkdir -p "$out"

run() {  # run WORKLOAD FILE ARGS... — appends the run's JSON line to FILE
  local workload="$1" file="$2"
  shift 2
  local line
  line="$("$here/run.sh" --workload "$workload" "$@" 2>>"$out/stderr.log" | tail -n 1)" || true
  [[ "$line" == "{"* ]] || line='{}'
  printf '%s\n' "$line" >> "$file"
}

for workload in "${workloads[@]}"; do
  for set in A B; do
    for (( seed = 1; seed <= seeds; ++seed )); do
      run "$workload" "$out/$workload.$set.jsonl" --seed "$seed" --seconds "$seconds"
    done
  done
  if (( trace )); then
    for set in A B; do
      run "$workload" "$out/$workload.trace$set.jsonl" --trace 1 --trace-dir "$out/trace$set"
    done
  fi
done

python3 - "$root/BENCHMARK.json" "$out" "$trace" "${workloads[@]}" <<'EOF'
import json
import statistics
import sys

spec_path, out, trace, workloads = sys.argv[1], sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
spec = json.load(open(spec_path))
e2e = spec["end_to_end"]
layer_names = [m["name"] for m in spec["per_layer"]]
deterministic = {"makespan_over_lb", "peak_heap_mb"}


def load(path):
    runs = []
    for line in open(path):
        try:
            runs.append(json.loads(line))
        except ValueError:
            runs.append({})
    return runs


def spread(values):
    if len(values) < 4:
        return None
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


ok = True
print(f"{'workload':<13} {'metric':<18} {'median A':>12} {'median B':>12} "
      f"{'worse':>8} {'bound':>6} {'spread A':>9} {'spread B':>9}  verdict")
for w in workloads:
    sets = {s: load(f"{out}/{w}.{s}.jsonl") for s in "AB"}
    for s, runs in sets.items():
        for i, r in enumerate(runs):
            names = sorted(r.get("metrics", {}))
            if not r.get("correct") or names != sorted(m["name"] for m in e2e):
                print(f"{w}: set {s} seed {i + 1}: failed run or wrong metric names")
                ok = False
    for m in e2e:
        name = m["name"]
        vals = {s: [r["metrics"][name]["value"] for r in runs
                    if name in r.get("metrics", {})] for s, runs in sets.items()}
        if not vals["A"] or not vals["B"]:
            ok = False
            continue
        a, b = statistics.median(vals["A"]), statistics.median(vals["B"])
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        sa, sb = spread(vals["A"]), spread(vals["B"])
        bad = worse > m["bound"]
        if name != "setup_s":
            bad |= any(sp is not None and sp > m["bound"] for sp in (sa, sb))
        if name in deterministic:
            bad |= vals["A"] != vals["B"]
        ok &= not bad
        fmt = lambda sp: "-" if sp is None else f"{sp:.4f}"
        print(f"{w:<13} {name:<18} {a:>12.6g} {b:>12.6g} {worse:>8.4f} "
              f"{m['bound']:>6.2f} {fmt(sa):>9} {fmt(sb):>9}  "
              f"{'FAIL' if bad else 'ok'}")
    if not trace:
        continue
    runs = [load(f"{out}/{w}.trace{s}.jsonl")[0] for s in "AB"]
    for s, r in zip("AB", runs):
        if not r.get("correct") or sorted(r.get("metrics", {})) != sorted(layer_names):
            print(f"{w}: traced run {s} failed or has wrong metric names")
            ok = False
    if all(r.get("metrics") for r in runs):
        counts = [n for n in layer_names if runs[0]["metrics"][n]["unit"] == "count"]
        differ = [n for n in counts
                  if runs[0]["metrics"][n]["value"] != runs[1]["metrics"][n]["value"]]
        mismatches = max(r["metrics"]["trace.replay_mismatches"]["value"] for r in runs)
        verdict = "ok" if not differ and mismatches == 0 else "FAIL"
        ok &= verdict == "ok"
        print(f"{w:<13} traced: {len(counts)} counts identical across two runs: "
              f"{'yes' if not differ else 'no ' + ','.join(differ)}; "
              f"replay mismatches {mismatches:g}  {verdict}")
sys.exit(0 if ok else 1)
EOF
