#!/usr/bin/env bash
# Runs every workload N times on the current tree and compares the
# spread of each end-to-end metric with its bound in BENCHMARK.json.
#
#   benchmark/repeat.sh [N] [--vary-seeds]
#
# Default (N = 3, one seed): prints per-metric median and min–max
# spread; two traced runs per workload check that every exact count
# repeats bit for bit. Exits non-zero when a spread exceeds its bound
# (setup_s excepted, as in the benchmark contract), an exact count
# differs, or a run reports a failed op.
#
# --vary-seeds: run i uses seed i and the spread is the interquartile
# range over the median (statistics.quantiles, n=4) — the acceptance
# procedure of the benchmark contract. Exact counts are not compared
# (different seeds, different inputs).
set -euo pipefail
cd "$(dirname "$0")/.."

runs=3
vary=0
for arg in "$@"; do
    case "$arg" in
        --vary-seeds) vary=1 ;;
        *) runs="$arg" ;;
    esac
done

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
exec python3 - "$target/release/gfd-lifecycle-bench" "$runs" "$vary" <<'PY'
import json, statistics, subprocess, sys

binary, runs, vary = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
spec = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
def exact(name):
    """Counts that must repeat bit for bit for a given seed."""
    # What two racing workers leave in an evicting registry depends on
    # the schedule.
    if name == "matcher.registry_bytes":
        return False
    return (name.endswith((".matches", ".units", ".messages", ".fsyncs",
                           ".frames", ".fingerprint"))
            or ".vio_" in name or "bytes" in name)

def run(workload, seed, trace):
    out = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
        check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])

bad = False
for w in (w["name"] for w in spec["workloads"]):
    results = [run(w, i + 1 if vary else 1, 0) for i in range(runs)]
    print(f"== {w}: {runs} runs, " + ("seeds 1..%d" % runs if vary else "seed 1"))
    for r in results:
        if not r["correct"] or r["failed"]:
            print(f"   FAILED ops: {r['failed']} of {r['attempted']}")
            bad = True
    print(f"   {'metric':<20} {'median':>14} {'min':>14} {'max':>14} {'spread':>8} {'bound':>6}")
    for name, bound in bounds.items():
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        if vary and len(vals) >= 4:
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
        else:
            spread = (max(vals) - min(vals)) / med
        # Like the contract, never fail on the spread of setup_s.
        over = spread > bound and name != "setup_s"
        bad |= over
        print(f"   {name:<20} {med:>14.6g} {min(vals):>14.6g} {max(vals):>14.6g} "
              f"{spread:>8.3f} {bound:>6.2f}{'  OVER' if over else ''}")
    if not vary:
        a, b = run(w, 1, 1), run(w, 1, 1)
        for name, m in a["metrics"].items():
            if exact(name) and m != b["metrics"][name]:
                print(f"   exact count differs: {name} {m['value']} vs {b['metrics'][name]['value']}")
                bad = True
        bad |= not (a["correct"] and b["correct"])
sys.exit(1 if bad else 0)
PY
