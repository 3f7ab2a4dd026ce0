#!/usr/bin/env bash
# Smoke run: tenth-scale graphs and 40 epochs per workload, both the
# untraced and the traced pass, every cross-path, durability and
# workload self-check on. Under 20 s once built; the script a CI job
# can call. Exits non-zero on the first run that reports a failed op.
set -euo pipefail
cd "$(dirname "$0")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
for workload in kb-trees social-cycles bulk-burst wide-sigma; do
    for trace in 0 1; do
        result=$("$target/release/gfd-lifecycle-bench" --workload "$workload" \
            --seed 1 --seconds 1 --trace "$trace" --smoke | tail -n 1)
        case "$result" in
            '{"correct": true,'*) echo "ok   $workload trace=$trace" ;;
            *) echo "FAIL $workload trace=$trace: $result"; exit 1 ;;
        esac
    done
done
