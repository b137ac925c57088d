#!/usr/bin/env bash
# bench-ref-check.sh — pre-flight for the reference benchmark: run every
# workload BENCHMARK.json names for 5 s, untraced and traced, the way the
# driver invokes it, and fail unless each run exits 0 and its last stdout
# line reports "correct":true and "failed":0. (`go test ./bench` only
# smoke-runs 0.2 s and ignores the gates.)
set -uo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads="$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)"
if [ -z "$workloads" ]; then
    echo "bench-ref-check: no workloads found in BENCHMARK.json" >&2
    exit 1
fi

fail=0
for w in $workloads; do
    for trace in 0 1; do
        last="$(bash bench/run.sh --workload "$w" --seed 1 --seconds 5 --trace "$trace" 2>/dev/null | tail -n 1)"
        status=$? # pipefail: the benchmark's exit code, not tail's
        if [ "$status" -eq 0 ] && [[ "$last" == *'"correct":true'* ]] && [[ "$last" == *'"failed":0'* ]]; then
            echo "ok   $w trace=$trace"
        else
            echo "FAIL $w trace=$trace (exit $status): ${last:0:300}"
            fail=1
        fi
    done
done
exit $fail
