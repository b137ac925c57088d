#!/usr/bin/env bash
# bench-ref-check.sh — pre-flight for the reference benchmark: run every
# workload BENCHMARK.json names for 5 s, untraced and traced, the way the
# driver invokes it, and fail unless each run exits 0 and its last stdout
# line reports "correct":true and "failed":0. (`go test ./bench` only
# smoke-runs 0.2 s and ignores the gates.)
#
# The generator-lag gate ("generator ran late") measures the host, not the
# system: on a busy machine the load generator's own goroutines start late.
# A run whose only violation is that gate is rerun once; if the rerun is
# clean, or again fails on nothing but that gate, the line says "noise" and
# the check does not fail on it.
#
# Every run that is not ok (a failure, or generator lag) keeps its stderr
# and its -out directory (trace spans, persist stores) under
# .bench_build/bench-ref-check/<n>-<workload>-trace<0|1>/, so a refusal can
# be diagnosed after the fact. Each invocation starts that directory afresh.
set -uo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workloads="$(sed -n 's/.*{"name": "\([a-z0-9_]*\)", "why".*/\1/p' BENCHMARK.json)"
if [ -z "$workloads" ]; then
    echo "bench-ref-check: no workloads found in BENCHMARK.json" >&2
    exit 1
fi

keep=.bench_build/bench-ref-check
rm -rf "$keep"
runs=0

# check runs one pass and sets last (its JSON line), dir (where its stderr
# and -out files are kept unless it is ok) and verdict: ok, lag (failed on
# the generator-lag gate alone) or fail.
check() {
    runs=$((runs + 1))
    dir="$keep/$runs-$1-trace$2"
    errf="$dir/stderr"
    mkdir -p "$dir"
    last="$(bash bench/run.sh --workload "$1" --seed 1 --seconds 5 --trace "$2" --out "$dir" 2>"$errf" | tail -n 1)"
    status=$? # pipefail: the benchmark's exit code, not tail's
    if [ "$status" -eq 0 ] && [[ "$last" == *'"correct":true'* ]] && [[ "$last" == *'"failed":0'* ]]; then
        verdict=ok
    elif [[ "$last" == *'"failed":0'* ]] && grep -q 'VIOLATION: generator ran late' "$errf" &&
        ! grep 'VIOLATION:' "$errf" | grep -vq 'generator ran late'; then
        verdict=lag
    else
        verdict=fail
    fi
    if [ "$verdict" = ok ]; then
        rm -rf "$dir"
    fi
}

fail=0
for w in $workloads; do
    for trace in 0 1; do
        check "$w" "$trace"
        if [ "$verdict" = lag ]; then
            check "$w" "$trace"
            case "$verdict" in
            ok) echo "ok   $w trace=$trace (first run: generator lag only, host noise)"; continue ;;
            lag) echo "noise $w trace=$trace (generator lag only, twice: the host is too busy to measure)"; continue ;;
            esac
        fi
        if [ "$verdict" = ok ]; then
            echo "ok   $w trace=$trace"
        else
            echo "FAIL $w trace=$trace (exit $status): ${last:0:300}"
            grep 'VIOLATION:' "$errf" | head -n 5
            echo "     stderr and -out files kept in $dir"
            fail=1
        fi
    done
done
exit $fail
