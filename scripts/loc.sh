#!/bin/sh
# loc.sh — the line count simplicity PRs quote: non-blank, non-comment lines
# of non-test Go per package, excluding the reference benchmark (bench/).
# A line counts unless it is empty or starts with //; block comments and
# trailing comments are not special-cased, so the number is reproducible
# with `grep -v '^\s*//' | grep -v '^\s*$' | wc -l`.
#
# Usage: scripts/loc.sh [dir]   (default: the repository root)
set -eu

cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' |
    sed 's|/[^/]*$||' | sort -u |
    while IFS= read -r dir; do
        n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + |
            grep -v '^[[:space:]]*//' | grep -vc '^[[:space:]]*$' || true)
        printf '%7d  %s\n' "$n" "${dir#./}"
    done | awk '{ total += $1; print } END { printf "%7d  total\n", total }'
