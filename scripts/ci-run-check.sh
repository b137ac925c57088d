#!/bin/sh
# ci-run-check.sh — fail when a CI step's `go test -run` pattern has an
# alternative that selects no test. A step that names a test which was
# deleted or renamed keeps passing while it runs nothing; this check makes
# such a step fail instead.
#
# For every line of .github/workflows/ci.yml that runs `go test` with -run,
# the pattern is split at its top-level `|` into alternatives, the step's
# packages are listed once with `go test -list`, and each alternative must
# match at least one Test, Example or Fuzz name there. An alternative holding
# a `/` is checked by its top-level part (go test -list names no subtests).
# Lines that also pass -bench are skipped: their -run deliberately selects
# no test so that only benchmarks run. Names are matched with grep -E, which
# agrees with Go's regexp on the plain names and alternations CI uses.
#
# Usage: scripts/ci-run-check.sh   (from anywhere; exits 1 on a dead pattern)
set -eu

cd "$(dirname "$0")/.."
ci=.github/workflows/ci.yml
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

grep -n 'go test .*-run' "$ci" >"$tmp/lines" || true
fail=0
checked=0
while IFS= read -r entry; do
    lineno="${entry%%:*}"
    cmd="${entry#*run: }"
    case "$cmd" in
    *" -bench "*) continue ;;
    esac
    # Split the command into the -run pattern and the package arguments.
    # Flags that take their value as the next word are skipped with it.
    echo "$cmd" | awk -v out="$tmp" '
    {
        line = $0
        sub(/^.*go test /, "", line)
        n = 0
        while (length(line) > 0) {
            sub(/^[ \t]+/, "", line)
            if (line == "") break
            if (substr(line, 1, 1) == "\047") {
                rest = substr(line, 2)
                end = index(rest, "\047")
                tok[++n] = substr(rest, 1, end - 1)
                line = substr(rest, end + 1)
            } else {
                match(line, /^[^ \t]+/)
                tok[++n] = substr(line, 1, RLENGTH)
                line = substr(line, RLENGTH + 1)
            }
        }
        pat = ""; pkgs = ""
        for (i = 1; i <= n; i++) {
            t = tok[i]
            if (t == "-run") { pat = tok[++i]; continue }
            if (t ~ /^-run=/) { pat = substr(t, 6); continue }
            if (t ~ /^-(count|timeout|cpu|tags|parallel|benchtime|list|bench)$/) { i++; continue }
            if (t ~ /^-/) continue
            pkgs = pkgs " " t
        }
        print pat > (out "/pattern")
        print pkgs > (out "/pkgs")
        # Top-level alternatives: split at | outside parentheses and brackets.
        depth = 0; alt = ""
        for (i = 1; i <= length(pat); i++) {
            c = substr(pat, i, 1)
            if (c == "\\") { alt = alt c substr(pat, i + 1, 1); i++; continue }
            if (c == "(" || c == "[") depth++
            if (c == ")" || c == "]") depth--
            if (c == "|" && depth == 0) { print alt > (out "/alts"); alt = ""; continue }
            alt = alt c
        }
        print alt > (out "/alts")
    }'
    pkgs="$(cat "$tmp/pkgs")"
    # shellcheck disable=SC2086 # the package list is word-split on purpose
    if ! go test -list '.*' $pkgs >"$tmp/list" 2>&1; then
        echo "ci-run-check: $ci:$lineno: go test -list failed for$pkgs:"
        cat "$tmp/list"
        exit 1
    fi
    grep -E '^(Test|Example|Fuzz)' "$tmp/list" >"$tmp/names" || true
    while IFS= read -r alt; do
        top="${alt%%/*}"
        checked=$((checked + 1))
        if [ -z "$top" ] || ! grep -Eq -- "$top" "$tmp/names"; then
            echo "ci-run-check: $ci:$lineno: -run alternative '$alt' matches no test in$pkgs"
            fail=1
        fi
    done <"$tmp/alts"
    rm -f "$tmp/alts"
done <"$tmp/lines"

if [ "$fail" -ne 0 ]; then
    echo "ci-run-check: a CI step selects tests that do not exist; fix the pattern or the step."
    exit 1
fi
echo "ci-run-check: OK ($checked -run alternatives, each matching a test)"
