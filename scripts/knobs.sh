#!/bin/sh
# knobs.sh — the option audit: print every exported field of a *Config or
# *Options struct that nothing outside its declaring file sets. A field
# counts as set when a non-test Go file other than the one declaring it
# (bench/ included: the reference benchmark is a caller) holds a keyed
# literal `Field:` or an assignment `.Field =`. Structs whose fields carry
# json tags are skipped — those are file formats, audited by config.Parse's
# strict decoding, not option structs.
#
# The match is by field name, not by type, so a name shared between two
# structs can hide an unset field; it never invents one.
#
# scripts/knobs.allow lists the options kept on purpose, one per line as
# `pkg.Struct.Field  reason`. Anything printed beyond it fails the run: an
# option has to earn a caller or go.
#
# Usage: scripts/knobs.sh   (from anywhere; exits 1 on an unlisted knob)
set -eu

cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

find . -name '*.go' ! -name '*_test.go' ! -path './.bench_build/*' | sort >"$tmp/files"

# Emit "pkgdir.Struct.Field<TAB>file" for every exported field of every
# json-free *Config / *Options struct declared outside bench/.
grep -v '^\./bench/' "$tmp/files" | while IFS= read -r f; do
    awk -v file="${f#./}" '
        function flush(   i) {
            if (name != "" && !json)
                for (i = 0; i < n; i++) printf "%s.%s.%s\t%s\n", pkg, name, field[i], file
            name = ""; n = 0; json = 0
        }
        BEGIN { pkg = file; sub(/\/[^\/]*$/, "", pkg); sub(/^.*\//, "", pkg) }
        /^type [A-Za-z0-9_]*(Config|Options) struct \{/ { flush(); name = $2; next }
        name != "" && /^}/ { flush(); next }
        name != "" && /json:"/ { json = 1 }
        name != "" && /^\t[A-Z][A-Za-z0-9_]*(, [A-Z][A-Za-z0-9_]*)* +[^ ]/ {
            line = $0; sub(/^\t/, "", line)
            while (match(line, /^[A-Z][A-Za-z0-9_]*/)) {
                field[n++] = substr(line, 1, RLENGTH)
                line = substr(line, RLENGTH + 1)
                if (line !~ /^, /) break
                line = substr(line, 3)
            }
        }
        END { flush() }
    ' "$f"
done >"$tmp/fields"

: >"$tmp/unset"
while IFS="$(printf '\t')" read -r knob file; do
    field="${knob##*.}"
    if ! grep -v -x "./$file" "$tmp/files" |
        xargs grep -l -E "(^|[^A-Za-z0-9_.])$field:|\.$field[[:space:]]*=([^=]|\$)" >/dev/null 2>&1; then
        printf '%s\t%s\n' "$knob" "$file" >>"$tmp/unset"
    fi
done <"$tmp/fields"

if [ -f scripts/knobs.allow ]; then
    grep -v '^[[:space:]]*\(#\|$\)' scripts/knobs.allow | awk '{ print $1 }' | sort >"$tmp/allow"
else
    : >"$tmp/allow"
fi

fail=0
while IFS="$(printf '\t')" read -r knob file; do
    if ! grep -Fxq "$knob" "$tmp/allow"; then
        printf '%-44s %s\n' "$knob" "$file"
        fail=1
    fi
done <"$tmp/unset"

if [ "$fail" -ne 0 ]; then
    echo "knobs: the options above have no setter outside their declaring file; delete them or list them in scripts/knobs.allow with a reason" >&2
    exit 1
fi
