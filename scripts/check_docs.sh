#!/usr/bin/env bash
# Doc-reference check (the `docs` leg of scripts/check.sh): every
# identifier in backticks in DESIGN.md and README.md must name something
# in the tracked tree.
#
# A backticked span is checked when, after dropping a trailing `()`, it is
# a CamelCase word, a snake_case word, or an `a::b` path (whose last
# segment is checked). It passes when `git grep -w` finds it in a tracked
# *.rs, *.toml, *.sh, *.json or *.tsv file, or when it is the stem of a
# tracked file. Fenced code blocks are not scanned. Every miss prints as
# `file:line: token`, and any miss exits 1. There is no allowlist: a
# mention of something that is gone is history, written as prose.
#
# Usage: scripts/check_docs.sh [file ...]   (default: DESIGN.md README.md)
set -euo pipefail

cd "$(dirname "$0")/.."
if [ "$#" -eq 0 ]; then
    set -- DESIGN.md README.md
fi

stems=$(git ls-files | sed -E 's#.*/##; s#\.[^.]*$##' | sort -u)

# One "file:line<TAB>token" row per checked span.
spans() {
    awk '
        FNR == 1 { fence = 0 }
        /^[[:space:]]*```/ { fence = !fence; next }
        fence { next }
        {
            line = $0
            while (match(line, /`[^`]+`/)) {
                span = substr(line, RSTART + 1, RLENGTH - 2)
                line = substr(line, RSTART + RLENGTH)
                sub(/\(\)$/, "", span)
                if (span ~ /^[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)+$/) {
                    n = split(span, seg, "::")
                    print FILENAME ":" FNR "\t" seg[n]
                } else if (span ~ /^[A-Z][a-z][A-Za-z0-9]*$/ || span ~ /^[a-z][a-z0-9]*(_[a-z0-9]+)*$/) {
                    print FILENAME ":" FNR "\t" span
                }
            }
        }' "$@"
}

declare -A found
misses=0
while IFS=$'\t' read -r at token; do
    if [ -z "${found[$token]+set}" ]; then
        if grep -qxF -- "$token" <<<"$stems" ||
            git grep -qwF -e "$token" -- '*.rs' '*.toml' '*.sh' '*.json' '*.tsv'; then
            found[$token]=1
        else
            found[$token]=0
        fi
    fi
    if [ "${found[$token]}" = 0 ]; then
        echo "$at: $token"
        misses=$((misses + 1))
    fi
done < <(spans "$@")

if [ "$misses" -gt 0 ]; then
    echo "docs: $misses backticked name(s) above name nothing in the tree" >&2
    exit 1
fi
echo "docs: every backticked name in $* names something in the tree"
