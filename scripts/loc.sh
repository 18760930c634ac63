#!/usr/bin/env bash
# Line-count ratchet: the non-test Rust line count of every workspace
# directory (crates/* and vendor/*), committed in scripts/loc.tsv.
#
# A directory's count is the number of lines in its git-tracked *.rs files
# outside its tests/ directory, where each file is cut at its first
# column-0 `#[cfg(test)]` (the line that opens `mod tests`). The fedbench
# package (bench/) is not counted.
#
#   scripts/loc.sh            print the table (directory<TAB>lines, then total)
#   scripts/loc.sh --write    rewrite scripts/loc.tsv from the tree
#   scripts/loc.sh --check    fail if any directory is more than 50 lines off
#                             its row (either way), or if the set of
#                             directories differs from the file's
set -euo pipefail

cd "$(dirname "$0")/.."
TSV=scripts/loc.tsv
SLACK=50

count() {
    local dir total=0 n
    for dir in crates/* vendor/*; do
        [ -d "$dir" ] || continue
        # xargs may split a long file list over several awk runs; sum them.
        n=$(git ls-files -- "$dir/*.rs" | { grep -v "^$dir/tests/" || true; } \
            | xargs -r awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' \
            | awk '{ s += $1 } END { print s + 0 }')
        printf '%s\t%s\n' "$dir" "$n"
        total=$((total + n))
    done
    printf 'total\t%s\n' "$total"
}

case "${1:-}" in
"") count ;;
--write)
    count >"$TSV"
    cat "$TSV"
    ;;
--check)
    [ -f "$TSV" ] || {
        echo "loc: $TSV is missing; run scripts/loc.sh --write" >&2
        exit 1
    }
    # Directory by directory; the total row is informational and not checked.
    count | awk -F'\t' -v slack="$SLACK" -v tsv="$TSV" '
        BEGIN {
            while ((getline line < tsv) > 0) {
                split(line, f, "\t")
                if (f[1] != "total") want[f[1]] = f[2]
            }
        }
        $1 == "total" { next }
        {
            seen[$1] = 1
            if (!($1 in want)) {
                printf "loc: %s (%d lines) has no row in %s\n", $1, $2, tsv
                bad = 1
            } else if ($2 - want[$1] > slack || want[$1] - $2 > slack) {
                printf "loc: %s has %d lines, %s says %d (more than %d off)\n", $1, $2, tsv, want[$1], slack
                bad = 1
            }
        }
        END {
            for (d in want) if (!(d in seen)) {
                printf "loc: %s has a row in %s but is not in the tree\n", d, tsv
                bad = 1
            }
            if (bad) {
                print "loc: update the file with scripts/loc.sh --write and state the delta in CHANGES.md"
                exit 1
            }
            print "loc: every directory within " slack " lines of " tsv
        }' >&2
    ;;
*)
    echo "usage: scripts/loc.sh [--write|--check]" >&2
    exit 2
    ;;
esac
