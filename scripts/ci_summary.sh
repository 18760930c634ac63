#!/usr/bin/env bash
# Renders target/ci-timings.tsv (written by scripts/check.sh) as a
# markdown table — CI tees this into $GITHUB_STEP_SUMMARY — and diffs
# each leg's wall-clock against the committed scripts/ci_baseline.tsv,
# flagging legs more than 25% slower than baseline. Safe to run with a
# partial or missing timings file.
set -euo pipefail

cd "$(dirname "$0")/.."
TIMINGS=target/ci-timings.tsv
BASELINE=scripts/ci_baseline.tsv

echo "### CI legs"
echo
echo "| Leg | Status | Wall-clock (s) | vs baseline | Tests passed | Max RSS (MB) |"
echo "|:----|:------:|---------------:|:------------|-------------:|-------------:|"
if [ -f "$TIMINGS" ]; then
    # Keep the last record per leg (pending pre-registration rows and
    # reruns append; completion rows shadow them), in first-seen order;
    # legs that run no tests (build/clippy/fmt) show "-". Older timings
    # files have no 4th (RSS, KB) or 5th (ok/fail status) column, and the
    # RSS or passed field can be empty (no python3) or non-numeric
    # (truncated line) — render any such cell as "-" instead of an empty
    # or garbage column. The baseline diff column compares against the
    # committed per-leg wall-clocks and flags a >25% regression.
    BASE_IN=/dev/null
    [ -f "$BASELINE" ] && BASE_IN="$BASELINE"
    # The baseline file is matched by name (not FNR==NR, which misfires
    # when the baseline is empty or missing and /dev/null stands in).
    awk -F'\t' -v basefile="$BASE_IN" '
        FILENAME == basefile {
            if (NF >= 2 && $2 ~ /^[0-9]+$/) base[$1] = $2
            next
        }
        NF == 0 || $1 == "" { next }
        !($1 in last) { order[++n] = $1 }
        { last[$1] = $0 }
        END {
            for (i = 1; i <= n; i++) {
                cols = split(last[order[i]], f, "\t")
                secs = (cols >= 2 && f[2] ~ /^[0-9]+$/) ? f[2] : "-"
                passed = (cols >= 3 && f[3] ~ /^[0-9]+$/ && f[3] != "0") ? f[3] : "-"
                rss = (cols >= 4 && f[4] ~ /^[0-9]+$/) ? sprintf("%.1f", f[4] / 1024) : "-"
                status = (cols >= 5 && f[5] == "ok") ? "✅" \
                       : (cols >= 5 && f[5] == "fail") ? "❌" \
                       : (cols >= 5 && f[5] == "pending") ? "⏳" : "-"
                delta = "-"
                if (secs != "-" && (f[1] in base)) {
                    b = base[f[1]]
                    if (b > 0) {
                        pct = (secs - b) * 100.0 / b
                        delta = sprintf("%+.0f%%", pct)
                        if (pct > 25) {
                            delta = delta " ⚠️ **slower than baseline**"
                            flagged[++nf] = f[1]
                        }
                    } else if (secs > 0) {
                        delta = "n/a (baseline 0s)"
                    } else {
                        delta = "+0%"
                    }
                }
                printf "| %s | %s | %s | %s | %s | %s |\n", f[1], status, secs, delta, passed, rss
            }
            if (nf > 0) {
                printf "\n> ⚠️ %d leg(s) ran >25%% slower than scripts/ci_baseline.tsv:", nf
                for (i = 1; i <= nf; i++) printf " %s", flagged[i]
                printf ". Investigate before merging, or refresh the baseline if the slowdown is intended.\n"
            }
        }' "$BASE_IN" "$TIMINGS"
else
    echo "| (no timings recorded) | - | - | - | - | - |"
fi

