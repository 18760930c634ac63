#!/usr/bin/env bash
# Full local CI gate — the exact legs .github/workflows/ci.yml runs, so a
# green local run means a green CI run:
#
#   build          release build of the whole workspace
#   fedbench       benchmark-surface gate: bench/ is a package of its own that
#                  names ~90 public items of the workspace (bench/README.md
#                  lists them) and is built only when the benchmark runs, so
#                  a PR that renames one broke the benchmark, not CI. Builds
#                  bench/ against this tree from the repo root, runs its unit
#                  tests and `fedbench verify` (harness final weights
#                  bit-identical to SimulatorRunner::run on two workloads),
#                  then runs every workload the way the benchmark does
#                  (`--seed 1 --seconds 1`, `--trace 0`, then all four
#                  again under `--trace 1`): a failed check
#                  exits 1 and fails the leg, which names the run. Each
#                  traced run also prints one "fedbench executor share:"
#                  line, its workload and its training + validation shape
#                  check with the measured share, and one "fedbench setup:"
#                  line with its setup_s and core.learner.init_ms, so a setup
#                  regression shows in the log. Runs right after build: a
#                  break here fails in a few minutes, not after the ~20 min
#                  of test legs
#   test-serial    full test suite under CLINFL_THREADS=1
#   test-parallel  full test suite under the default thread budget
#                  (each test leg includes the crash-resume chaos tests,
#                  which keep their dir in target/chaos-resume on failure
#                  for artifact upload)
#   kernels        packed-GEMM perf floor (DESIGN.md §3j): bench_kernels times
#                  the packed register-blocked kernels against the retained
#                  naive references across the smoke run's hot shapes, writes
#                  BENCH_kernels.json, and fails below a 2.5x aggregate speedup
#   scale          scaling-curve gate (DESIGN.md §3h): bench_scaling runs the
#                  8/64/256/1024-site tree-aggregation curve, writes
#                  BENCH_scaling.json, and fails if root round work at 1024
#                  sites exceeds 4x the 64-site figure; then the fault/resume
#                  chaos suites re-run at tree depth 2 (fan-out 3)
#   jobs           multi-tenant admin API gate (DESIGN.md §3i): scripts/ci_jobs.sh
#                  starts `clinfl serve`, submits two jobs over HTTP, streams
#                  live NDJSON metrics, aborts one mid-run, and asserts the
#                  survivor finishes with its own checkpoint dir intact
#   scenarios      scenario-matrix sweep (DESIGN.md §3k): scenario_matrix runs
#                  the partition x sampling x DP x personalization smoke grid,
#                  writes BENCH_scenarios.json, and fails unless >=8 cells have
#                  valid accuracies and (eps, delta) and the disabled-knobs
#                  cell is bit-identical to the flat path
#   doc            rustdoc with warnings denied (broken links fail the gate)
#   docs           doc references: scripts/check_docs.sh fails on any
#                  backticked CamelCase, snake_case or a::b name in DESIGN.md
#                  or README.md that no tracked *.rs/*.toml/*.sh/*.json/*.tsv
#                  file contains and no tracked file is named after, printing
#                  file:line: token for each
#   clippy         clippy --all-targets with warnings denied
#   fmt            cargo fmt --check, then the line-count ratchet
#                  (scripts/loc.sh --check against scripts/loc.tsv)
#
# Each gate checks its numbers in the run that computed them; the
# BENCH_*.json files are upload artifacts that nothing reads back.
#
# Usage: scripts/check.sh [leg ...]   (no args = all legs, in order)
#
# Every requested leg is pre-registered in target/ci-timings.tsv as a
# "pending" row, then overwritten (last record per leg wins) with its
# wall-clock, "N passed" totals, peak RSS (KB), and ok/fail status on
# completion — so an aborted run still shows which legs never ran.
# scripts/ci_summary.sh renders the file as a markdown table and diffs
# wall-clocks against the committed scripts/ci_baseline.tsv.
#
# Each leg runs with CLINFL_OBS_DIR=target/obs/<leg> so metric artifacts
# from different legs (test-parallel vs scale, say) never clobber each other.
set -euo pipefail

cd "$(dirname "$0")/.."
mkdir -p target
TIMINGS=target/ci-timings.tsv
RSS_FILE=target/.leg-rss

ALL_LEGS="build fedbench test-serial test-parallel kernels scale jobs scenarios doc docs clippy fmt"

# Runs "$@" as a child and, after it exits, writes the peak RSS in KB of
# the child process tree (getrusage RUSAGE_CHILDREN) to $RSS_FILE. The
# container has no /usr/bin/time, so a stdlib-only wrapper stands in for
# `time -v`; without python3 the RSS column is left empty.
rss_run() {
    if command -v python3 >/dev/null 2>&1; then
        python3 - "$RSS_FILE" "$@" <<'PY'
import resource, subprocess, sys

status = subprocess.call(sys.argv[2:])
peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
with open(sys.argv[1], "w") as f:
    f.write(str(peak_kb))
sys.exit(status)
PY
    else
        : >"$RSS_FILE"
        "$@"
    fi
}

# Appends a "pending" placeholder row per requested leg before anything
# runs; completion rows later shadow it (ci_summary keeps the last record
# per leg), so a run that dies mid-way still reports the legs it skipped.
register_legs() {
    for l in "$@"; do
        printf '%s\t-\t-\t-\tpending\n' "$l" >>"$TIMINGS"
    done
}

# Runs one named leg, times it, and records
# "name<TAB>secs<TAB>passed<TAB>rss_kb<TAB>status".
leg() {
    local name="$1"
    shift
    echo "==> $name: $*"
    # Absolute path: cargo runs in-crate unit tests with cwd = the crate
    # dir, so a relative obs dir would scatter crates/*/target/obs copies.
    mkdir -p "$PWD/target/obs/$name"
    local start=$SECONDS status=0 out
    out=$(CLINFL_OBS_DIR="$PWD/target/obs/$name" rss_run "$@" 2>&1) || status=$?
    printf '%s\n' "$out"
    local passed rss
    # grep exits 1 on legs that run no tests; don't let pipefail kill us.
    passed=$(printf '%s\n' "$out" | { grep -Eo '[0-9]+ passed' || true; } | awk '{s += $1} END {print s + 0}')
    rss=$(cat "$RSS_FILE" 2>/dev/null || true)
    printf '%s\t%s\t%s\t%s\t%s\n' "$name" "$((SECONDS - start))" "$passed" "$rss" \
        "$([ "$status" -eq 0 ] && echo ok || echo fail)" >>"$TIMINGS"
    return "$status"
}

run_leg() {
    case "$1" in
    build) leg build cargo build --workspace --release ;;
    test-serial) leg test-serial env CLINFL_THREADS=1 cargo test --workspace --release -q ;;
    test-parallel) leg test-parallel cargo test --workspace --release -q ;;
    kernels) leg kernels cargo run --release -q -p clinfl-bench --bin bench_kernels ;;
    scale)
        # Scaling-curve gate, then the chaos suites repeat at tree depth 2
        # so fault handling, quorum, and resume are proven on the
        # hierarchical topology too.
        leg scale bash -c \
            'cargo run --release -q -p clinfl-bench --bin bench_scaling \
             && CLINFL_TREE=2x3 cargo test --release -q --test integration_faults --test integration_resume'
        ;;
    jobs)
        # Admin-API gate: drives the multi-tenant job runtime end to end
        # over HTTP (submit x2, stream, abort, survivor green). Needs the
        # release clinfl binary; build it explicitly so the leg stands
        # alone.
        leg jobs bash -c 'cargo build --release -q -p clinfl && scripts/ci_jobs.sh'
        ;;
    scenarios) leg scenarios cargo run --release -q -p clinfl-bench --bin scenario_matrix ;;
    fedbench)
        # Run from the repo root so .cargo/config.toml (AVX2) applies; the
        # package has its own target dir (bench/target, gitignored). Any
        # run that exits non-zero fails the leg.
        leg fedbench bash -c '
            set -e
            fedbench() { cargo run --release -q --manifest-path bench/Cargo.toml -- "$@"; }
            cargo test --release -q --manifest-path bench/Cargo.toml
            fedbench verify
            for trace in 0 1; do
                for w in lstm_finetune bert_mlm exchange_raw_tcp exchange_codec; do
                    status=0
                    out=$(fedbench --workload "$w" --seed 1 --seconds 1 --trace "$trace") || status=$?
                    printf "%s\n" "$out"
                    if [ "$trace" = 1 ]; then
                        share=$(printf "%s\n" "$out" | grep "training + validation" || echo "no executor-share check")
                        echo "fedbench executor share: $w: $share"
                        setup=$(printf "%s\n" "$out" | grep -E "^(setup_s|core\.learner\.init_ms) = " | sed -E "s/ = ([^ ]+).*/=\1/" | tr "\n" " ")
                        echo "fedbench setup: $w: ${setup% }"
                    fi
                    if [ "$status" -ne 0 ]; then
                        echo "fedbench: $w --trace $trace exited $status" >&2
                        exit "$status"
                    fi
                done
            done'
        ;;
    doc) leg doc env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps ;;
    docs) leg docs scripts/check_docs.sh ;;
    clippy) leg clippy cargo clippy --workspace --all-targets -- -D warnings ;;
    fmt) leg fmt bash -c 'cargo fmt --all -- --check && scripts/loc.sh --check' ;;
    *)
        echo "unknown leg: $1 (expected ${ALL_LEGS// /|})" >&2
        exit 2
        ;;
    esac
}

if [ "$#" -eq 0 ]; then
    : >"$TIMINGS"
    # shellcheck disable=SC2086
    register_legs $ALL_LEGS
    for l in $ALL_LEGS; do
        run_leg "$l"
    done
    echo "==> all checks passed"
else
    register_legs "$@"
    for l in "$@"; do
        run_leg "$l"
    done
fi
