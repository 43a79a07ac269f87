#!/usr/bin/env bash
# The unified CI gate. Runs every check the repo enforces; the GitHub
# workflow (.github/workflows/ci.yml) runs the same stages split across
# parallel jobs via LGV_CI_STAGES, so a clean local run of the full
# script means a green CI run.
#
# Stages (see docs/CI.md for the full description):
#   build   — cargo build --release, whole workspace, plus the
#             perfbench benchmark package (its own manifest), whose
#             --print-golden fingerprints must diff clean against
#             perfbench/golden.txt
#   tests   — cargo test -q (unit + integration, all crates), then
#             one summed `tier-1: N passed, M failed` line
#   clippy  — warnings denied, all targets
#   fmt     — rustfmt --check
#   docs    — rustdoc warnings denied (the doctests and the doc-drift
#             checks are ordinary tests in the tests stage)
#   suite   — release-mode quick run of the full evaluation suite
#             (every scenario must succeed; writes BENCH_ci.json and
#             the wall-clock profile BENCH_profile.json), the
#             parallel-vs-serial and sharded-fleet determinism gates,
#             the elastic-fleet quick job, and the chaos-fleet quick
#             job with its recovery-SLO gate (suite check-recovery)
#   perf    — suite check-perf: the suite-stage artifact vs the
#             committed BENCH_baseline_quick.json — fails on >15%
#             per-scenario wall-time regressions and checksum drift
#   noprof  — rebuild the suite with the profiler compiled out
#             (--no-default-features) and verify quick-run checksums
#             still match the committed baseline: tracing must be
#             observability, never physics
#
# Stage selection: set LGV_CI_STAGES to a comma- or space-separated
# subset (e.g. LGV_CI_STAGES=clippy,fmt,docs ./scripts/ci.sh). Stages
# always run in the canonical order above regardless of the order
# named. Per-stage wall-clock timings are printed at the end.
#
# Everything is hermetic: dependencies are the in-tree shims under
# crates/shims/, so no stage touches the network.
#
# Usage: ./scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES="build tests clippy fmt docs suite perf noprof"
SELECT="${LGV_CI_STAGES:-$ALL_STAGES}"
SELECT="${SELECT//,/ }"
for s in $SELECT; do
    case " $ALL_STAGES " in
        *" $s "*) ;;
        *) echo "unknown stage '$s' in LGV_CI_STAGES (known: $ALL_STAGES)"; exit 1 ;;
    esac
done

stage_enabled() {
    local s
    for s in $SELECT; do [ "$s" = "$1" ] && return 0; done
    return 1
}

TIMINGS=""
run_stage() { # run_stage <name> <description>
    local name="$1" desc="$2" t0 t1
    stage_enabled "$name" || return 0
    echo
    echo "== $name: $desc =="
    t0=$SECONDS
    "stage_$name"
    t1=$SECONDS
    TIMINGS="$TIMINGS$(printf '  %-8s %5ds' "$name" "$((t1 - t0))")"$'\n'
}

stage_build() {
    cargo build --release --workspace
    # The benchmark package is outside the workspace but calls the
    # public codec and bus API, so it must keep compiling.
    CARGO_TARGET_DIR=.bench_build cargo build --release --offline \
        --manifest-path perfbench/Cargo.toml
    # Mission fingerprints of every perfbench workload at its canonical
    # seed must match the committed golden file (~40 s on 2 vCPUs).
    .bench_build/release/perfbench --print-golden | diff - perfbench/golden.txt
}

stage_tests() {
    # --no-fail-fast runs every test binary even after one fails, so
    # the summed line below counts the whole tier-1 suite.
    local log status=0
    log="$(mktemp)"
    cargo test -q --workspace --no-fail-fast 2>&1 | tee "$log" || status=$?
    awk '/^test result:/ { passed += $4; failed += $6 }
         END { printf "tier-1: %d passed, %d failed\n", passed, failed }' "$log"
    rm -f "$log"
    return "$status"
}

stage_clippy() {
    cargo clippy --workspace --all-targets -- -D warnings
}

stage_fmt() {
    cargo fmt --all -- --check
}

stage_docs() {
    # The doctests run once, with every other test, in the tests stage.
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

stage_suite() {
    # Full fan-out in quick mode: exercises every scenario (including
    # the chaos sweep the old resilience gate ran) and writes the JSON
    # artifact plus the wall-clock scope profile. A non-zero exit
    # means some scenario failed.
    ./target/release/suite --quick --threads 4 \
        --out target/BENCH_ci.json \
        --profile --profile-out target/BENCH_profile.json
    # Render that profile: runs the `--prof` reader on a real artifact
    # and leaves the per-kernel µs/call rows (`nav/dwa`, `slam/*`,
    # `pool/wait`, ...) to compare against another commit's run.
    ./target/release/trace_report --prof target/BENCH_profile.json \
        > target/BENCH_profile.txt
    # Byte-identical parallel vs serial across every scenario, in
    # release mode (too slow for the default debug-mode test run,
    # hence #[ignore]).
    cargo test --release -q -p lgv-bench --test suite -- --ignored --nocapture
    # Fleet multi-tenancy determinism: a fleet of four on one shared
    # box, run twice, must agree on every per-vehicle fingerprint and
    # every shared-resource counter (and a fleet of one must stay
    # byte-identical to the single-vehicle runner). The same run
    # covers the elastic-cloud gates and the regional-sharding gates:
    # a sharded fleet's report is byte-identical at thread counts
    # 1/2/8, and a 1-region topology matches the unsharded driver.
    cargo test --release -q -p lgv-offload --test fleet -- --include-ignored
    # Elastic-fleet quick job: the elasticity ablation on its own, so
    # a regression in the elastic scheduler fails fast with readable
    # output. Its trace then drives the offline analysis path: the
    # JSONL reader and the per-vehicle, per-mission report split on a
    # real fleet stream (an empty stream fails the suite run itself).
    ./target/release/suite --quick --threads 2 --only elastic-fleet \
        --out target/BENCH_elastic.json --trace target/elastic-fleet.jsonl
    ./target/release/trace_report target/elastic-fleet.jsonl \
        > target/elastic-fleet-report.txt
    # Chaos-fleet quick job + recovery-SLO gate: the SLO lines from a
    # quick chaos-fleet run (time-to-recover, degraded fraction,
    # missed cycles — all virtual-clock, machine-independent) are
    # diffed against the committed baseline.
    ./target/release/suite --quick --only chaos-fleet --print-output \
        > target/BENCH_recovery.txt
    ./target/release/suite check-recovery target/BENCH_recovery.txt BENCH_recovery_baseline.txt
}

stage_perf() {
    # Diffs the suite-stage quick artifact against the committed
    # baseline: >15% per-scenario wall-time regression or any checksum
    # drift fails. Skip the stage (LGV_CI_STAGES) on hardware slower
    # than the baseline machine.
    ./target/release/suite check-perf target/BENCH_ci.json BENCH_baseline_quick.json
}

stage_noprof() {
    # Profiler-off control build in its own target dir (keeps the
    # default build's cache intact), then a checksum-only comparison
    # against the committed baseline: with the wall-time check off,
    # checksum drift is the only failure mode, so this gate proves
    # compiling the profiler out changes no output byte.
    CARGO_TARGET_DIR=target/noprof cargo build --release -p lgv-bench \
        --no-default-features --bin suite
    ./target/noprof/release/suite --quick --threads 4 \
        --no-history --out target/BENCH_noprof.json
    ./target/noprof/release/suite check-perf --checksums-only \
        target/BENCH_noprof.json BENCH_baseline_quick.json
}

run_stage build  "cargo build --release"
run_stage tests  "cargo test"
run_stage clippy "cargo clippy (warnings denied)"
run_stage fmt    "cargo fmt --check"
run_stage docs   "docs (rustdoc warnings denied)"
run_stage suite  "evaluation-suite gate (quick, all scenarios)"
run_stage perf   "perf-regression gate (vs committed quick baseline)"
run_stage noprof "no-prof control build (checksum identity)"

echo
echo "stage timings:"
printf '%s' "$TIMINGS"
echo "CI gate OK ($(echo "$SELECT" | wc -w | tr -d ' ') stage(s))"
