#!/usr/bin/env bash
#
# Tier-1 verification and correctness gates.
#
#   scripts/check.sh            # RelWithDebInfo build + full test suite
#   scripts/check.sh --lint     # + remora-lint over src/, tests/, tools/, bench/
#   scripts/check.sh --tidy     # + clang-tidy profile (.clang-tidy)
#   scripts/check.sh --format   # + clang-format dry run (.clang-format)
#   scripts/check.sh --asan     # + ASan/UBSan suite in build-asan/
#   scripts/check.sh --race     # + happens-before race gate, 8 seeds
#   scripts/check.sh --mc       # + bounded schedule exploration gate
#   scripts/check.sh --faults   # + lossy-link delivery gate, 8 seeds
#   scripts/check.sh --bench    # + bench regression gate vs baselines
#   scripts/check.sh --all      # every gate above
#
# Gates are additive: the primary build and test suite always run, and
# each flag layers one more check on top. --tidy and --format need the
# LLVM binaries; when they are not installed the gate is skipped with a
# notice (and counted as skipped in the summary) instead of failing, so
# CI images without clang still get the full remora-lint pass, which
# carries the project-specific rules.
#
# The sanitizer pass uses a separate build tree (build-asan/) so it
# never perturbs the primary build directory.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"

DO_LINT=0
DO_TIDY=0
DO_FORMAT=0
DO_ASAN=0
DO_RACE=0
DO_MC=0
DO_FAULTS=0
DO_BENCH=0
for arg in "$@"; do
    case "${arg}" in
        --lint) DO_LINT=1 ;;
        --tidy) DO_TIDY=1 ;;
        --format) DO_FORMAT=1 ;;
        --asan) DO_ASAN=1 ;;
        --race) DO_RACE=1 ;;
        --mc) DO_MC=1 ;;
        --faults) DO_FAULTS=1 ;;
        --bench) DO_BENCH=1 ;;
        --all) DO_LINT=1; DO_TIDY=1; DO_FORMAT=1; DO_ASAN=1; DO_RACE=1; DO_MC=1; DO_FAULTS=1; DO_BENCH=1 ;;
        -h|--help)
            sed -n '2,20p' "$0" | sed 's/^# \{0,1\}//'
            exit 0
            ;;
        *)
            echo "check.sh: unknown flag '${arg}' (try --help)" >&2
            exit 2
            ;;
    esac
done

GATES_RUN=()

run_suite() {
    local dir="$1"
    shift
    cmake -B "${dir}" -S . "$@"
    cmake --build "${dir}" -j "${JOBS}"
    (cd "${dir}" && ctest --output-on-failure -j "${JOBS}")
}

# Leak detection stays ON. Only the eternal server-loop coroutine frames
# (parked awaiting the next request at process exit) are excused, each
# by name, in scripts/lsan.supp — a real leak anywhere else fails the
# --asan gate.
export LSAN_OPTIONS="suppressions=${PWD}/scripts/lsan.supp${LSAN_OPTIONS:+:${LSAN_OPTIONS}}"

echo "== tier-1: primary build and tests =="
run_suite build
GATES_RUN+=("build+tests")

if [[ "${DO_LINT}" == 1 ]]; then
    echo
    echo "== lint: remora-lint over src/, tests/, tools/, bench/ =="
    # Everything lintable, including the drivers and benches (with the
    # relaxed per-path profile optionsForPath() gives them), plus the
    # flow rules and the include-layer check over the src/ DAG. The
    # one-line summary carries the flow-finding and layer-violation
    # counts the gate acts on.
    cmake --build build -j "${JOBS}" --target remora_lint
    ./build/tools/remora_lint/remora_lint --root . src tests tools bench
    GATES_RUN+=("lint")
fi

if [[ "${DO_TIDY}" == 1 ]]; then
    echo
    echo "== tidy: clang-tidy (.clang-tidy profile) =="
    if command -v clang-tidy >/dev/null 2>&1; then
        # compile_commands.json is exported by the primary configure.
        git ls-files 'src/**/*.cc' 'tools/**/*.cc' |
            xargs -P "${JOBS}" -n 4 clang-tidy -p build --quiet
        GATES_RUN+=("tidy")
    else
        echo "clang-tidy not installed; skipping (remora-lint carries" \
             "the project-specific rules)"
        GATES_RUN+=("tidy[skipped]")
    fi
fi

if [[ "${DO_FORMAT}" == 1 ]]; then
    echo
    echo "== format: clang-format dry run (.clang-format) =="
    if command -v clang-format >/dev/null 2>&1; then
        git ls-files '*.h' '*.cc' '*.cpp' |
            xargs -P "${JOBS}" -n 8 clang-format --dry-run --Werror
        GATES_RUN+=("format")
    else
        echo "clang-format not installed; skipping"
        GATES_RUN+=("format[skipped]")
    fi
fi

if [[ "${DO_ASAN}" == 1 ]]; then
    echo
    echo "== sanitizer pass: ASan + UBSan + LSan =="
    run_suite build-asan -DREMORA_SANITIZE=ON -DREMORA_BUILD_BENCH=OFF
    GATES_RUN+=("asan")
fi

# Run remora_mc with the given arguments into MC_OUT and echo it; on a
# nonzero exit, fail the gate with message $1.
run_mc() {
    local fail="$1"
    shift
    MC_OUT="$(./build/tools/remora_mc/remora_mc "$@")" || {
        echo "${MC_OUT}"
        echo "${fail}" >&2
        exit 1
    }
    echo "${MC_OUT}"
}

# The gate's summary from remora_mc's last line, which starts with the
# gate name: "race seeds=8 races=0" becomes "race[seeds=8 races=0]".
# mc's unexpected= count is 0 whenever the gate passes.
mc_summary() {
    tail -1 <<<"${MC_OUT}" | sed 's/ unexpected=[0-9]*//; s/ /[/; s/$/]/'
}

if [[ "${DO_RACE}" == 1 ]]; then
    echo
    echo "== race: happens-before detection over perturbed schedules =="
    cmake --build build -j "${JOBS}" --target remora_mc
    # Seed sweep: a race-clean workload under the armed detector. Each
    # seed prints its digest (distinct per seed, replayable) and race
    # count; any race fails the sweep and therefore the gate.
    run_mc "race gate: the sweep reported races" race
    # Per-seed armed suite: every test labeled `race` must stay green
    # with the detector fatal (REMORA_RACE=1) under each of the sweep's
    # seeds.
    for seed in $(sed -n 's/^seed=\([0-9]*\) .*/\1/p' <<<"${MC_OUT}"); do
        (cd build && REMORA_RACE=1 REMORA_PERTURB="${seed}" \
            ctest -L race --output-on-failure -j "${JOBS}")
    done
    GATES_RUN+=("$(mc_summary)")
fi

if [[ "${DO_MC}" == 1 ]]; then
    echo
    echo "== mc: bounded schedule exploration over the clean registry =="
    # The explorer's own unit tests first (seeded deadlock / lost-wakeup
    # fixtures, replay determinism, reduction-beats-brute-force), then a
    # bounded sweep of every clean workload in remora_mc's registry.
    # remora_mc exits nonzero on any finding in a clean workload, so the
    # gate fails the moment exploration uncovers a deadlock, lost
    # wakeup, or leaked coroutine in shipping code paths.
    cmake --build build -j "${JOBS}" --target remora_mc
    (cd build && ctest -L mc --output-on-failure -j "${JOBS}")
    run_mc "mc gate: exploration found a bug in a clean workload" \
        --max-schedules 60
    GATES_RUN+=("$(mc_summary)")
fi

if [[ "${DO_FAULTS}" == 1 ]]; then
    echo
    echo "== faults: end-to-end delivery audit under injected loss =="
    cmake --build build -j "${JOBS}" --target remora_mc
    # Seed sweep: notified writes and read-backs cross a link that drops
    # 5% of all cells. Every user-visible op must land exactly once
    # (undelivered=0, no abandonment, nothing wedged) or the sweep exits
    # nonzero and the gate fails. The digest confirms each seed ran a
    # distinct, replayable lossy schedule.
    run_mc "faults gate: the sweep lost user-visible ops" faults
    GATES_RUN+=("$(mc_summary)")
fi

if [[ "${DO_BENCH}" == 1 ]]; then
    echo
    echo "== bench: regression gate vs bench/baselines =="
    # Rerun the smoke benches (they rewrite BENCH_*.json in build/bench/,
    # atomically), then compare every baselined report. The simulation is
    # deterministic, so the tolerances guard against real model changes,
    # not machine noise; an intended change is shipped by refreshing the
    # baseline file alongside it.
    cmake --build build -j "${JOBS}" --target bench_diff
    (cd build && ctest -L bench_smoke --output-on-failure -j "${JOBS}")
    # schedules/sec is the one wall-clock metric in the baselines; give
    # it room for machine variance while still catching order-of-
    # magnitude explorer regressions — and it only regresses downward,
    # so mark it higher-is-better. The vectored-ops speedup ratios get
    # the same treatment: a batch getting even faster than baseline is
    # a win to fold in at the next refresh, not a gate failure.
    # The linter's tree pass is wall-clock over a tree that grows with
    # every PR: its throughput rates get the same wide berth as the
    # explorer rate. Its corpus.findings count is deterministic and
    # stays at the default tolerance.
    # The engine microbenchmarks are wall-clock rates too: the same wide,
    # higher-is-better berth. Their churn.tombstones count stays at the
    # default tolerance.
    # The scaling sweep's wall_ms is host wall-clock time for the whole
    # sweep: the same wide berth, lower-is-better.
    # Event counts are exact and held at zero tolerance: every report's
    # sim.events, the sweep's per-row sim.events_per_op and the
    # microbenchmark's remote_write.events_per_op. A change to the event
    # set refreshes these baselines with its cause named.
    # The fault-ablation rows under loss measure recovery tails, which
    # swing with any retransmit-timing change: their latencies are
    # lower-is-better (an earlier repair is a win, not a regression)
    # and their drop/retransmit counts get a wide berth — the bench's
    # own delivery and repaired-by-retransmit checks carry the
    # qualitative gate. The 0% row stays at the default tolerance: it
    # is the machinery-off hot-path guard and must not move at all.
    GATE=(--tol-metric sim.events=0
          --tol-metric remote_write.events_per_op=0
          --tol-metric wall_ms=90 --dir-metric wall_ms=down)
    for n in 1 2 4 8 16 24; do
        for backend in hy dx; do
            GATE+=(--tol-metric "n${n}.${backend}.sim.events_per_op=0")
        done
    done
    for drop in drop_2 drop_5 drop_10; do
        for m in write_round_us read_round_us; do
            GATE+=(--tol-metric "${drop}.${m}=30" --dir-metric "${drop}.${m}=down")
        done
        GATE+=(--tol-metric "${drop}.drops=60" --tol-metric "${drop}.retransmits=60")
    done
    for m in explore.schedules_per_sec tree.files_per_sec corpus.files_per_sec \
             event_queue.events_per_sec churn.events_per_sec \
             crc_64.mb_per_sec crc_4096.mb_per_sec crc_65536.mb_per_sec \
             aal5_40.mb_per_sec aal5_4096.mb_per_sec aal5_32768.mb_per_sec \
             codec.ops_per_sec marshal.ops_per_sec pcg.draws_per_sec \
             remote_write.ops_per_sec; do
        GATE+=(--tol-metric "${m}=90" --dir-metric "${m}=up")
    done
    for m in write_x4 write_x8 write_x16 read_x4 read_x8; do
        GATE+=(--dir-metric "${m}.latency_speedup=up")
    done
    ./build/tools/bench_diff/bench_diff --tol 5 "${GATE[@]}" \
        bench/baselines build/bench
    GATES_RUN+=("bench")
fi

echo
echo "check.sh: all green — gates: ${GATES_RUN[*]}"
