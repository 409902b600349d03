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

if [[ "${DO_RACE}" == 1 ]]; then
    echo
    echo "== race: happens-before detection over perturbed schedules =="
    cmake --build build -j "${JOBS}" --target race_probe
    RACE_SEEDS=(0 1 2 3 4 5 6 7)
    RACE_TOTAL=0
    # Per-seed probe: a race-clean workload under the armed detector.
    # Each seed prints its digest (distinct per seed, replayable) and
    # race count; any race fails the probe and therefore the gate.
    for seed in "${RACE_SEEDS[@]}"; do
        line="$(./build/tools/race_probe/race_probe "${seed}")" || {
            echo "${line}"
            echo "race gate: probe reported races at seed ${seed}" >&2
            exit 1
        }
        echo "  ${line}"
        races="$(sed -n 's/.*races=\([0-9]*\).*/\1/p' <<<"${line}")"
        RACE_TOTAL=$((RACE_TOTAL + races))
    done
    # Per-seed armed suite: every test labeled `race` must stay green
    # with the detector fatal (REMORA_RACE=1) under that schedule.
    for seed in "${RACE_SEEDS[@]}"; do
        (cd build && REMORA_RACE=1 REMORA_PERTURB="${seed}" \
            ctest -L race --output-on-failure -j "${JOBS}")
    done
    GATES_RUN+=("race[seeds=${#RACE_SEEDS[@]} races=${RACE_TOTAL}]")
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
    MC_OUT="$(./build/tools/remora_mc/remora_mc --max-schedules 60)" || {
        echo "${MC_OUT}"
        echo "mc gate: exploration found a bug in a clean workload" >&2
        exit 1
    }
    echo "${MC_OUT}"
    MC_SUMMARY="$(grep '^mc ' <<<"${MC_OUT}" | tail -1)"
    MC_W="$(sed -n 's/.*workloads=\([0-9]*\).*/\1/p' <<<"${MC_SUMMARY}")"
    MC_S="$(sed -n 's/.*schedules=\([0-9]*\).*/\1/p' <<<"${MC_SUMMARY}")"
    MC_F="$(sed -n 's/.*findings=\([0-9]*\).*/\1/p' <<<"${MC_SUMMARY}")"
    GATES_RUN+=("mc[workloads=${MC_W} schedules=${MC_S} findings=${MC_F}]")
fi

if [[ "${DO_FAULTS}" == 1 ]]; then
    echo
    echo "== faults: end-to-end delivery audit under injected loss =="
    cmake --build build -j "${JOBS}" --target fault_probe
    FAULT_SEEDS=(0 1 2 3 4 5 6 7)
    FAULT_DROP=0.05
    FAULT_DROPS=0
    # Per-seed probe: notified writes and read-backs cross a link that
    # drops FAULT_DROP of all cells. Every user-visible op must land
    # exactly once (undelivered=0, no abandonment, nothing wedged) or
    # the probe exits nonzero and the gate fails. The digest confirms
    # each seed ran a distinct, replayable lossy schedule.
    for seed in "${FAULT_SEEDS[@]}"; do
        line="$(./build/tools/fault_probe/fault_probe "${seed}" "${FAULT_DROP}")" || {
            echo "${line}"
            echo "faults gate: lost user-visible ops at seed ${seed}" >&2
            exit 1
        }
        echo "  ${line}"
        drops="$(sed -n 's/.*drops=\([0-9]*\).*/\1/p' <<<"${line}")"
        FAULT_DROPS=$((FAULT_DROPS + drops))
    done
    GATES_RUN+=("faults[seeds=${#FAULT_SEEDS[@]} drops=${FAULT_DROPS} undelivered=0]")
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
    EXACT_TOL=(--tol-metric sim.events=0
               --tol-metric remote_write.events_per_op=0)
    for n in 1 2 4 8 16 24; do
        for backend in hy dx; do
            EXACT_TOL+=(--tol-metric "n${n}.${backend}.sim.events_per_op=0")
        done
    done
    ./build/tools/bench_diff/bench_diff --tol 5 "${EXACT_TOL[@]}" \
        --tol-metric drop_2.write_round_us=30 \
        --tol-metric drop_2.read_round_us=30 \
        --tol-metric drop_5.write_round_us=30 \
        --tol-metric drop_5.read_round_us=30 \
        --tol-metric drop_10.write_round_us=30 \
        --tol-metric drop_10.read_round_us=30 \
        --tol-metric drop_2.drops=60 \
        --tol-metric drop_2.retransmits=60 \
        --tol-metric drop_5.drops=60 \
        --tol-metric drop_5.retransmits=60 \
        --tol-metric drop_10.drops=60 \
        --tol-metric drop_10.retransmits=60 \
        --dir-metric drop_2.write_round_us=down \
        --dir-metric drop_2.read_round_us=down \
        --dir-metric drop_5.write_round_us=down \
        --dir-metric drop_5.read_round_us=down \
        --dir-metric drop_10.write_round_us=down \
        --dir-metric drop_10.read_round_us=down \
        --tol-metric explore.schedules_per_sec=90 \
        --tol-metric tree.files_per_sec=90 \
        --tol-metric corpus.files_per_sec=90 \
        --dir-metric explore.schedules_per_sec=up \
        --dir-metric tree.files_per_sec=up \
        --dir-metric corpus.files_per_sec=up \
        --tol-metric event_queue.events_per_sec=90 \
        --tol-metric churn.events_per_sec=90 \
        --tol-metric crc_64.mb_per_sec=90 \
        --tol-metric crc_4096.mb_per_sec=90 \
        --tol-metric crc_65536.mb_per_sec=90 \
        --tol-metric aal5_40.mb_per_sec=90 \
        --tol-metric aal5_4096.mb_per_sec=90 \
        --tol-metric aal5_32768.mb_per_sec=90 \
        --tol-metric codec.ops_per_sec=90 \
        --tol-metric marshal.ops_per_sec=90 \
        --tol-metric pcg.draws_per_sec=90 \
        --tol-metric remote_write.ops_per_sec=90 \
        --dir-metric event_queue.events_per_sec=up \
        --dir-metric churn.events_per_sec=up \
        --dir-metric crc_64.mb_per_sec=up \
        --dir-metric crc_4096.mb_per_sec=up \
        --dir-metric crc_65536.mb_per_sec=up \
        --dir-metric aal5_40.mb_per_sec=up \
        --dir-metric aal5_4096.mb_per_sec=up \
        --dir-metric aal5_32768.mb_per_sec=up \
        --dir-metric codec.ops_per_sec=up \
        --dir-metric marshal.ops_per_sec=up \
        --dir-metric pcg.draws_per_sec=up \
        --dir-metric remote_write.ops_per_sec=up \
        --tol-metric wall_ms=90 \
        --dir-metric wall_ms=down \
        --dir-metric write_x4.latency_speedup=up \
        --dir-metric write_x8.latency_speedup=up \
        --dir-metric write_x16.latency_speedup=up \
        --dir-metric read_x4.latency_speedup=up \
        --dir-metric read_x8.latency_speedup=up \
        bench/baselines build/bench
    GATES_RUN+=("bench")
fi

echo
echo "check.sh: all green — gates: ${GATES_RUN[*]}"
