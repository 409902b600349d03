/**
 * @file
 * Bench regression comparison: baseline report vs candidate report.
 *
 * The regression gate (scripts/check.sh --bench) re-runs the benches,
 * then compares each fresh BENCH_<name>.json against the checked-in
 * copy under bench/baselines/. A metric fails when its relative change
 * exceeds its tolerance (two-sided by default: surprise speedups want
 * the baseline refreshed, not ignored); a metric or check that
 * disappears fails structurally; a check that flips to false fails.
 * New metrics in the candidate are reported but do not fail — they are
 * what a baseline refresh is for.
 *
 * Metrics with a known direction can opt out of the two-sided rule: a
 * "higher is better" metric (throughput, speedup ratio) fails only on
 * a drop beyond tolerance, and a "lower is better" one (latency, CPU
 * busy) only on a rise. Moves in the good direction are never failures
 * for a directed metric — the gate's job there is catching
 * regressions, not celebrating wins.
 *
 * The comparison logic lives here in the library (not in the CLI) so
 * the unit tests can drive it on synthetic reports — including the
 * injected-regression case the gate is contractually required to
 * catch.
 */
#pragma once

#include <map>
#include <string>
#include <vector>

#include "util/json.h"

namespace remora::obs {

/** Comparison knobs. */
struct BenchDiffOptions
{
    /** Two-sided relative tolerance applied when no override matches. */
    double defaultTolerancePct = 5.0;
    /** Per-metric overrides, full dotted metric name -> tolerance pct. */
    std::map<std::string, double> tolerances;
    /**
     * Per-metric direction hints, full dotted metric name -> sign.
     * +1 means higher is better (fail only when the candidate drops
     * more than tolerance below baseline); -1 means lower is better
     * (fail only when it rises more than tolerance above). Metrics not
     * listed keep the two-sided rule.
     */
    std::map<std::string, int> directions;
};

/** One compared metric. */
struct BenchDiffEntry
{
    std::string metric;
    double baseline = 0.0;
    double candidate = 0.0;
    /** Relative change, percent (0 when baseline == 0). */
    double deltaPct = 0.0;
    double tolerancePct = 0.0;
    /** Direction hint applied: +1 higher-is-better, -1 lower, 0 two-sided. */
    int direction = 0;
    bool ok = true;
};

/** Outcome of comparing one bench's reports. */
struct BenchDiffResult
{
    /** Bench name from the baseline report. */
    std::string bench;
    /** Per-metric comparisons, baseline order. */
    std::vector<BenchDiffEntry> entries;
    /** Structural failures: missing metrics, flipped checks, bad JSON. */
    std::vector<std::string> errors;
    /** Candidate-only metric names (informational). */
    std::vector<std::string> fresh;

    /** True when every metric is within tolerance and errors is empty. */
    bool pass() const;

    /** Human-readable rendering, one line per finding. */
    std::string render() const;
};

/**
 * Compare two parsed bench reports.
 *
 * @param baseline The checked-in reference report.
 * @param candidate The freshly generated report.
 * @param opts Tolerances.
 */
BenchDiffResult diffReports(const util::JsonValue &baseline,
                            const util::JsonValue &candidate,
                            const BenchDiffOptions &opts = {});

/** diffReports() over raw JSON text; parse errors land in errors. */
BenchDiffResult diffReportText(const std::string &baselineText,
                               const std::string &candidateText,
                               const BenchDiffOptions &opts = {});

/**
 * Names in @p opts' tolerances or directions that are a metric of none
 * of @p baselineTexts, sorted. Overrides are looked up by name, so an
 * override naming a renamed or misspelt metric would otherwise leave
 * that metric on the default tolerance without a word. Unparsable
 * texts contribute no names; diffReportText() reports them.
 */
std::vector<std::string>
unknownGateMetrics(const BenchDiffOptions &opts,
                   const std::vector<std::string> &baselineTexts);

} // namespace remora::obs
