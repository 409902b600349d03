#include "obs/bench_diff.h"

#include <cmath>
#include <cstdio>
#include <set>

namespace remora::obs {

namespace {

/** Flat name -> value view of a report's "metrics" array. */
std::map<std::string, double>
metricMap(const util::JsonValue &report, std::vector<std::string> *order)
{
    std::map<std::string, double> out;
    const util::JsonValue *metrics = report.find("metrics");
    if (metrics == nullptr || !metrics->isArray()) {
        return out;
    }
    for (const util::JsonValue &m : metrics->items()) {
        const util::JsonValue *name = m.find("name");
        const util::JsonValue *value = m.find("value");
        if (name == nullptr || !name->isString() || value == nullptr ||
            !value->isNumber()) {
            continue;
        }
        if (out.emplace(name->asString(), value->asNumber()).second &&
            order != nullptr) {
            order->push_back(name->asString());
        }
    }
    return out;
}

/** Flat name -> ok view of a report's "checks" array. */
std::map<std::string, bool>
checkMap(const util::JsonValue &report)
{
    std::map<std::string, bool> out;
    const util::JsonValue *checks = report.find("checks");
    if (checks == nullptr || !checks->isArray()) {
        return out;
    }
    for (const util::JsonValue &c : checks->items()) {
        const util::JsonValue *name = c.find("name");
        const util::JsonValue *ok = c.find("ok");
        if (name != nullptr && name->isString() && ok != nullptr &&
            ok->isBool()) {
            out.emplace(name->asString(), ok->asBool());
        }
    }
    return out;
}

} // namespace

bool
BenchDiffResult::pass() const
{
    if (!errors.empty()) {
        return false;
    }
    for (const auto &e : entries) {
        if (!e.ok) {
            return false;
        }
    }
    return true;
}

std::string
BenchDiffResult::render() const
{
    std::string out;
    char line[256];
    for (const auto &err : errors) {
        out += "  FAIL  " + err + "\n";
    }
    for (const auto &e : entries) {
        if (e.ok) {
            continue;
        }
        const char *dirNote =
            e.direction > 0 ? ", higher is better"
                            : (e.direction < 0 ? ", lower is better" : "");
        std::snprintf(line, sizeof(line),
                      "  FAIL  %s: %.4g -> %.4g (%+.1f%%, tolerance "
                      "%.1f%%%s)\n",
                      e.metric.c_str(), e.baseline, e.candidate, e.deltaPct,
                      e.tolerancePct, dirNote);
        out += line;
    }
    for (const auto &name : fresh) {
        out += "  note  new metric (not in baseline): " + name + "\n";
    }
    if (out.empty()) {
        std::snprintf(line, sizeof(line), "  ok    %zu metrics within "
                      "tolerance\n", entries.size());
        out = line;
    }
    return out;
}

BenchDiffResult
diffReports(const util::JsonValue &baseline, const util::JsonValue &candidate,
            const BenchDiffOptions &opts)
{
    BenchDiffResult result;
    const util::JsonValue *bname = baseline.find("bench");
    if (bname != nullptr && bname->isString()) {
        result.bench = bname->asString();
    }
    const util::JsonValue *cname = candidate.find("bench");
    if (cname != nullptr && cname->isString() && cname->asString() !=
        result.bench) {
        result.errors.push_back("bench name mismatch: baseline \"" +
                                result.bench + "\" vs candidate \"" +
                                cname->asString() + "\"");
    }

    std::vector<std::string> order;
    auto base = metricMap(baseline, &order);
    auto cand = metricMap(candidate, nullptr);
    for (const auto &name : order) {
        auto it = cand.find(name);
        if (it == cand.end()) {
            result.errors.push_back("metric missing from candidate: " + name);
            continue;
        }
        BenchDiffEntry e;
        e.metric = name;
        e.baseline = base[name];
        e.candidate = it->second;
        auto tol = opts.tolerances.find(name);
        e.tolerancePct = tol != opts.tolerances.end()
                             ? tol->second
                             : opts.defaultTolerancePct;
        auto dir = opts.directions.find(name);
        e.direction = dir != opts.directions.end()
                          ? (dir->second < 0 ? -1 : 1)
                          : 0;
        if (e.baseline == 0.0) {
            // No relative scale; only an exact hold is meaningful —
            // except that a directed metric moving the good way from
            // zero is an improvement, not a regression.
            e.deltaPct = 0.0;
            e.ok = e.candidate == 0.0 ||
                   (e.direction != 0 &&
                    e.direction * (e.candidate - e.baseline) > 0.0);
        } else {
            e.deltaPct =
                100.0 * (e.candidate - e.baseline) / std::abs(e.baseline);
            if (e.direction > 0) {
                // Higher is better: only a drop past tolerance fails.
                e.ok = e.deltaPct >= -e.tolerancePct;
            } else if (e.direction < 0) {
                // Lower is better: only a rise past tolerance fails.
                e.ok = e.deltaPct <= e.tolerancePct;
            } else {
                e.ok = std::abs(e.deltaPct) <= e.tolerancePct;
            }
        }
        result.entries.push_back(e);
    }
    for (const auto &[name, value] : cand) {
        (void)value;
        if (base.find(name) == base.end()) {
            result.fresh.push_back(name);
        }
    }

    auto baseChecks = checkMap(baseline);
    auto candChecks = checkMap(candidate);
    for (const auto &[name, ok] : baseChecks) {
        auto it = candChecks.find(name);
        if (it == candChecks.end()) {
            result.errors.push_back("check missing from candidate: " + name);
        } else if (ok && !it->second) {
            result.errors.push_back("check regressed to false: " + name);
        }
    }
    for (const auto &[name, ok] : candChecks) {
        if (!ok && baseChecks.find(name) == baseChecks.end()) {
            result.errors.push_back("new check is failing: " + name);
        }
    }
    return result;
}

BenchDiffResult
diffReportText(const std::string &baselineText,
               const std::string &candidateText, const BenchDiffOptions &opts)
{
    auto base = util::JsonValue::parse(baselineText);
    if (!base.ok()) {
        BenchDiffResult r;
        r.errors.push_back("baseline unparsable: " +
                           base.status().toString());
        return r;
    }
    auto cand = util::JsonValue::parse(candidateText);
    if (!cand.ok()) {
        BenchDiffResult r;
        r.errors.push_back("candidate unparsable: " +
                           cand.status().toString());
        return r;
    }
    return diffReports(base.value(), cand.value(), opts);
}

std::vector<std::string>
unknownGateMetrics(const BenchDiffOptions &opts,
                   const std::vector<std::string> &baselineTexts)
{
    std::set<std::string> known;
    for (const std::string &text : baselineTexts) {
        auto report = util::JsonValue::parse(text);
        if (report.ok()) {
            for (const auto &[name, value] : metricMap(report.value(),
                                                       nullptr)) {
                (void)value;
                known.insert(name);
            }
        }
    }
    std::set<std::string> unknown;
    for (const auto &[name, pct] : opts.tolerances) {
        (void)pct;
        if (known.count(name) == 0) {
            unknown.insert(name);
        }
    }
    for (const auto &[name, dir] : opts.directions) {
        (void)dir;
        if (known.count(name) == 0) {
            unknown.insert(name);
        }
    }
    return {unknown.begin(), unknown.end()};
}

} // namespace remora::obs
