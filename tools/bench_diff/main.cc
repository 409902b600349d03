/**
 * @file
 * bench_diff: compare fresh bench reports against checked-in baselines.
 *
 *     bench_diff [options] <baseline_dir> <candidate_dir>
 *
 *       --tol PCT          default two-sided tolerance (default 5)
 *       --tol-metric N=PCT per-metric override (repeatable; N is the
 *                          full dotted metric name)
 *       --dir-metric N=D   per-metric direction hint (repeatable; D is
 *                          "up" for higher-is-better or "down" for
 *                          lower-is-better — the metric then fails
 *                          only on moves in the bad direction)
 *       --only NAME        compare only BENCH_<NAME>.json
 *
 * Every BENCH_*.json in the baseline directory must exist in the
 * candidate directory, parse, carry every baseline metric within
 * tolerance, and keep every baseline check passing. Exit status is the
 * number of failing reports (clamped to 1), so scripts/check.sh can
 * gate on it directly. Candidate-only reports and metrics are noted
 * but never fail — refreshing bench/baselines/ is how they land.
 * A --tol-metric or --dir-metric name that is no metric of any
 * baseline in the directory is a usage error (exit 2): the override
 * would otherwise silently gate nothing.
 */
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/bench_diff.h"

namespace fs = std::filesystem;

namespace {

bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path);
    if (!in) {
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: bench_diff [--tol PCT] [--tol-metric NAME=PCT]... "
                 "[--dir-metric NAME=up|down]... [--only NAME] "
                 "<baseline_dir> <candidate_dir>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    remora::obs::BenchDiffOptions opts;
    std::string only;
    std::vector<std::string> dirs;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--tol") == 0 && i + 1 < argc) {
            opts.defaultTolerancePct = std::atof(argv[++i]);
        } else if (std::strcmp(argv[i], "--tol-metric") == 0 &&
                   i + 1 < argc) {
            std::string arg = argv[++i];
            size_t eq = arg.find('=');
            if (eq == std::string::npos) {
                return usage();
            }
            opts.tolerances[arg.substr(0, eq)] =
                std::atof(arg.c_str() + eq + 1);
        } else if (std::strcmp(argv[i], "--dir-metric") == 0 &&
                   i + 1 < argc) {
            std::string arg = argv[++i];
            size_t eq = arg.find('=');
            if (eq == std::string::npos) {
                return usage();
            }
            std::string dir = arg.substr(eq + 1);
            if (dir != "up" && dir != "down") {
                return usage();
            }
            opts.directions[arg.substr(0, eq)] = dir == "up" ? 1 : -1;
        } else if (std::strcmp(argv[i], "--only") == 0 && i + 1 < argc) {
            only = argv[++i];
        } else if (argv[i][0] == '-') {
            return usage();
        } else {
            dirs.push_back(argv[i]);
        }
    }
    if (dirs.size() != 2) {
        return usage();
    }
    fs::path baseDir(dirs[0]), candDir(dirs[1]);
    if (!fs::is_directory(baseDir)) {
        std::fprintf(stderr, "bench_diff: no baseline directory %s\n",
                     baseDir.string().c_str());
        return 2;
    }

    std::vector<fs::path> baselines;
    std::vector<std::string> allBaselineTexts;
    for (const auto &entry : fs::directory_iterator(baseDir)) {
        std::string name = entry.path().filename().string();
        if (name.rfind("BENCH_", 0) == 0 &&
            entry.path().extension() == ".json") {
            std::string text;
            if (readFile(entry.path(), text)) {
                allBaselineTexts.push_back(std::move(text));
            }
            if (!only.empty() && name != "BENCH_" + only + ".json") {
                continue;
            }
            baselines.push_back(entry.path());
        }
    }
    std::sort(baselines.begin(), baselines.end());
    if (baselines.empty()) {
        std::fprintf(stderr, "bench_diff: no BENCH_*.json baselines in %s\n",
                     baseDir.string().c_str());
        return 2;
    }
    std::vector<std::string> unknown =
        remora::obs::unknownGateMetrics(opts, allBaselineTexts);
    for (const std::string &name : unknown) {
        std::fprintf(stderr,
                     "bench_diff: --tol-metric/--dir-metric names no "
                     "baselined metric: %s\n",
                     name.c_str());
    }
    if (!unknown.empty()) {
        return 2;
    }

    int failed = 0;
    for (const auto &basePath : baselines) {
        std::string name = basePath.filename().string();
        fs::path candPath = candDir / name;
        std::string baseText, candText;
        if (!readFile(basePath, baseText)) {
            std::printf("%s\n  FAIL  cannot read baseline\n", name.c_str());
            ++failed;
            continue;
        }
        if (!readFile(candPath, candText)) {
            std::printf("%s\n  FAIL  candidate report missing (%s)\n",
                        name.c_str(), candPath.string().c_str());
            ++failed;
            continue;
        }
        auto result =
            remora::obs::diffReportText(baseText, candText, opts);
        std::printf("%s\n%s", name.c_str(), result.render().c_str());
        if (!result.pass()) {
            ++failed;
        }
    }
    if (failed > 0) {
        std::printf("bench_diff: %d of %zu report(s) FAILED\n", failed,
                    baselines.size());
        return 1;
    }
    std::printf("bench_diff: all %zu report(s) within tolerance\n",
                baselines.size());
    return 0;
}
