/**
 * @file
 * remora-lint driver: walk the tree, lint each source file, report.
 *
 *   remora_lint [--root DIR] [--pedantic] [--strict-pointers]
 *               [--json] [--list-rules] [--no-layers] [paths...]
 *
 * Paths (files or directories, default: src tests) are resolved against
 * --root (default: the current directory). Exit status is 1 when any
 * error-severity finding is reported. Advisory findings (raw-pointer
 * coroutine parameters — the tree's sanctioned idiom for handing
 * long-lived objects to coroutines — plus the advisory flow rules) are
 * hidden by default, printed under --pedantic, and treated as errors
 * under --strict-pointers.
 *
 * Beyond the per-file passes, the driver always feeds every scanned
 * `src/` file to the whole-tree include-layer checker (layers.h);
 * --no-layers skips it (used by fixture-driven tests). --json replaces
 * the human-readable lines with one machine-readable findings array;
 * --list-rules prints the rule table and exits.
 */
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "layers.h"
#include "lint.h"

namespace fs = std::filesystem;

namespace {

void
listRules()
{
    for (remora::lint::Rule rule : remora::lint::kAllRules) {
        std::cout << remora::lint::ruleName(rule) << "  ["
                  << (remora::lint::ruleIsError(rule) ? "error"
                                                      : "advisory")
                  << (remora::lint::ruleIsFlow(rule) ? ", flow" : "")
                  << "]\n    " << remora::lint::ruleDescription(rule)
                  << "\n";
    }
}

} // namespace

int
main(int argc, char **argv)
{
    fs::path root = fs::current_path();
    bool strictPointers = false;
    bool pedantic = false;
    bool json = false;
    bool layers = true;
    std::vector<std::string> paths;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            root = argv[++i];
        } else if (arg == "--strict-pointers") {
            strictPointers = true;
        } else if (arg == "--pedantic") {
            pedantic = true;
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--no-layers") {
            layers = false;
        } else if (arg == "--list-rules") {
            listRules();
            return 0;
        } else if (arg == "--help" || arg == "-h") {
            std::cout
                << "usage: remora_lint [--root DIR] [--pedantic] "
                   "[--strict-pointers] [--json] [--list-rules] "
                   "[--no-layers] [paths...]\n";
            return 0;
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        paths = {"src", "tests"};
    }

    size_t files = 0;
    std::vector<remora::lint::Finding> all;
    std::vector<std::pair<std::string, std::string>> srcFiles;
    for (const std::string &p : paths) {
        fs::path abs = fs::path(p).is_absolute() ? fs::path(p) : root / p;
        std::vector<fs::path> targets;
        std::error_code ec;
        if (fs::is_directory(abs, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(abs, ec)) {
                if (entry.is_regular_file()) {
                    targets.push_back(entry.path());
                }
            }
        } else if (fs::is_regular_file(abs, ec)) {
            targets.push_back(abs);
        } else {
            std::cerr << "remora-lint: cannot open " << abs << "\n";
            return 2;
        }
        std::sort(targets.begin(), targets.end());
        for (const fs::path &file : targets) {
            std::string rel = fs::relative(file, root, ec).generic_string();
            rel = ec || rel.empty() ? file.generic_string() : rel;
            if (!remora::lint::shouldLint(rel)) {
                continue;
            }
            std::optional<std::string> read = remora::lint::readFile(file);
            if (!read) {
                std::cerr << "remora-lint: cannot read " << file << "\n";
                return 2;
            }
            std::string text = std::move(*read);
            ++files;
            auto findings = remora::lint::lintSource(
                rel, text, remora::lint::optionsForPath(rel));
            all.insert(all.end(), findings.begin(), findings.end());
            if (layers && rel.rfind("src/", 0) == 0) {
                srcFiles.emplace_back(rel, std::move(text));
            }
        }
    }

    size_t layerFindings = 0;
    if (layers) {
        auto lf = remora::lint::checkIncludeLayers(srcFiles);
        layerFindings = lf.size();
        all.insert(all.end(), lf.begin(), lf.end());
    }

    size_t errors = 0;
    size_t advisories = 0;
    size_t flowFindings = 0;
    std::vector<remora::lint::Finding> shown;
    for (const auto &f : all) {
        bool isError = remora::lint::ruleIsError(f.rule) || strictPointers;
        (isError ? errors : advisories) += 1;
        flowFindings += remora::lint::ruleIsFlow(f.rule) ? 1 : 0;
        if (isError || pedantic) {
            shown.push_back(f);
            if (!json) {
                std::cout << f.format() << "\n";
            }
        }
    }
    if (json) {
        std::cout << remora::lint::findingsToJson(shown) << "\n";
    } else {
        std::cout << "remora-lint: " << files << " files scanned, "
                  << errors << " error(s), " << advisories
                  << " advisory note(s), " << flowFindings
                  << " flow finding(s), " << layerFindings
                  << " layer violation(s)\n";
    }
    return errors != 0 ? 1 : 0;
}
