/**
 * @file
 * The tier-1 lint gate: run remora-lint over the real tree (src/,
 * tests/, tools/, bench/) and fail if any error-severity finding
 * appears, then feed every src/ file to the include-layer checker and
 * fail on upward edges or cycles. This is the same pass
 * `scripts/check.sh --lint` runs, wired into ctest so a hazardous
 * coroutine signature, a lock held across the wrong suspension, or an
 * include edge that climbs the layer diagram fails the build even when
 * nobody remembers to run the script.
 *
 * REMORA_SOURCE_DIR is injected by tests/CMakeLists.txt so the gate
 * works from any build directory.
 */
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "layers.h"
#include "lint.h"

namespace remora::lint {
namespace {

namespace fs = std::filesystem;

TEST(LintClean, TreeHasNoErrorSeverityFindings)
{
    const fs::path root(REMORA_SOURCE_DIR);
    ASSERT_TRUE(fs::exists(root / "src"))
        << "REMORA_SOURCE_DIR does not point at the repo: " << root;

    size_t scanned = 0;
    std::vector<std::string> errors;
    for (const auto &[rel, text] : treeFiles(root)) {
        ++scanned;
        auto findings = lintSource(rel, text, optionsForPath(rel));
        for (const Finding &f : findings) {
            if (ruleIsError(f.rule)) {
                errors.push_back(f.format());
            }
        }
    }

    // Guard against silently scanning nothing (wrong root, renamed
    // directories): the tree is far larger than this floor.
    EXPECT_GT(scanned, 100u);

    std::ostringstream report;
    for (const std::string &e : errors) {
        report << "  " << e << "\n";
    }
    EXPECT_TRUE(errors.empty())
        << errors.size() << " lint error(s) in the tree:\n"
        << report.str();
}

TEST(LintClean, IncludeDagRespectsLayerDiagram)
{
    const fs::path root(REMORA_SOURCE_DIR);
    ASSERT_TRUE(fs::exists(root / "src"));

    auto files = treeFiles(root);
    size_t srcFiles = 0;
    for (const auto &[rel, text] : files) {
        (void)text;
        srcFiles += rel.rfind("src/", 0) == 0 ? 1 : 0;
    }
    EXPECT_GT(srcFiles, 40u);

    auto findings = checkIncludeLayers(files);
    std::ostringstream report;
    for (const Finding &f : findings) {
        report << "  " << f.format() << "\n";
    }
    EXPECT_TRUE(findings.empty())
        << findings.size() << " include-layer violation(s):\n"
        << report.str();
}

} // namespace
} // namespace remora::lint
