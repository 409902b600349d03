/**
 * @file
 * remora-lint: project-specific hazard checks for the remora tree.
 *
 * A light single-file lexer (comments/strings stripped, identifiers and
 * punctuation tokenized; source_model.h) drives the rule families that
 * general-purpose tools either miss or cannot know about:
 *
 *  - coroutine-param hazards: a `sim::Task<...>` coroutine copies its
 *    by-value parameters into the coroutine frame, but reference and
 *    `string_view` parameters silently bind to caller temporaries that
 *    die at the first suspension point (the PR 1 dangling-reference bug
 *    class). Pointer parameters cannot bind temporaries — taking `&x`
 *    of a prvalue is ill-formed — and are the tree's documented idiom
 *    for handing long-lived objects to detached coroutine lambdas, so
 *    they are reported as advisory rather than as errors.
 *  - deferred-lambda captures: a lambda handed to
 *    `Simulator::schedule`/`scheduleAt` runs after the enclosing scope
 *    has unwound, and a coroutine lambda (`-> Task<...>`) suspends
 *    past it; in both, `[&]`-style by-reference captures dangle — the
 *    same bug family as the coroutine-param rules, one level up.
 *  - detached coroutines: Task<...> starts eagerly, so a call whose
 *    result is discarded (bare statement or `(void)` cast) silently
 *    detaches the frame with nothing owning it or recording the
 *    intent; fire-and-forget must be spelled `.detach()`, which is
 *    itself reported as an advisory so the sites stay auditable.
 *  - nondeterminism sources: the simulator's contract is bit-identical
 *    replay, so wall-clock and platform randomness (`std::rand`,
 *    `time(nullptr)`, `std::chrono::system_clock`, `std::random_device`)
 *    are banned outside `sim/random`, which wraps seeding explicitly.
 *  - include hygiene: no relative `../`/`./` includes, and quoted
 *    project includes must carry their module prefix ("sim/task.h",
 *    never "task.h") so the include graph mirrors the layer diagram.
 *  - flow rules (remora-flow, flow.h): a per-function CFG with
 *    `co_await` expressions as first-class suspension nodes, plus a
 *    forward dataflow pass, finds lock-held-across-suspension,
 *    use-after-suspension, skipped-release-on-early-exit, and
 *    unchecked vectored-op statuses on every path.
 *  - include layers (layers.h, whole-tree): the project include DAG
 *    must be acyclic and respect the module layer diagram.
 *
 * Suppression uses clang-tidy's spelling so one comment silences both
 * tools: `// NOLINT(<check>)` on the offending line or
 * `// NOLINTNEXTLINE(<check>)` on the line above, where <check> is a
 * remora-lint rule name or a matching clang-tidy check name. A bare
 * NOLINT (no parenthesized list) silences every rule on that line.
 */
#pragma once

#include <filesystem>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace remora::lint {

/** Rule families, used for reporting and NOLINT matching. */
enum class Rule
{
    /** Reference / string_view parameter on a coroutine (error). */
    kCoroutineRefParam,
    /** Raw-pointer parameter on a named coroutine (advisory). */
    kCoroutinePtrParam,
    /**
     * By-reference capture on a lambda whose frame outlives the
     * enclosing scope: handed to Simulator::schedule/scheduleAt, or a
     * coroutine lambda (`-> Task<...>`) that can suspend (error).
     */
    kRefCaptureDeferred,
    /**
     * A TU-local Task-returning coroutine started and discarded — bare
     * call statement or `(void)` cast — so the eager frame detaches
     * with no owner and no visible intent (error).
     */
    kDetachedCoroutine,
    /**
     * Immediate `.detach()` of a coroutine temporary: sanctioned
     * fire-and-forget, reported so the sites stay auditable (advisory).
     * Shares the NOLINT name remora-detached-coroutine with the error
     * form.
     */
    kDetachedCoroutineDetach,
    /**
     * A scalar engine `write()`/`read()` awaited inside a loop body:
     * every iteration pays a full trap, validation, and frame, where a
     * single vectored `writev()`/`readv()` batch would pay them once
     * (advisory).
     */
    kScalarOpLoop,
    /** Banned wall-clock / platform-randomness source (error). */
    kNondeterminism,
    /** Relative or unprefixed project include (error). */
    kIncludeHygiene,
    /**
     * Flow rule: a SpinLock/token acquired by an awaited `acquire()`
     * is still held when the function suspends on a *different* lock's
     * spinning `acquire()` — the static form of the cross-order
     * deadlocks remora-mc finds by schedule exploration — or a
     * host-thread guard (`std::lock_guard`/`unique_lock`/`scoped_lock`)
     * is live at any `co_await` (error).
     */
    kLockAcrossSuspension,
    /**
     * Flow rule: a pointer/reference/`string_view`/span local bound to
     * borrowed data (member state, pointer-deref chains, view-returning
     * calls) before a suspension point and used after it, when the
     * borrowed-from owner may have mutated during the suspension
     * (error).
     */
    kUseAfterSuspension,
    /**
     * Flow rule: a function both acquires and releases the same lock /
     * begin-end pair, but some early-exit path leaves it held
     * (advisory: the paired shape suggests the hold was meant to be
     * scoped).
     */
    kReleaseOnAllPaths,
    /**
     * Flow rule: the result of an awaited `readv`/`casv`/`issueVector`
     * whose per-sub-op statuses are never inspected, or an awaited
     * `writev` status never checked — the PR 6 contract is that a
     * stale generation fails the sub-op, not the batch (advisory).
     */
    kUncheckedVectorStatus,
    /**
     * Whole-tree rule: a `src/` include edge that climbs the layer
     * diagram upward, or a cycle in the include DAG (error).
     */
    kIncludeLayer,
};

/**
 * Every rule, for iteration (--list-rules, JSON schema). The name /
 * severity / description accessors below are switch-based with
 * -Werror=switch on remora_lint_core, so adding a Rule enumerator
 * without wiring all three is a compile error; keep this array in the
 * same order as the enum.
 */
inline constexpr Rule kAllRules[] = {
    Rule::kCoroutineRefParam,    Rule::kCoroutinePtrParam,
    Rule::kRefCaptureDeferred,   Rule::kDetachedCoroutine,
    Rule::kDetachedCoroutineDetach, Rule::kScalarOpLoop,
    Rule::kNondeterminism,       Rule::kIncludeHygiene,
    Rule::kLockAcrossSuspension, Rule::kUseAfterSuspension,
    Rule::kReleaseOnAllPaths,    Rule::kUncheckedVectorStatus,
    Rule::kIncludeLayer,
};

/** One rule's row of the rule table (what --list-rules prints). */
struct RuleInfo
{
    /** remora-lint's name, as used in NOLINT(...) lists. */
    const char *name;
    /** True when findings fail the build (vs. advisory). */
    bool isError;
    /** True for the four CFG/dataflow rules (counted in summaries). */
    bool isFlow;
    /** One-line human description. */
    const char *description;
};

/** The rule table row of @p rule. */
RuleInfo ruleInfo(Rule rule);

inline const char *ruleName(Rule rule) { return ruleInfo(rule).name; }
inline bool ruleIsError(Rule rule) { return ruleInfo(rule).isError; }
inline bool ruleIsFlow(Rule rule) { return ruleInfo(rule).isFlow; }

inline const char *
ruleDescription(Rule rule)
{
    return ruleInfo(rule).description;
}

/** One reported violation. */
struct Finding
{
    Rule rule;
    /** Path as handed to lintSource (diagnostic label only). */
    std::string file;
    /** 1-based line of the offending construct. */
    int line = 0;
    /** Human-readable description, without the file:line prefix. */
    std::string message;

    /** "file:line: [rule] message" for terminal output. */
    std::string format() const;
};

/** Per-file knobs; defaults match a file under src/. */
struct Options
{
    /** Check coroutine parameter lists. */
    bool checkCoroutineParams = true;
    /**
     * Check by-reference captures on deferred/coroutine lambdas.
     * Disabled for tests/: a test body pumps the simulator with run()
     * inside the capturing scope, so its locals outlive every queued
     * callback and `[&]` is the idiomatic way to collect results. In
     * src/, a scheduled callback escapes the scheduling scope.
     */
    bool checkRefCaptures = true;
    /** Check for discarded / silently-detached coroutine starts. */
    bool checkDetachedCoroutines = true;
    /** Check for scalar awaited write()/read() calls inside loops. */
    bool checkScalarOpLoops = true;
    /**
     * Run the CFG/dataflow pass (flow.h): lock-across-suspension,
     * use-after-suspension, release-on-all-paths, and
     * unchecked-vector-status. On everywhere; the rules are
     * path-sensitive enough to stay quiet on driver-style code.
     */
    bool checkFlowRules = true;
    /** Check for banned nondeterminism sources. */
    bool checkNondeterminism = true;
    /** Check include style. */
    bool checkIncludes = true;
    /**
     * Require quoted includes to start with a known module directory.
     * Disabled for tests/, which include sibling fixtures directly.
     */
    bool requireModulePrefix = true;
    /**
     * Permit std::random_device: true only for sim/random.*, the one
     * sanctioned seeding point.
     */
    bool allowRandomDevice = false;
};

/**
 * Lint one translation unit.
 *
 * @param path Label used in findings (not opened; content comes in @p text).
 * @param text Full source text.
 * @param opts Per-file rule configuration.
 * @return All findings, in source order.
 */
std::vector<Finding> lintSource(std::string_view path, std::string_view text,
                                const Options &opts = {});

/**
 * Derive per-file options from a repo-relative path, applying the
 * location-based exemptions described on Options.
 */
Options optionsForPath(std::string_view relPath);

/** True when @p relPath is a file remora-lint should scan (.h/.cc/.cpp). */
bool shouldLint(std::string_view relPath);

/** A whole file's bytes; nullopt when it cannot be read. */
std::optional<std::string> readFile(const std::filesystem::path &path);

/**
 * Every file shouldLint() accepts under @p root's src/, tests/, tools/
 * and bench/, as (repo-relative path, text) pairs: the tree that
 * `remora_lint --root <root> src tests tools bench` scans.
 */
std::vector<std::pair<std::string, std::string>>
treeFiles(const std::filesystem::path &root);

/**
 * Findings as a machine-readable JSON array:
 * `[{"file":...,"line":N,"rule":...,"severity":"error"|"advisory",
 *    "message":...}, ...]`, sorted as given.
 */
std::string findingsToJson(const std::vector<Finding> &findings);

} // namespace remora::lint
