/**
 * @file
 * remora-flow: flow-sensitive suspension-point hazard analysis.
 *
 * The pass builds, per function, a control-flow graph from the shared
 * token stream (source_model.h) — branches, loops, switch cases, early
 * `return`/`co_return`, `break`/`continue`, and `co_await` expressions
 * as first-class suspension nodes — and runs a forward may-dataflow
 * over it (union joins, worklist to fixpoint). Four rules ride on the
 * fixpoint state:
 *
 *  - remora-lock-across-suspension (error): a lock acquired by an
 *    awaited `acquire()` is still may-held when the function suspends
 *    on a *different* lock's spinning `acquire()` — the static form of
 *    the cross-order deadlocks remora-mc finds by schedule exploration
 *    — or a host-thread guard (`std::lock_guard`/`unique_lock`/
 *    `scoped_lock`) is live at *any* `co_await` (the guard blocks the
 *    host thread; an awaited lock only parks the coroutine, so awaited
 *    work under an awaited lock is the tree's core idiom and is not
 *    flagged).
 *  - remora-use-after-suspension (error): a local bound to borrowed
 *    data (an iterator/view/element reference into state that other
 *    coroutines can mutate during a suspension) is used after a
 *    `co_await` that may have invalidated it.
 *  - remora-release-on-all-paths (advisory): the function pairs an
 *    acquire with a release (`acquire`/`release`, `beginUse`/`endUse`),
 *    but some early-exit path reaches the end still holding.
 *  - remora-unchecked-vector-status (advisory): an awaited vectored
 *    op's outcome (readv/writev/casv, or `issue()` on a local
 *    BatchBuilder) whose per-sub-op `.results` are never inspected (the
 *    PR 6 contract: a stale generation fails the sub-op, not the
 *    batch), or a vectored outcome discarded outright. A writev, or a
 *    batch that only ever calls addWrite, is satisfied by `.status`.
 *
 * Nested lambdas are separate analysis units: a suspension inside a
 *lambda body neither suspends the enclosing function nor suppresses
 * its analysis; the lambda gets its own CFG and findings.
 *
 * Known imprecision (documented in DESIGN.md §14): no alias analysis
 * (borrows through plain parameter pointers are missed), cross-function
 * borrows are invisible, `tryAcquire` success is assumed on all paths
 * (may-held), and switch models explicit fallthrough edges but not
 * case-range feasibility.
 */
#pragma once

#include <string_view>
#include <vector>

#include "lint.h"

namespace remora::lint {

struct SourceModel;

/**
 * Run the four flow rules over every function in @p s, appending
 * findings labeled with @p path. NOLINT suppression is honored at the
 * reporting line and at the binding/acquire line that gave rise to the
 * tracked state.
 */
void checkFlowRules(std::string_view path, const SourceModel &s,
                    const Options &opts, std::vector<Finding> &out);

} // namespace remora::lint
