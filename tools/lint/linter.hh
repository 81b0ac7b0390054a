/**
 * @file
 * The Boreas repo linter: multi-pass static enforcement of repo
 * invariants the compiler cannot check (DESIGN.md §7, §11).
 *
 * Pass 1 lexes each file into a comment/string-aware token stream
 * (lint/lexer.hh) — rules never fire on prose, string bodies, or
 * raw-string contents. Pass 2 builds the repo include graph and
 * enforces the declared layering DAG plus cycle-freedom
 * (lint/include_graph.hh). Pass 3 runs the per-file rules.
 *
 * Per-file rules (IDs are what the suppression markers take):
 *
 *   raw-random          Direct randomness (rand(), srand(), <random>
 *                       engines, std::random_device) outside
 *                       src/common/rng. Everything stochastic must
 *                       draw from the seeded Rng.
 *   unordered-container std::unordered_map / std::unordered_set:
 *                       implementation-defined iteration order breaks
 *                       ordered output and FP-sum determinism.
 *   direct-stdio        printf/puts/std::cout/std::cerr outside
 *                       src/common/logging — use boreas_inform /
 *                       boreas_warn / panic / fatal.
 *   raw-file-output     ofstream/fopen outside the designated sinks
 *                       (src/obs/export, src/workload/trace_io).
 *   workload-spec-construction
 *                       WorkloadSpec built outside src/workload; go
 *                       through the source registry.
 *   workload-spec-mention
 *                       WorkloadSpec named in src/ outside
 *                       src/workload; APIs above it take sources.
 *   raw-new-delete      Raw new/delete expressions (`= delete`
 *                       declarations are fine).
 *   header-guard        Headers use #pragma once, without a legacy
 *                       #ifndef guard alongside.
 *   header-hygiene      No `using namespace` at header scope.
 *   include-style       Quoted includes are repo-relative: no "..",
 *                       no absolute paths, no <boreas/...>, no
 *                       including .cc files.
 *   parallel-capture-mutation
 *                       A parallelFor/parallelForEach lambda with a
 *                       by-reference capture writes captured state
 *                       that is neither body-local nor a subscripted
 *                       per-task slot, without atomics or a lock.
 *   parallel-fp-reduction
 *                       Same detection classified as a reduction
 *                       (`+=`, `x = x + v`, std::accumulate feeding a
 *                       capture): thread-order FP accumulation is
 *                       nondeterministic — keep per-task partials and
 *                       merge in task-index order (DESIGN.md §6).
 *   mutable-global-state
 *                       Non-const static/global mutable data in src/
 *                       outside the allowlisted singleton homes
 *                       (common/parallel, obs/metrics, obs/trace).
 *   wall-clock          Wall-clock / std::this_thread use outside
 *                       bench/ and src/obs.
 *
 * Repo-level rules (emitted by the include-graph pass under
 * lintTree): `layering` and `include-cycle`.
 *
 * Suppressions:
 *
 *   // boreas-lint: allow(<rule>)       on the offending line, or on
 *                                       an immediately preceding
 *                                       comment-only line.
 *   // boreas-lint: allow-file(<rule>)  file-wide, honored only in
 *                                       the file header — the leading
 *                                       run of comment/blank lines
 *                                       before the first code line —
 *                                       so every file-wide exception
 *                                       is visible in one screenful.
 *
 * Rule applicability is zone-scoped (lint/rule.hh): src/ gets the
 * full determinism set; bench/, tests/ and tools/ only the hygiene
 * rules, since timing and printing are their job.
 */

#pragma once

#include <string>
#include <vector>

#include "lint/rule.hh"

namespace boreas::lint
{

/**
 * Lint one file's contents with the per-file rules. `path` decides
 * rule applicability (zone, header vs source, module exemptions); it
 * is not opened — `content` is the text to scan.
 */
std::vector<Violation> lintContent(const std::string &path,
                                   const std::string &content);

/**
 * Lint a file or directory tree (recursing into C++ sources) with
 * the per-file rules. Unreadable paths produce a violation rather
 * than a crash. No include-graph pass (use lintTree for that).
 */
std::vector<Violation> lintPath(const std::string &root);

/** Options for the full multi-pass run. */
struct TreeLintOptions
{
    /// Repo root for display-path relativization and include
    /// resolution. Empty: paths are reported as passed and the
    /// include-graph pass is skipped.
    std::string repoRoot;
    /// Run the layering/cycle pass (needs repoRoot).
    bool includeGraph = true;
};

struct TreeLintResult
{
    std::vector<Violation> violations; ///< sorted (file, line, rule)
    int filesScanned = 0;
};

/**
 * The full pipeline over one or more roots: lex every file, run the
 * per-file rules, then the repo-level include-graph pass.
 */
TreeLintResult lintTree(const std::vector<std::string> &roots,
                        const TreeLintOptions &opts);

/** Render "file:line: [rule] message". */
std::string format(const Violation &v);

} // namespace boreas::lint
