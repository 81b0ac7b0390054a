/**
 * @file
 * The workload-source registry: every stimulus the pipeline can run
 * is named by a source spec string and constructed here.
 *
 * Grammar (DESIGN.md §10):
 *
 *   synthetic:spec2006/<name>   one SPEC CPU2006 phase program
 *   synthetic:nas/<name>        one NAS program (e.g. nas/cg.B)
 *   mix:<a>+<b>+...[@stagger=<seconds>][@scale=<mult>]
 *                               co-schedule the named programs on
 *                               cores 0..n-1; program i starts at
 *                               i*stagger (names resolve in spec2006
 *                               first, then nas). Options compose in
 *                               any order, each at most once; scale
 *                               multiplies every program's intensity
 *   adversarial:<scenario>      powervirus | corehop | ambientramp |
 *                               ambientsweep
 *   trace:<path>                replay a boreas-trace-v1 file
 *   <name>                      bare-name shorthand for a spec2006 or
 *                               nas program
 *
 * Code outside src/workload must obtain workloads through this
 * registry (or the suite accessors) rather than constructing
 * WorkloadSpec literals — enforced by the workload-spec-construction
 * lint rule (tools/lint/linter.cc).
 */

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "workload/source.hh"
#include "workload/workload.hh"

namespace boreas
{

/**
 * Build the source named by `spec_string`. Returns nullptr and sets
 * *error (if given) when the string does not parse or names nothing.
 */
std::unique_ptr<WorkloadSource>
tryMakeWorkloadSource(const std::string &spec_string,
                      std::string *error = nullptr);

/** Like tryMakeWorkloadSource(), but panics with the parse error. */
std::unique_ptr<WorkloadSource>
makeWorkloadSource(const std::string &spec_string);

/**
 * Wrap one already-resolved phase program (e.g. a spec2006 suite
 * entry) as a single-core source named by the bare spec.name, which
 * the bare-name shorthand above resolves back to the same program.
 */
std::unique_ptr<WorkloadSource>
makeSyntheticSource(const WorkloadSpec &spec);

/**
 * Owned sources plus the pointer list the run, sweep, dataset and
 * bench APIs take. `sources` points into `owned`, so keep the set
 * alive while the pointers are in use (a temporary lives to the end
 * of the call it is built in).
 */
struct SourceSet
{
    std::vector<std::unique_ptr<WorkloadSource>> owned;
    std::vector<const WorkloadSource *> sources;

    void add(std::unique_ptr<WorkloadSource> source);
};

/** Wrap each phase program with makeSyntheticSource(), in order. */
SourceSet wrapSpecs(const std::vector<const WorkloadSpec *> &specs);

/** One-line-per-form usage text for bench --workload help. */
const std::string &workloadSourceGrammar();

/**
 * Split a comma-separated list of source specs ("bzip2,mix:a+b,...")
 * into its entries, preserving order. Empty entries (leading,
 * trailing or doubled commas) are kept so callers can report them —
 * the fleet layer maps each entry to a die and must not silently
 * renumber dies around a typo.
 */
std::vector<std::string>
splitWorkloadSpecList(const std::string &list);

} // namespace boreas
