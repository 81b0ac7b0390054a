/**
 * @file
 * The regex/line-level style and determinism rules, ported from the
 * original single-file scanner. Each rule matches against the blanked
 * code text of one line (comments and literal bodies removed by the
 * lexer), so prose never fires.
 */

#include <map>
#include <regex>

#include "lint/rule.hh"

namespace boreas::lint
{

namespace
{

/** The only module allowed to touch raw randomness primitives. */
bool
isRngModule(const std::string &path)
{
    return pathContains(path, "common/rng");
}

/** The only module allowed to use stdio streams directly. */
bool
isLoggingModule(const std::string &path)
{
    return pathContains(path, "common/logging");
}

/** The only modules allowed to open files for writing: the obs
 *  artifact sink (all BENCH_/TRACE_ output) and the workload trace
 *  serializer (boreas-trace-v1 files). */
bool
isFileSink(const std::string &path)
{
    return pathContains(path, "obs/export") ||
        pathContains(path, "workload/trace_io");
}

/** Only the workload subsystem's registries construct specs. */
bool
isWorkloadModule(const std::string &path)
{
    return pathContains(path, "src/workload");
}

/** The ML library itself implements both prediction paths. */
bool
isMlModule(const std::string &path)
{
    return pathContains(path, "src/ml");
}

struct LineRule
{
    const char *id;
    const char *summary;
    const char *pattern;
    const char *message;
    bool headersOnly = false;
    bool (*zoneApplies)(Zone z) = nullptr; ///< null: src-like only
    bool (*exempt)(const std::string &path) = nullptr;
};

bool
anyZone(Zone)
{
    return true;
}

bool
srcOrBench(Zone z)
{
    return srcLike(z) || z == Zone::Bench;
}

const LineRule kLineRules[] = {
    {"raw-random",
     "raw randomness outside the seeded boreas::Rng",
     R"((\bstd::random_device\b|\bstd::mt19937|\bstd::default_random_engine\b|\bstd::minstd_rand|\buniform_int_distribution\b|\buniform_real_distribution\b|\brand\s*\(|\bsrand\s*\(|\bdrand48\s*\(|#\s*include\s*<random>))",
     "raw randomness outside src/common/rng; draw from the seeded "
     "boreas::Rng instead",
     false, srcOrBench, isRngModule},
    {"unordered-container",
     "unordered containers iterate in implementation-defined order",
     R"(\bstd::unordered_(map|set|multimap|multiset)\b)",
     "unordered containers iterate in implementation-defined order "
     "(breaks ordered output / FP-sum determinism); use std::map or "
     "std::vector, or justify a never-iterated use with an allow()",
     false, anyZone, nullptr},
    {"direct-stdio",
     "direct stdio outside src/common/logging",
     R"((\bstd::cout\b|\bstd::cerr\b|(?:^|[^\w:.>])printf\s*\(|\bputs\s*\(|\bputchar\s*\(|\bfprintf\s*\(\s*(?:stdout|stderr)\b))",
     "direct stdio outside src/common/logging; use boreas_inform / "
     "boreas_warn / boreas_panic / boreas_fatal",
     false, nullptr, isLoggingModule},
    {"raw-file-output",
     "file output outside the designated artifact sinks",
     R"((\bstd::ofstream\b|\bstd::fstream\b|\bstd::filebuf\b|(^|[^\w:.>])fopen\s*\(|(^|[^\w:.>])freopen\s*\())",
     "file output outside the designated sinks (src/obs/export, "
     "src/workload/trace_io); route artifacts through them so "
     "every file the simulator writes has one auditable schema",
     false, nullptr, isFileSink},
    {"workload-spec-construction",
     "WorkloadSpec constructed outside the source registry",
     R"(\bWorkloadSpec\s*\{|\bWorkloadSpec\s+\w+\s*(;|=|\{)|\bmake_unique\s*<\s*[\w:]*WorkloadSpec\b|(^|[^\w.:>])new\s+[\w:]*WorkloadSpec\b|\bvector\s*<\s*[\w:]*WorkloadSpec\s*>)",
     "WorkloadSpec constructed outside src/workload; obtain "
     "workloads through the source registry "
     "(workload/registry.hh) or the suite accessors so every "
     "stimulus is a named, registered source",
     false, srcOrBench, isWorkloadModule},
    {"workload-spec-mention",
     "WorkloadSpec named in src/ outside src/workload",
     R"(\bWorkloadSpec\b)",
     "WorkloadSpec named outside src/workload; run, sweep, dataset "
     "and training APIs take WorkloadSource only, so wrap suite "
     "programs at the call site (makeSyntheticSource / wrapSpecs in "
     "workload/registry.hh)",
     false, nullptr, isWorkloadModule},
    {"flat-gbt-predict",
     "per-tree GBT walking outside src/ml",
     R"(\bGBTTree\b|\btrees\(\)\s*(\[|\.at\s*\())",
     "walking GBTTree nodes outside src/ml re-grows the "
     "pointer-chasing serving path; compile a FlatGBT "
     "(ml/gbt_flat.hh) and use predictOne/predictBatch, or "
     "justify a structural (non-predict) use with an allow()",
     false, nullptr, isMlModule},
    {"raw-new-delete",
     "raw new/delete expression",
     R"((^|[^\w.:>])new\s+[A-Za-z_(]|(^|[^\w.:>=]|[^=] )delete\s*(\[\s*\])?\s+[A-Za-z_(*]|(^|[^\w.:>])delete\s+this\b)",
     "raw new/delete; own memory via containers or smart pointers",
     false, anyZone, nullptr},
    {"header-hygiene",
     "`using namespace` at header scope",
     R"(\busing\s+namespace\s)",
     "`using namespace` at header scope pollutes every includer",
     true, anyZone, nullptr},
};

void
checkLineRule(const LineRule &rule, const FileContext &ctx,
              std::vector<Violation> &out)
{
    if (rule.headersOnly && !ctx.header)
        return;
    const bool zone_ok =
        rule.zoneApplies ? rule.zoneApplies(ctx.zone)
                         : srcLike(ctx.zone);
    if (!zone_ok)
        return;
    if (rule.exempt && rule.exempt(ctx.path))
        return;
    static std::map<const LineRule *, std::regex> cache;
    auto it = cache.find(&rule);
    if (it == cache.end())
        it = cache.emplace(&rule, std::regex(rule.pattern)).first;
    const std::regex &re = it->second;
    const auto &lines = ctx.lexed.lines;
    for (size_t i = 0; i < lines.size(); ++i) {
        if (!std::regex_search(lines[i].code, re))
            continue;
        if (allows(ctx, i, rule.id))
            continue;
        // `= delete` / `= delete("...")` declarations and
        // user-declared operator delete are not raw deallocation.
        if (std::string(rule.id) == "raw-new-delete" &&
            std::regex_search(
                lines[i].code,
                std::regex(
                    R"((=\s*delete\b|operator\s+(new|delete)))")) &&
            !std::regex_search(lines[i].code,
                               std::regex(R"(delete\s+this\b)")))
            continue;
        out.push_back({ctx.path, static_cast<int>(i + 1), rule.id,
                       rule.message});
    }
}

/**
 * Include arguments are string literals, which the lexer blanks, so
 * this rule reads the directives the lexer re-parsed from raw lines.
 */
void
checkIncludeStyle(const FileContext &ctx, std::vector<Violation> &out)
{
    for (const IncludeDirective &inc : ctx.lexed.includes) {
        const size_t i = static_cast<size_t>(inc.line - 1);
        if (allows(ctx, i, "include-style"))
            continue;
        std::string why;
        if (inc.path.find("..") != std::string::npos)
            why = "contains '..'";
        else if (!inc.path.empty() && inc.path[0] == '/')
            why = "is absolute";
        else if (inc.kind == '<' && inc.path.rfind("boreas/", 0) == 0)
            why = "uses <boreas/...> for a repo header (quote it)";
        else if (inc.kind == '"' &&
                 (endsWith(inc.path, ".cc") ||
                  endsWith(inc.path, ".cpp")))
            why = "includes a source file";
        if (!why.empty()) {
            out.push_back({ctx.path, inc.line, "include-style",
                           "#include \"" + inc.path + "\" " + why});
        }
    }
}

void
checkHeaderGuard(const FileContext &ctx, std::vector<Violation> &out)
{
    if (!ctx.header)
        return;
    bool pragma_once = false;
    int guard_line = 0;
    static const std::regex kGuard(R"(^\s*#\s*ifndef\s+\w*_HH?\b)");
    for (size_t i = 0; i < ctx.lexed.lines.size(); ++i) {
        const std::string &code = ctx.lexed.lines[i].code;
        if (code.find("#pragma once") != std::string::npos)
            pragma_once = true;
        if (guard_line == 0 && std::regex_search(code, kGuard))
            guard_line = static_cast<int>(i + 1);
    }
    if (!pragma_once) {
        if (!allows(ctx, 0, "header-guard"))
            out.push_back({ctx.path, 1, "header-guard",
                           "header lacks #pragma once"});
    } else if (guard_line != 0) {
        if (!allows(ctx, static_cast<size_t>(guard_line - 1),
                    "header-guard"))
            out.push_back({ctx.path, guard_line, "header-guard",
                           "legacy #ifndef include guard alongside "
                           "#pragma once"});
    }
}

} // namespace

void
registerStyleRules(std::vector<Rule> &out)
{
    for (const LineRule &rule : kLineRules) {
        out.push_back({rule.id, rule.summary,
                       [&rule](const FileContext &ctx,
                               std::vector<Violation> &v) {
                           checkLineRule(rule, ctx, v);
                       }});
    }
    out.push_back({"include-style",
                   "quoted includes must be repo-relative",
                   [](const FileContext &ctx,
                      std::vector<Violation> &v) {
                       checkIncludeStyle(ctx, v);
                   }});
    out.push_back({"header-guard",
                   "headers use #pragma once (no legacy guards)",
                   [](const FileContext &ctx,
                      std::vector<Violation> &v) {
                       checkHeaderGuard(ctx, v);
                   }});
}

} // namespace boreas::lint
