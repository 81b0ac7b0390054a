/**
 * The repo linter's own tests: every rule must fire on its fixture
 * file under tests/lint_fixtures/ and stay silent on clean code
 * (including the src/common/rng and src/common/logging exemptions and
 * the inline allow() markers), plus the repo-level passes — layering
 * DAG, include cycles — and the SARIF reporting layer.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/linter.hh"
#include "lint/sarif.hh"

using boreas::lint::TreeLintOptions;
using boreas::lint::Violation;
using boreas::lint::lintContent;
using boreas::lint::lintPath;
using boreas::lint::lintTree;

namespace
{

std::string
fixtureDir()
{
    return std::string(BOREAS_LINT_FIXTURES);
}

std::vector<Violation>
lintFixture(const std::string &name)
{
    return lintPath(fixtureDir() + "/" + name);
}

int
countRule(const std::vector<Violation> &vs, const std::string &rule)
{
    return static_cast<int>(
        std::count_if(vs.begin(), vs.end(), [&](const Violation &v) {
            return v.rule == rule;
        }));
}

bool
firesOnLine(const std::vector<Violation> &vs, const std::string &rule,
            int line)
{
    return std::any_of(vs.begin(), vs.end(), [&](const Violation &v) {
        return v.rule == rule && v.line == line;
    });
}

/** Materialize a throwaway repo tree for the include-graph pass.
 *  Each test runs as its own ctest process, so the directory is
 *  keyed by test name (and wiped first) to survive parallel runs. */
std::string
writeTree(const std::map<std::string, std::string> &files)
{
    namespace fs = std::filesystem;
    const auto *info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    std::string key = std::string(info->test_suite_name()) + "_" +
        info->name();
    const fs::path root =
        fs::path(::testing::TempDir()) / ("boreas_lint_" + key);
    fs::remove_all(root);
    for (const auto &[rel, text] : files) {
        const fs::path p = root / rel;
        fs::create_directories(p.parent_path());
        std::ofstream(p) << text;
    }
    return root.string();
}

std::vector<Violation>
lintWholeTree(const std::string &root)
{
    TreeLintOptions opts;
    opts.repoRoot = root;
    std::vector<std::string> roots;
    for (const char *sub : {"src", "bench", "tests", "tools"}) {
        if (std::filesystem::is_directory(root + "/" + sub))
            roots.push_back(root + "/" + sub);
    }
    return lintTree(roots, opts).violations;
}

} // namespace

TEST(Lint, RawRandomFires)
{
    const auto vs = lintFixture("bad_random.cc");
    EXPECT_EQ(countRule(vs, "raw-random"), 4) << "include <random>, "
        "random_device, mt19937 and rand() should each fire";
    for (const auto &v : vs)
        EXPECT_EQ(v.rule, "raw-random");
}

TEST(Lint, RawRandomExemptInRngModule)
{
    const std::string body = "#include <random>\n"
                             "int f() { return rand(); }\n";
    EXPECT_TRUE(lintContent("src/common/rng.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/ml/kmeans.cc", body),
                        "raw-random"), 2);
}

TEST(Lint, UnorderedContainerFiresAndAllowSuppresses)
{
    const auto vs = lintFixture("bad_unordered.cc");
    EXPECT_EQ(countRule(vs, "unordered-container"), 1)
        << "the declaration fires; the allow() line must not";
}

TEST(Lint, DirectStdioFires)
{
    const auto vs = lintFixture("bad_stdio.cc");
    EXPECT_EQ(countRule(vs, "direct-stdio"), 5)
        << "cout, cerr, printf, puts and fprintf(stderr each fire; "
        "comment/string mentions must not";
}

TEST(Lint, DirectStdioExemptInLoggingModule)
{
    const std::string body = "void f() { std::cerr << 1; }\n";
    EXPECT_TRUE(lintContent("src/common/logging.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/thermal/thermal_grid.cc", body),
                        "direct-stdio"), 1);
}

TEST(Lint, RawFileOutputFires)
{
    const auto vs = lintFixture("bad_file_output.cc");
    EXPECT_EQ(countRule(vs, "raw-file-output"), 4)
        << "ofstream, fstream, fopen and freopen each fire; the "
        "allow() line and comment/string mentions must not";
}

TEST(Lint, RawFileOutputExemptInExportSink)
{
    const std::string body = "#include <fstream>\n"
                             "std::ofstream out(\"BENCH_x.json\");\n";
    EXPECT_TRUE(lintContent("src/obs/export.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/boreas/pipeline.cc", body),
                        "raw-file-output"), 1);
}

TEST(Lint, RawFileOutputExemptInTraceSerializer)
{
    // The boreas-trace-v1 serializer is the second designated file
    // sink (workload/trace_io); everything else in src/workload still
    // fires.
    const std::string body = "#include <fstream>\n"
                             "std::ofstream out(\"run.trace\");\n";
    EXPECT_TRUE(lintContent("src/workload/trace_io.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/workload/registry.cc", body),
                        "raw-file-output"), 1);
}

TEST(Lint, WorkloadSpecConstructionFires)
{
    const auto vs = lintFixture("bad_workload_spec.cc");
    EXPECT_EQ(countRule(vs, "workload-spec-construction"), 4)
        << "declaration, braced temporary, make_unique and owning "
        "vector each fire; references, pointers, the allow() line and "
        "comment/string mentions must not";
    EXPECT_EQ(countRule(vs, "workload-spec-mention"), 9)
        << "the eight construction and view lines plus the spec "
        "overload each fire; its allow() line and comment/string "
        "mentions must not";
    EXPECT_TRUE(firesOnLine(vs, "workload-spec-mention", 64));
    EXPECT_FALSE(firesOnLine(vs, "workload-spec-mention", 67));
}

TEST(Lint, WorkloadSpecConstructionExemptInWorkloadModule)
{
    const std::string body = "#include \"workload/workload.hh\"\n"
                             "void f() { boreas::WorkloadSpec spec; }\n";
    EXPECT_TRUE(lintContent("src/workload/spec2006.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/control/controller.cc", body),
                        "workload-spec-construction"), 1);

    // Naming the type is held to src/ only: the workload module owns
    // it, and bench/ and tests/ wrap suite programs into sources.
    const std::string overload =
        "void run(const boreas::WorkloadSpec &spec);\n";
    EXPECT_EQ(countRule(lintContent("src/boreas/pipeline.cc", overload),
                        "workload-spec-mention"), 1);
    EXPECT_TRUE(lintContent("src/workload/registry.cc", overload).empty());
    EXPECT_TRUE(lintContent("bench/harness.cc", overload).empty());
}

TEST(Lint, RawNewDeleteFires)
{
    const auto vs = lintFixture("bad_new_delete.cc");
    EXPECT_EQ(countRule(vs, "raw-new-delete"), 4)
        << "new, new[], delete and delete[] each fire; '= delete' "
        "declarations must not";
}

TEST(Lint, FlatGbtPredictFires)
{
    const auto vs = lintFixture("bad_gbt_predict.cc");
    EXPECT_EQ(countRule(vs, "flat-gbt-predict"), 2)
        << "the GBTTree mention and the trees()[] walk each fire; "
        "the allow()ed trees().at() must not";
}

TEST(Lint, FlatGbtPredictExemptInMlModule)
{
    // The ML library implements both prediction paths; everywhere
    // else in src-like zones the rule points callers at the flat
    // engine. Tests and benches (reference/differential users by
    // design) are outside the rule's zone entirely.
    const std::string body =
        "#include \"ml/gbt.hh\"\n"
        "double f(const boreas::GBTTree &t, const double *x)\n"
        "{ return t.predict(x); }\n";
    EXPECT_TRUE(lintContent("src/ml/gbt_flat.cc", body).empty());
    EXPECT_EQ(countRule(lintContent("src/control/controller.cc", body),
                        "flat-gbt-predict"), 1);
    EXPECT_EQ(countRule(lintContent("tests/test_gbt.cc", body),
                        "flat-gbt-predict"), 0);
    EXPECT_EQ(countRule(lintContent("bench/micro_latency.cc", body),
                        "flat-gbt-predict"), 0);
}

TEST(Lint, HeaderMissingPragmaOnceFires)
{
    const auto vs = lintFixture("bad_header.hh");
    EXPECT_EQ(countRule(vs, "header-guard"), 1);
    EXPECT_EQ(countRule(vs, "header-hygiene"), 1)
        << "'using namespace' at header scope";
}

TEST(Lint, LegacyGuardNextToPragmaOnceFires)
{
    const auto vs = lintFixture("bad_legacy_guard.hh");
    EXPECT_EQ(countRule(vs, "header-guard"), 1);
    EXPECT_TRUE(firesOnLine(vs, "header-guard", 4));
}

TEST(Lint, IncludeStyleFires)
{
    const auto vs = lintFixture("bad_include.cc");
    EXPECT_EQ(countRule(vs, "include-style"), 3)
        << "'..' path, <boreas/...> form and .cc include each fire";
}

TEST(Lint, CleanFixturePasses)
{
    const auto vs = lintFixture("clean.hh");
    for (const auto &v : vs)
        ADD_FAILURE() << boreas::lint::format(v);
}

TEST(Lint, CleanSpectralIdiomsPass)
{
    // The spectral fast path introduced function multi-versioning
    // attributes, endpoint-precision member templates and generic
    // lambdas; none of them may trip a rule.
    const auto vs = lintFixture("clean_spectral.hh");
    for (const auto &v : vs)
        ADD_FAILURE() << boreas::lint::format(v);
}

TEST(Lint, CommentedAndQuotedCodeIsIgnored)
{
    const std::string body =
        "#pragma once\n"
        "// int *p = new int; delete p; std::cout << rand();\n"
        "/* std::unordered_map<int,int> m; */\n"
        "inline const char *s = \"new delete printf( std::cout\";\n";
    EXPECT_TRUE(lintContent("src/common/types.hh", body).empty());
}

TEST(Lint, DigitSeparatorsAreNotCharLiterals)
{
    // 1'000'000 must not open a char literal and swallow real code.
    const std::string body = "#pragma once\n"
                             "inline long x = 1'000'000;\n"
                             "inline int *p = new int;\n";
    EXPECT_EQ(countRule(lintContent("src/common/types.hh", body),
                        "raw-new-delete"), 1);
}

TEST(Lint, DeleteThisFires)
{
    const std::string body = "#pragma once\n"
                             "struct S { void f() { delete this; } };\n";
    EXPECT_EQ(countRule(lintContent("src/common/types.hh", body),
                        "raw-new-delete"), 1);
}

TEST(Lint, WholeSrcTreeIsClean)
{
    // The acceptance gate, duplicated here so a plain `ctest -R Lint`
    // catches regressions even without the boreas_lint binary check.
    const auto vs = lintPath(std::string(BOREAS_SRC_DIR));
    for (const auto &v : vs)
        ADD_FAILURE() << boreas::lint::format(v);
}

// ------------------------------------------------------------------ //
// Lexer regressions
// ------------------------------------------------------------------ //

TEST(LintLexer, RawStringContentsNeverFire)
{
    // The fixture packs rule-worthy text (stdio, rand(), new, an
    // include) inside raw strings; only the genuine new/delete at the
    // bottom may fire.
    const auto vs = lintFixture("raw_string.cc");
    EXPECT_EQ(countRule(vs, "raw-new-delete"), 2);
    EXPECT_EQ(static_cast<int>(vs.size()), 2)
        << "raw-string contents or the BAD_R\"y\" false prefix "
           "leaked into the scan";
    EXPECT_TRUE(firesOnLine(vs, "raw-new-delete", 28));
    EXPECT_TRUE(firesOnLine(vs, "raw-new-delete", 34));
}

TEST(LintLexer, FalseRawStringPrefixDoesNotSwallowFile)
{
    // Regression: the old scanner treated any 'R' before '"' as a raw
    // string and searched for '(' without bound, so everything after
    // a macro name ending in R went dark.
    const std::string body =
        "#define BAD_R(s) s\n"
        "inline const char *x = BAD_R\"y\";\n"
        "inline int *p = new int;\n";
    EXPECT_EQ(countRule(lintContent("src/common/types.hh", body),
                        "raw-new-delete"), 1);
}

TEST(LintLexer, UnterminatedRawStringBlanksToEof)
{
    const std::string body =
        "#pragma once\n"
        "inline const char *x = R\"(no close\n"
        "int *p = new int;\n";
    EXPECT_TRUE(lintContent("src/common/types.hh", body).empty());
}

// ------------------------------------------------------------------ //
// File-scope suppression
// ------------------------------------------------------------------ //

TEST(LintAllow, AllowFileSuppressesRuleFileWide)
{
    const std::string body =
        "// boreas-lint: allow-file(direct-stdio)\n"
        "void f() { std::cout << 1; }\n"
        "void g() { std::cerr << 2; }\n";
    EXPECT_TRUE(lintContent("src/common/table.cc", body).empty());
}

TEST(LintAllow, AllowFileOnlySuppressesNamedRule)
{
    const std::string body =
        "// boreas-lint: allow-file(direct-stdio)\n"
        "void f() { std::cout << 1; delete this; }\n";
    const auto vs = lintContent("src/common/table.cc", body);
    EXPECT_EQ(countRule(vs, "direct-stdio"), 0);
    EXPECT_EQ(countRule(vs, "raw-new-delete"), 1);
}

TEST(LintAllow, AllowFileIgnoredAfterFirstCodeLine)
{
    // The marker is only honored in the file header (the leading run
    // of comment/blank lines); mid-file markers must not suppress.
    const std::string body =
        "void f() { std::cout << 1; }\n"
        "// boreas-lint: allow-file(direct-stdio)\n"
        "void g() { std::cerr << 2; }\n";
    EXPECT_EQ(countRule(lintContent("src/common/table.cc", body),
                        "direct-stdio"), 2);
}

// ------------------------------------------------------------------ //
// Concurrency / determinism rules
// ------------------------------------------------------------------ //

TEST(LintParallel, CaptureMutationTruePositives)
{
    const auto vs = lintFixture("bad_parallel_capture.cc");
    EXPECT_EQ(countRule(vs, "parallel-fp-reduction"), 2)
        << "+= into a capture and x = x-referencing assignment";
    EXPECT_EQ(countRule(vs, "parallel-capture-mutation"), 1)
        << "++ on a captured counter";
    EXPECT_TRUE(firesOnLine(vs, "parallel-fp-reduction", 17));
    EXPECT_TRUE(firesOnLine(vs, "parallel-capture-mutation", 28));
    EXPECT_TRUE(firesOnLine(vs, "parallel-fp-reduction", 38));
}

TEST(LintParallel, SanctionedIdiomsDoNotFire)
{
    // Slot writes, body locals, atomics and by-value captures are the
    // repo's sanctioned parallel patterns; none may fire.
    const auto vs = lintFixture("clean_parallel.cc");
    for (const auto &v : vs)
        ADD_FAILURE() << boreas::lint::format(v);
}

TEST(LintConcurrency, MutableGlobalStateFires)
{
    const std::string body = "int counter = 0;\n";
    EXPECT_EQ(countRule(lintContent("src/ml/gbt.cc", body),
                        "mutable-global-state"), 1);
    // The pool singleton home is allowlisted.
    EXPECT_TRUE(lintContent("src/common/parallel.cc", body).empty());
    // Tests/bench/tools zones keep their freedom.
    EXPECT_TRUE(lintContent("tests/test_foo.cc", body).empty());
}

TEST(LintConcurrency, ConstAndSynchronizedStatePasses)
{
    const std::string body =
        "const int limit = 3;\n"
        "constexpr double kPi = 3.14;\n"
        "std::mutex m;\n"
        "std::atomic<int> hits{0};\n"
        "static std::once_flag once;\n";
    EXPECT_TRUE(lintContent("src/ml/gbt.cc", body).empty());
}

TEST(LintConcurrency, WallClockFires)
{
    const std::string body =
        "void f() { auto t = std::chrono::steady_clock::now(); }\n";
    EXPECT_EQ(countRule(lintContent("src/thermal/thermal_grid.cc",
                                    body), "wall-clock"), 1);
    EXPECT_EQ(countRule(lintContent("tools/probe.cc", body),
                        "wall-clock"), 1);
    // obs owns timing; bench exists to measure.
    EXPECT_TRUE(lintContent("src/obs/export.cc", body).empty());
    EXPECT_TRUE(lintContent("bench/bench_solver.cc", body).empty());
}

// ------------------------------------------------------------------ //
// Include-graph pass (layering DAG + cycles)
// ------------------------------------------------------------------ //

TEST(LintGraph, LayeringViolationAcrossSrcModules)
{
    // obs is declared std-only: an obs -> workload include is a DAG
    // breach even though both are src modules.
    const auto root = writeTree({
        {"src/obs/bad.cc", "#include \"workload/registry.hh\"\n"},
        {"src/workload/registry.hh", "#pragma once\n"},
    });
    const auto vs = lintWholeTree(root);
    EXPECT_EQ(countRule(vs, "layering"), 1);
    EXPECT_TRUE(firesOnLine(vs, "layering", 1));
}

TEST(LintGraph, SrcMayNeverIncludeBenchOrTests)
{
    const auto root = writeTree({
        {"src/common/helper.cc", "#include \"bench_util.hh\"\n"},
        {"bench/bench_util.hh", "#pragma once\n"},
    });
    EXPECT_EQ(countRule(lintWholeTree(root), "layering"), 1);
}

TEST(LintGraph, DeclaredEdgesAreAllowed)
{
    // common -> obs is the one sanctioned upward edge (pool
    // telemetry); sensors -> thermal is a declared physics edge.
    const auto root = writeTree({
        {"src/common/parallel.cc", "#include \"obs/metrics.hh\"\n"},
        {"src/obs/metrics.hh", "#pragma once\n"},
        {"src/sensors/sensor.cc",
         "#include \"thermal/thermal_grid.hh\"\n"},
        {"src/thermal/thermal_grid.hh",
         "#pragma once\n#include \"floorplan/floorplan.hh\"\n"},
        {"src/floorplan/floorplan.hh", "#pragma once\n"},
    });
    const auto vs = lintWholeTree(root);
    EXPECT_EQ(countRule(vs, "layering"), 0)
        << (vs.empty() ? "" : boreas::lint::format(vs.front()));
}

TEST(LintGraph, IncludeCycleDetected)
{
    const auto root = writeTree({
        {"src/common/a.hh", "#pragma once\n#include \"common/b.hh\"\n"},
        {"src/common/b.hh", "#pragma once\n#include \"common/a.hh\"\n"},
    });
    const auto vs = lintWholeTree(root);
    EXPECT_EQ(countRule(vs, "include-cycle"), 1)
        << "a two-header cycle reports exactly once";
}

TEST(LintGraph, AcyclicChainHasNoCycleFindings)
{
    const auto root = writeTree({
        {"src/common/a.hh", "#pragma once\n#include \"common/b.hh\"\n"},
        {"src/common/b.hh", "#pragma once\n#include \"common/c.hh\"\n"},
        {"src/common/c.hh", "#pragma once\n"},
    });
    EXPECT_EQ(countRule(lintWholeTree(root), "include-cycle"), 0);
}

// ------------------------------------------------------------------ //
// SARIF reporting
// ------------------------------------------------------------------ //

TEST(LintSarif, MatchesGoldenOutput)
{
    // Byte-exact against the checked-in golden log: SARIF output is
    // deterministic so CI uploads never churn.
    const std::vector<Violation> vs = {
        {"src/thermal/thermal_grid.cc", 42, "unordered-container",
         "example \"quoted\" finding"},
        {"src/obs/metrics.cc", 7, "layering",
         "include of src/workload/registry.hh crosses the layering "
         "DAG"},
    };
    std::ifstream in(fixtureDir() + "/golden.sarif",
                     std::ios::binary);
    ASSERT_TRUE(in) << "missing golden.sarif fixture";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(boreas::lint::toSarif(vs), golden.str());
}

TEST(LintSarif, EmptyRunIsWellFormed)
{
    const std::string sarif = boreas::lint::toSarif({});
    EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
    EXPECT_NE(sarif.find("\"results\": []"), std::string::npos);
}

TEST(LintSarif, EscapesControlAndQuoteCharacters)
{
    const std::vector<Violation> vs = {
        {"src/a.cc", 1, "direct-stdio", "say \"hi\"\tnow\n"}};
    const std::string sarif = boreas::lint::toSarif(vs);
    EXPECT_NE(sarif.find("say \\\"hi\\\"\\tnow\\n"),
              std::string::npos);
}

// ------------------------------------------------------------------ //
// The acceptance gate: the whole repo, full pipeline, no findings
// ------------------------------------------------------------------ //

TEST(LintRepo, WholeRepoPassesFullPipeline)
{
    TreeLintOptions opts;
    opts.repoRoot = BOREAS_REPO_DIR;
    const std::string root(BOREAS_REPO_DIR);
    const auto res =
        lintTree({root + "/src", root + "/bench", root + "/tools",
                  root + "/tests"},
                 opts);
    for (const auto &v : res.violations)
        ADD_FAILURE() << boreas::lint::format(v);
    EXPECT_GT(res.filesScanned, 100)
        << "the tree walk silently lost most of the repo";
}
