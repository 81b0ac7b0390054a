/**
 * @file
 * CLI for the Boreas repo linter (see tools/lint/linter.hh for the
 * rule set and suppression syntax). Usage:
 *
 *   boreas_lint [options] <file-or-dir>...
 *
 *   --repo-root DIR        report repo-relative paths and run the
 *                          include-graph pass (layering + cycles)
 *   --sarif FILE           also write findings as SARIF 2.1.0
 *
 * Prints one "file:line: [rule] message" per violation and exits
 * nonzero if any were found. Registered as the
 * `boreas_lint` ctest check over the whole repo.
 */

#include <chrono> // boreas-lint: allow(wall-clock)
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/linter.hh"
#include "lint/sarif.hh"

namespace
{

bool
writeFile(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary);
    out << content;
    return static_cast<bool>(out);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--repo-root DIR] [--sarif FILE] "
                 "<file-or-dir>...\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    // CLI self-timing for the CI job summary; nothing downstream
    // consumes it. boreas-lint: allow(wall-clock)
    const auto t0 = std::chrono::steady_clock::now();

    std::string repo_root, sarif_path;
    std::vector<std::string> roots;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--repo-root") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            repo_root = v;
        } else if (arg == "--sarif") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            sarif_path = v;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            roots.push_back(arg);
        }
    }
    if (roots.empty())
        return usage(argv[0]);

    boreas::lint::TreeLintOptions opts;
    opts.repoRoot = repo_root;
    opts.includeGraph = !repo_root.empty();
    const boreas::lint::TreeLintResult result =
        boreas::lint::lintTree(roots, opts);

    const std::vector<boreas::lint::Violation> &violations =
        result.violations;
    if (!sarif_path.empty() &&
        !writeFile(sarif_path, boreas::lint::toSarif(violations))) {
        std::fprintf(stderr, "boreas_lint: cannot write %s\n",
                     sarif_path.c_str());
        return 2;
    }

    for (const auto &v : violations)
        std::fprintf(stderr, "%s\n", boreas::lint::format(v).c_str());

    // boreas-lint: allow(wall-clock)
    const auto elapsed = std::chrono::steady_clock::now() - t0;
    const double ms =
        std::chrono::duration<double, std::milli>(elapsed).count();
    if (!violations.empty()) {
        std::fprintf(stderr,
                     "boreas_lint: %zu violation(s) in %d file(s) "
                     "[%.0f ms]\n",
                     violations.size(), result.filesScanned, ms);
        return 1;
    }
    std::printf("boreas_lint: clean (%d files, %.0f ms)\n",
                result.filesScanned, ms);
    return 0;
}
