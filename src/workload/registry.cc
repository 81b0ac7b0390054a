#include "workload/registry.hh"

#include <cstdlib>
#include <cstring>

#include "common/logging.hh"
#include "workload/adversarial.hh"
#include "workload/mix.hh"
#include "workload/nas.hh"
#include "workload/spec2006.hh"
#include "workload/synthetic.hh"
#include "workload/trace_io.hh"

namespace boreas
{

namespace
{

bool
setError(std::string *error, const std::string &message)
{
    if (error)
        *error = message;
    return false;
}

/** Non-panicking suite lookup: spec2006 first, then nas. Returns the
 *  canonical family ("spec2006"/"nas") through *family. */
const WorkloadSpec *
lookupProgram(const std::string &name, std::string *family)
{
    for (const WorkloadSpec &spec : spec2006Suite()) {
        if (spec.name == name) {
            if (family)
                *family = "spec2006";
            return &spec;
        }
    }
    for (const WorkloadSpec &spec : nasSuite()) {
        if (spec.name == name) {
            if (family)
                *family = "nas";
            return &spec;
        }
    }
    return nullptr;
}

std::unique_ptr<WorkloadSource>
makeSynthetic(const std::string &rest, std::string *error)
{
    const size_t slash = rest.find('/');
    if (slash == std::string::npos) {
        setError(error, "synthetic: expects <family>/<name>, got '" +
                            rest + "'");
        return nullptr;
    }
    const std::string family = rest.substr(0, slash);
    const std::string name = rest.substr(slash + 1);
    const std::vector<WorkloadSpec> *suite = nullptr;
    if (family == "spec2006")
        suite = &spec2006Suite();
    else if (family == "nas")
        suite = &nasSuite();
    else {
        setError(error, "unknown synthetic family '" + family +
                            "' (expected spec2006 or nas)");
        return nullptr;
    }
    for (const WorkloadSpec &spec : *suite) {
        if (spec.name == name) {
            return std::make_unique<SyntheticSource>(
                "synthetic:" + family + "/" + name, spec);
        }
    }
    setError(error, "no workload '" + name + "' in synthetic:" +
                        family);
    return nullptr;
}

/** Strict nonnegative double parse for mix option values. */
bool
parseNonnegative(const std::string &value, double *out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end != value.c_str() + value.size() || !(v >= 0.0))
        return false;
    *out = v;
    return true;
}

std::unique_ptr<WorkloadSource>
makeMix(const std::string &spec_string, const std::string &rest,
        std::string *error)
{
    // Everything before the first '@' names the programs; each
    // following '@key=value' is one option. Options compose and may
    // appear at most once each (rfind('@') used to hard-code exactly
    // one option, so 'mix:a+b@stagger=1@stagger=2' mis-parsed the
    // first option as part of a program name).
    const size_t first_at = rest.find('@');
    const std::string programs_part = rest.substr(0, first_at);
    Seconds stagger = 0.0;
    double scale = 1.0;
    bool have_stagger = false;
    bool have_scale = false;
    size_t opt_pos = first_at;
    while (opt_pos != std::string::npos) {
        const size_t next = rest.find('@', opt_pos + 1);
        const std::string option = rest.substr(
            opt_pos + 1,
            next == std::string::npos ? std::string::npos
                                      : next - opt_pos - 1);
        const size_t eq = option.find('=');
        const std::string key = option.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : option.substr(eq + 1);
        if (option.empty()) {
            setError(error, "empty mix option in '" + rest +
                                "' (dangling '@')");
            return nullptr;
        }
        if (key == "stagger") {
            if (have_stagger) {
                setError(error, "duplicate mix option 'stagger' in '" +
                                    rest + "'");
                return nullptr;
            }
            if (!parseNonnegative(value, &stagger)) {
                setError(error, "bad mix stagger '" + value +
                                    "' (expected a nonnegative number "
                                    "of seconds)");
                return nullptr;
            }
            have_stagger = true;
        } else if (key == "scale") {
            if (have_scale) {
                setError(error, "duplicate mix option 'scale' in '" +
                                    rest + "'");
                return nullptr;
            }
            if (!parseNonnegative(value, &scale) || scale <= 0.0) {
                setError(error, "bad mix scale '" + value +
                                    "' (expected a positive intensity "
                                    "multiplier)");
                return nullptr;
            }
            have_scale = true;
        } else {
            setError(error, "unknown mix option '@" + key +
                                "' (expected @stagger=<seconds> or "
                                "@scale=<mult>)");
            return nullptr;
        }
        opt_pos = next;
    }

    std::vector<MixProgram> programs;
    size_t pos = 0;
    while (pos <= programs_part.size()) {
        const size_t plus = programs_part.find('+', pos);
        const std::string name = programs_part.substr(
            pos, plus == std::string::npos ? std::string::npos
                                           : plus - pos);
        if (name.empty()) {
            setError(error, "empty program name in mix '" +
                                programs_part + "'");
            return nullptr;
        }
        const WorkloadSpec *spec = lookupProgram(name, nullptr);
        if (!spec) {
            setError(error, "mix program '" + name +
                                "' is not a spec2006 or nas workload");
            return nullptr;
        }
        MixProgram program{
            *spec, stagger * static_cast<double>(programs.size())};
        program.spec.thermalScale *= scale;
        programs.push_back(std::move(program));
        if (plus == std::string::npos)
            break;
        pos = plus + 1;
    }
    if (programs.empty()) {
        setError(error, "mix: names no programs");
        return nullptr;
    }
    return std::make_unique<MixSource>(spec_string,
                                       std::move(programs));
}

} // namespace

std::unique_ptr<WorkloadSource>
tryMakeWorkloadSource(const std::string &spec_string,
                      std::string *error)
{
    if (spec_string.empty()) {
        setError(error, "empty workload source spec");
        return nullptr;
    }
    const size_t colon = spec_string.find(':');
    if (colon == std::string::npos) {
        // Bare-name shorthand for a suite program.
        std::string family;
        const WorkloadSpec *spec = lookupProgram(spec_string, &family);
        if (!spec) {
            setError(error, "unknown workload '" + spec_string +
                                "' (try synthetic:spec2006/<name>, "
                                "synthetic:nas/<name>, mix:..., "
                                "adversarial:..., trace:<path>)");
            return nullptr;
        }
        return std::make_unique<SyntheticSource>(
            "synthetic:" + family + "/" + spec_string, *spec);
    }

    const std::string scheme = spec_string.substr(0, colon);
    const std::string rest = spec_string.substr(colon + 1);
    if (rest.empty()) {
        setError(error, "source spec '" + spec_string +
                            "' names no target after the scheme");
        return nullptr;
    }
    if (scheme == "synthetic")
        return makeSynthetic(rest, error);
    if (scheme == "mix")
        return makeMix(spec_string, rest, error);
    if (scheme == "adversarial") {
        for (const std::string &scenario : adversarialScenarios()) {
            if (scenario == rest)
                return makeAdversarialSource(rest);
        }
        setError(error, "unknown adversarial scenario '" + rest +
                            "' (expected powervirus, corehop, "
                            "ambientramp or ambientsweep)");
        return nullptr;
    }
    if (scheme == "trace") {
        TraceData data;
        std::string trace_error;
        if (!tryLoadTraceFile(rest, &data, &trace_error)) {
            setError(error, trace_error);
            return nullptr;
        }
        return std::make_unique<TraceSource>(std::move(data));
    }
    setError(error, "unknown source scheme '" + scheme +
                        ":' (expected synthetic, mix, adversarial or "
                        "trace)");
    return nullptr;
}

std::unique_ptr<WorkloadSource>
makeWorkloadSource(const std::string &spec_string)
{
    std::string error;
    auto source = tryMakeWorkloadSource(spec_string, &error);
    if (!source)
        boreas_fatal("bad workload source '%s': %s",
                     spec_string.c_str(), error.c_str());
    return source;
}

std::unique_ptr<WorkloadSource>
makeSyntheticSource(const WorkloadSpec &spec)
{
    return std::make_unique<SyntheticSource>(spec.name, spec);
}

void
SourceSet::add(std::unique_ptr<WorkloadSource> source)
{
    sources.push_back(source.get());
    owned.push_back(std::move(source));
}

SourceSet
wrapSpecs(const std::vector<const WorkloadSpec *> &specs)
{
    SourceSet set;
    for (const WorkloadSpec *spec : specs)
        set.add(makeSyntheticSource(*spec));
    return set;
}

const std::string &
workloadSourceGrammar()
{
    static const std::string kGrammar =
        "  synthetic:spec2006/<name>  one SPEC CPU2006 phase program\n"
        "  synthetic:nas/<name>       one NAS program (e.g. nas/cg.B)\n"
        "  mix:<a>+<b>[@stagger=<s>][@scale=<m>]\n"
        "                             co-scheduled per-core programs\n"
        "  adversarial:<scenario>     powervirus|corehop|ambientramp|"
        "ambientsweep\n"
        "  trace:<path>               replay a boreas-trace-v1 file\n"
        "  <name>                     shorthand for a suite program\n";
    return kGrammar;
}

std::vector<std::string>
splitWorkloadSpecList(const std::string &list)
{
    std::vector<std::string> out;
    size_t pos = 0;
    while (pos <= list.size()) {
        const size_t comma = list.find(',', pos);
        out.push_back(list.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos));
        if (comma == std::string::npos)
            break;
        pos = comma + 1;
    }
    return out;
}

} // namespace boreas
