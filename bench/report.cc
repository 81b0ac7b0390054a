#include "report.hh"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/dct.hh"
#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/stats.hh"
#include "harness.hh"
#include "obs/trace.hh"

namespace boreas::bench
{

namespace
{

const char *
scaleName(Scale scale)
{
    switch (scale) {
    case Scale::Small:
        return "small";
    case Scale::Paper:
        return "paper";
    case Scale::Full:
        break;
    }
    return "full";
}

/** The first "model name" of /proc/cpuinfo; "" when unreadable. */
std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) != 0)
            continue;
        const size_t colon = line.find(':');
        if (colon == std::string::npos)
            return "";
        const size_t begin = line.find_first_not_of(" \t", colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
    }
    return "";
}

} // namespace

LatencySummary
summarizeLatency(const std::vector<double> &samples_ns)
{
    LatencySummary s;
    s.samples = samples_ns.size();
    s.meanNs = mean(samples_ns);
    s.p50Ns = percentile(samples_ns, 50.0);
    s.p99Ns = percentile(samples_ns, 99.0);
    return s;
}

BenchReport::BenchReport(std::string id) : id_(std::move(id))
{
    tracing_ = std::getenv("BOREAS_TRACE") != nullptr;
    obs::MetricsRegistry::global().setEnabled(true);
    obs::MetricsRegistry::global().reset();
    obs::TraceBuffer::global().setEnabled(tracing_);
    obs::TraceBuffer::global().clear();

    artifact_.manifest.experiment = id_;
    artifact_.manifest.scale = scaleName(benchScale());
    artifact_.manifest.threads = ThreadPool::global().numThreads();
    artifact_.manifest.seed = kBenchSeed;
    artifact_.manifest.simdDispatch = Dct2Plan::dispatchedClone();
    artifact_.manifest.cpuModel = cpuModel();
    t0_ = std::chrono::steady_clock::now();
}

BenchReport::~BenchReport()
{
    if (!written_)
        write();
}

void
BenchReport::config(const std::string &key, std::string value)
{
    artifact_.manifest.addConfig(key, std::move(value));
}

void
BenchReport::config(const std::string &key, double value)
{
    std::ostringstream oss;
    oss.precision(12);
    oss << value;
    artifact_.manifest.addConfig(key, oss.str());
}

void
BenchReport::seed(uint64_t value)
{
    artifact_.manifest.seed = value;
}

void
BenchReport::runHash(uint64_t value)
{
    artifact_.manifest.runHash = value;
    artifact_.manifest.hasRunHash = true;
}

void
BenchReport::workloadSource(const std::string &spec_string)
{
    artifact_.manifest.workloadSource = spec_string;
}

void
BenchReport::predictEngine(const std::string &name)
{
    artifact_.manifest.predictEngine = name;
}

void
BenchReport::fleetDies(int dies)
{
    artifact_.manifest.fleetDies = dies;
}

void
BenchReport::traceChecksum(uint64_t value)
{
    artifact_.manifest.traceChecksum = value;
    artifact_.manifest.hasTraceChecksum = true;
}

void
BenchReport::comparison(std::string quantity, std::string paper,
                        std::string measured)
{
    artifact_.comparisons.push_back({std::move(quantity),
                                     std::move(paper),
                                     std::move(measured)});
}

void
BenchReport::addTable(const std::string &name, const TextTable &table)
{
    obs::BenchSeries series;
    series.name = name;
    series.columns = table.header();
    series.rows = table.rows();
    artifact_.series.push_back(std::move(series));
}

void
BenchReport::addSeries(obs::BenchSeries series)
{
    artifact_.series.push_back(std::move(series));
}

void
BenchReport::latency(const std::string &benchmark,
                     const LatencySummary &summary)
{
    if (latency_.columns.empty()) {
        latency_.name = "latency";
        latency_.columns = {"benchmark", "samples", "mean_ns",
                            "p50_ns", "p99_ns"};
    }
    std::ostringstream samples, mean_ns, p50, p99;
    samples << summary.samples;
    mean_ns.precision(6);
    mean_ns << summary.meanNs;
    p50.precision(6);
    p50 << summary.p50Ns;
    p99.precision(6);
    p99 << summary.p99Ns;
    latency_.rows.push_back({benchmark, samples.str(), mean_ns.str(),
                             p50.str(), p99.str()});
}

bool
BenchReport::write()
{
    written_ = true;
    if (!latency_.rows.empty()) {
        artifact_.series.push_back(latency_);
        latency_.rows.clear();
    }
    artifact_.manifest.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0_)
            .count();
    artifact_.metrics = obs::MetricsRegistry::global().snapshot();

    const std::string path = obs::benchArtifactFileName(id_);
    bool ok = obs::writeBenchArtifactFile(artifact_, path);
    if (ok)
        boreas_inform("wrote %s", path.c_str());
    else
        boreas_warn("could not write %s", path.c_str());

    if (tracing_) {
        const std::string trace_path = "TRACE_" + id_ + ".json";
        if (obs::writeTraceFile(trace_path))
            boreas_inform("wrote %s (%zu events)", trace_path.c_str(),
                          obs::TraceBuffer::global().eventCount());
        else
            ok = false;
    }
    return ok;
}

} // namespace boreas::bench
