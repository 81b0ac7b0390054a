#include "obs/export.hh"

#include <cctype>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "obs/trace.hh"

namespace boreas::obs
{

namespace
{

/** JSON string escaping (control chars, quotes, backslash). */
std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\t':
            out += "\\t";
            break;
        case '\r':
            out += "\\r";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                std::ostringstream oss;
                oss << "\\u" << std::hex << std::setw(4)
                    << std::setfill('0') << static_cast<int>(c);
                out += oss.str();
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * True for plain decimal JSON numbers only: [-+]?digits[.digits][e±digits].
 * Hex ("0x1a"), inf/nan and unit-suffixed cells stay strings.
 */
bool
isPlainNumber(const std::string &s)
{
    size_t i = 0;
    if (i < s.size() && (s[i] == '-' || s[i] == '+'))
        ++i;
    size_t digits = 0;
    while (i < s.size() && std::isdigit(static_cast<unsigned char>(s[i]))) {
        ++i;
        ++digits;
    }
    if (i < s.size() && s[i] == '.') {
        ++i;
        while (i < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[i]))) {
            ++i;
            ++digits;
        }
    }
    if (digits == 0)
        return false;
    if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
        ++i;
        if (i < s.size() && (s[i] == '-' || s[i] == '+'))
            ++i;
        size_t exp_digits = 0;
        while (i < s.size() &&
               std::isdigit(static_cast<unsigned char>(s[i]))) {
            ++i;
            ++exp_digits;
        }
        if (exp_digits == 0)
            return false;
    }
    return i == s.size();
}

/** Emit a cell: JSON number when it parses as one, string otherwise.
 *  JSON has no leading '+', so "+5.7%"-style cells stay strings. */
void
emitCell(std::ostream &os, const std::string &cell)
{
    if (isPlainNumber(cell) && cell[0] != '+')
        os << cell;
    else
        os << '"' << escape(cell) << '"';
}

std::string
hexString(uint64_t v)
{
    std::ostringstream oss;
    oss << "0x" << std::hex << std::setw(16) << std::setfill('0') << v;
    return oss.str();
}

void
emitManifest(std::ostream &os, const RunManifest &m)
{
    os << "  \"manifest\": {\n"
       << "    \"experiment\": \"" << escape(m.experiment) << "\",\n"
       << "    \"scale\": \"" << escape(m.scale) << "\",\n"
       << "    \"threads\": " << m.threads << ",\n"
       << "    \"seed\": " << m.seed << ",\n";
    if (!m.workloadSource.empty())
        os << "    \"workload_source\": \"" << escape(m.workloadSource)
           << "\",\n";
    if (!m.predictEngine.empty())
        os << "    \"predict_engine\": \"" << escape(m.predictEngine)
           << "\",\n";
    if (!m.simdDispatch.empty())
        os << "    \"simd_dispatch\": \"" << escape(m.simdDispatch)
           << "\",\n";
    if (!m.cpuModel.empty())
        os << "    \"cpu_model\": \"" << escape(m.cpuModel) << "\",\n";
    if (m.hasTraceChecksum)
        os << "    \"trace_checksum\": \"" << hexString(m.traceChecksum)
           << "\",\n";
    if (m.hasRunHash)
        os << "    \"run_hash\": \"" << hexString(m.runHash) << "\",\n";
    if (m.fleetDies > 0)
        os << "    \"fleet_dies\": " << m.fleetDies << ",\n";
    os << "    \"wall_s\": " << m.wallSeconds << ",\n"
       << "    \"config\": {";
    bool first = true;
    for (const auto &[key, value] : m.config) {
        os << (first ? "\n" : ",\n") << "      \"" << escape(key)
           << "\": ";
        emitCell(os, value);
        first = false;
    }
    os << (first ? "" : "\n    ") << "}\n  }";
}

void
emitHistogram(std::ostream &os, const HistogramData &h)
{
    os << "{\"count\": " << h.count << ", \"total_us\": " << h.sum
       << ", \"mean_us\": " << h.mean() << ", \"min_us\": " << h.min
       << ", \"max_us\": " << h.max << ", \"buckets\": [";
    bool first = true;
    for (size_t b = 0; b < kHistogramBuckets; ++b) {
        if (h.buckets[b] == 0)
            continue;
        os << (first ? "" : ", ") << "["
           << HistogramData::bucketUpperBound(b) << ", "
           << h.buckets[b] << "]";
        first = false;
    }
    os << "]}";
}

} // namespace

std::string
benchArtifactFileName(const std::string &id)
{
    return "BENCH_" + id + ".json";
}

void
writeBenchArtifact(const BenchArtifact &artifact, std::ostream &os)
{
    const auto saved = os.precision(
        std::numeric_limits<double>::max_digits10);

    os << "{\n"
       << "  \"schema\": \"boreas-bench-v1\",\n"
       << "  \"id\": \"" << escape(artifact.manifest.experiment)
       << "\",\n";
    emitManifest(os, artifact.manifest);

    os << ",\n  \"paper_vs_measured\": [";
    for (size_t i = 0; i < artifact.comparisons.size(); ++i) {
        const BenchComparison &c = artifact.comparisons[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"quantity\": \""
           << escape(c.quantity) << "\", \"paper\": ";
        emitCell(os, c.paper);
        os << ", \"measured\": ";
        emitCell(os, c.measured);
        os << "}";
    }
    os << (artifact.comparisons.empty() ? "" : "\n  ") << "]";

    os << ",\n  \"series\": [";
    for (size_t i = 0; i < artifact.series.size(); ++i) {
        const BenchSeries &s = artifact.series[i];
        os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \""
           << escape(s.name) << "\",\n     \"columns\": [";
        for (size_t c = 0; c < s.columns.size(); ++c) {
            os << (c == 0 ? "" : ", ") << '"' << escape(s.columns[c])
               << '"';
        }
        os << "],\n     \"rows\": [";
        for (size_t r = 0; r < s.rows.size(); ++r) {
            os << (r == 0 ? "\n" : ",\n") << "       [";
            for (size_t c = 0; c < s.rows[r].size(); ++c) {
                os << (c == 0 ? "" : ", ");
                emitCell(os, s.rows[r][c]);
            }
            os << "]";
        }
        os << (s.rows.empty() ? "" : "\n     ") << "]}";
    }
    os << (artifact.series.empty() ? "" : "\n  ") << "]";

    os << ",\n  \"timings\": {";
    {
        bool first = true;
        for (const auto &[name, h] : artifact.metrics.histograms) {
            os << (first ? "\n" : ",\n") << "    \"" << escape(name)
               << "\": ";
            emitHistogram(os, h);
            first = false;
        }
        os << (first ? "" : "\n  ") << "}";
    }

    os << ",\n  \"counters\": {";
    {
        bool first = true;
        for (const auto &[name, v] : artifact.metrics.counters) {
            os << (first ? "\n" : ",\n") << "    \"" << escape(name)
               << "\": " << v;
            first = false;
        }
        os << (first ? "" : "\n  ") << "}";
    }

    os << ",\n  \"gauges\": {";
    {
        bool first = true;
        for (const auto &[name, v] : artifact.metrics.gauges) {
            os << (first ? "\n" : ",\n") << "    \"" << escape(name)
               << "\": " << v;
            first = false;
        }
        os << (first ? "" : "\n  ") << "}";
    }

    os << "\n}\n";
    os.precision(saved);
}

bool
writeBenchArtifactFile(const BenchArtifact &artifact,
                       const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    writeBenchArtifact(artifact, out);
    out.flush();
    return out.good();
}

bool
writeTraceFile(const std::string &path)
{
    std::ofstream out(path);
    if (!out)
        return false;
    TraceBuffer::global().writeJson(out);
    out.flush();
    return out.good();
}

} // namespace boreas::obs
