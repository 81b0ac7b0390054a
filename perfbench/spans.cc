#include "spans.hh"

#include <cstdio>

namespace perfbench
{

std::map<std::string, double>
SpanLog::selfSeconds() const
{
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].endNs - spans_[i].beginNs;
    for (const Span &s : spans_) {
        if (s.parent >= 0)
            self[s.parent] -= s.endNs - s.beginNs;
    }
    std::map<std::string, double> out;
    for (size_t i = 0; i < spans_.size(); ++i)
        out[spans_[i].name] += static_cast<double>(self[i]) * 1e-9;
    return out;
}

std::map<std::string, long>
SpanLog::counts() const
{
    std::map<std::string, long> out;
    for (const Span &s : spans_)
        ++out[s.name];
    return out;
}

bool
SpanLog::writeJson(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    const int64_t origin = spans_.empty() ? 0 : spans_.front().beginNs;
    std::fprintf(f, "{\"schema\": \"perfbench-spans-v1\", \"spans\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"run\": %u, \"start_ns\": %lld, \"end_ns\": %lld}%s\n",
                     i, s.name, s.parent, s.run,
                     static_cast<long long>(s.beginNs - origin),
                     static_cast<long long>(s.endNs - origin),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

} // namespace perfbench
