/**
 * @file
 * In-memory span log for the traced benchmark run.
 *
 * A span is one timed call into a layer: its name, start, end, the span
 * that caused it and the id of the run it belongs to. Spans stay in
 * memory while the benchmark runs and are written out once at exit, so
 * recording costs two clock reads and a vector append.
 */

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

struct Span
{
    const char *name; ///< string literal
    int parent;       ///< index into the log, or -1 for a root
    uint32_t run;     ///< id shared by every span of one run
    int64_t beginNs;
    int64_t endNs;
};

class SpanLog
{
  public:
    static int64_t
    nowNs()
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
            .count();
    }

    /** Start a span now; returns its id. */
    int
    open(const char *name, int parent = -1)
    {
        spans_.push_back({name, parent, run_, nowNs(), 0});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int id) { spans_[id].endNs = nowNs(); }

    /** Id stamped on spans opened from now on. */
    void setRun(uint32_t run) { run_ = run; }

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Self time per span name, in seconds: each span's duration minus
     * the part its child spans cover.
     */
    std::map<std::string, double> selfSeconds() const;

    /** Number of spans per name. */
    std::map<std::string, long> counts() const;

    /** Write every span as one JSON document. Returns false on I/O error. */
    bool writeJson(const std::string &path) const;

  private:
    std::vector<Span> spans_;
    uint32_t run_ = 0;
};

/** RAII span; a null log records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const char *name, int parent = -1)
        : log_(log), id_(log ? log->open(name, parent) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->close(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int id() const { return id_; }

  private:
    SpanLog *log_;
    int id_;
};

} // namespace perfbench
