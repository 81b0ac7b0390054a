#include "boreas/analysis.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/parallel.hh"

namespace boreas
{

GHz
SeveritySweep::oracleFrequency(size_t w) const
{
    boreas_assert(w < peak.size(), "bad workload index %zu", w);
    GHz best = freqs.front();
    for (size_t f = 0; f < freqs.size(); ++f)
        if (peak[w][f] < 1.0)
            best = std::max(best, freqs[f]);
    return best;
}

GHz
SeveritySweep::globalLimit() const
{
    GHz limit = freqs.back();
    for (size_t w = 0; w < workloads.size(); ++w)
        limit = std::min(limit, oracleFrequency(w));
    return limit;
}

int
SeveritySweep::workloadIndex(const std::string &name) const
{
    for (size_t i = 0; i < workloads.size(); ++i)
        if (workloads[i] == name)
            return static_cast<int>(i);
    return -1;
}

SeveritySweep
severitySweep(SimulationPipeline &pipeline,
              const std::vector<const WorkloadSource *> &sources,
              const std::vector<GHz> &freqs, uint64_t seed, int steps)
{
    boreas_assert(!sources.empty() && !freqs.empty(), "empty sweep spec");
    SeveritySweep sweep;
    sweep.freqs = freqs;
    for (const WorkloadSource *s : sources)
        sweep.workloads.push_back(s->name());
    sweep.peak.assign(sources.size(),
                      std::vector<double>(freqs.size(), 0.0));

    // Peak severity is a max statistic of a stochastic trace; evaluate
    // a few seeded realizations per point so the safe/unsafe boundary
    // is not an artifact of one phase realization.
    //
    // Every (workload, frequency) point is an independent run: fan the
    // grid out over the pool, one private pipeline per chunk, each
    // point writing its own slot — results are identical at any
    // BOREAS_THREADS. Each point clones the source so concurrent grid
    // points never share generator state.
    constexpr int kSweepSeeds = 3;
    const int64_t num_points =
        static_cast<int64_t>(sources.size() * freqs.size());
    ThreadPool::global().parallelFor(
        0, num_points, 1, [&](int64_t lo, int64_t hi) {
            SimulationPipeline local(pipeline.config());
            for (int64_t p = lo; p < hi; ++p) {
                const size_t wi = static_cast<size_t>(p) / freqs.size();
                const size_t fi = static_cast<size_t>(p) % freqs.size();
                const auto src = sources[wi]->clone();
                double peak = 0.0;
                for (int s = 0; s < kSweepSeeds; ++s) {
                    const RunResult run = local.runConstantFrequency(
                        *src, seed + sources[wi]->groupId() + 97 * s,
                        freqs[fi], steps);
                    peak = std::max(peak, run.peakSeverity());
                }
                sweep.peak[wi][fi] = peak;
            }
        });
    return sweep;
}

CriticalTempTable
CriticalTempStudy::globalTable() const
{
    CriticalTempTable table;
    table.criticalTemp.assign(freqs.size(), kNoCriticalTemp);
    for (size_t f = 0; f < freqs.size(); ++f)
        for (size_t w = 0; w < workloads.size(); ++w)
            table.criticalTemp[f] =
                std::min(table.criticalTemp[f], crit[w][f]);
    return table;
}

CriticalTempStudy
criticalTempStudy(SimulationPipeline &pipeline,
                  const std::vector<const WorkloadSource *> &sources,
                  const std::vector<GHz> &freqs, int sensor_index,
                  uint64_t seed, int steps)
{
    CriticalTempStudy study;
    study.freqs = freqs;
    for (const WorkloadSource *s : sources)
        study.workloads.push_back(s->name());
    study.crit.assign(sources.size(),
                      std::vector<Celsius>(freqs.size(),
                                           kNoCriticalTemp));

    // Traces are windows of longer executions: probe each operating
    // point from several initial thermal states, including cool ones.
    // Starting cool is what exposes the sensor-delay hazard — a fast
    // hotspot can reach severity 1.0 while the delayed reading is
    // still low, which is why observed critical temperatures drop
    // (Sec. III-D: libquantum with a 960 us delay).
    //
    // Like severitySweep, the (workload, frequency) grid fans out over
    // the pool with one private pipeline per chunk, and one source
    // clone and one output slot per point.
    const std::vector<GHz> warm_starts{3.0, kBaselineFrequency};
    const int64_t num_points =
        static_cast<int64_t>(sources.size() * freqs.size());
    ThreadPool::global().parallelFor(
        0, num_points, 1, [&](int64_t lo, int64_t hi) {
            SimulationPipeline local(pipeline.config());
            for (int64_t p = lo; p < hi; ++p) {
                const size_t wi = static_cast<size_t>(p) / freqs.size();
                const size_t fi = static_cast<size_t>(p) % freqs.size();
                const auto src = sources[wi]->clone();
                Celsius crit = kNoCriticalTemp;
                for (GHz warm : warm_starts) {
                    const RunResult run = local.runConstantFrequency(
                        *src, seed + sources[wi]->groupId(), freqs[fi],
                        steps, warm);
                    for (const auto &rec : run.steps) {
                        if (rec.severity.maxSeverity >= 1.0) {
                            crit = std::min(
                                crit,
                                rec.sensorReadings[sensor_index]);
                        }
                    }
                }
                study.crit[wi][fi] = crit;
            }
        });
    return study;
}

} // namespace boreas
