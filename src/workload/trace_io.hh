/**
 * @file
 * The boreas-trace-v1 binary workload-trace format: record a live
 * run's per-step per-core stimuli and replay them bit-identically.
 *
 * A trace captures, for every pipeline step and die core, the
 * effective PhaseParams the source produced, whether the core was
 * active, and the pre-step snapshot of the core's noise-Rng state.
 * Replaying restores the Rng snapshot before each step, so the
 * pipeline-side draws (intensity residual, core-model activity noise)
 * reproduce the recorded run exactly even though the generator-side
 * draws (dwell jitter, phase selection) are not re-executed. The
 * header also carries the recorded warm-start unit-power vector,
 * because live runs derive it from probe steps a trace cannot re-run.
 *
 * On-disk layout (all fields little-endian):
 *
 *   header   magic[8] = "BORTRCv1", u32 version = 1, u32 numCores,
 *            u32 numSteps, u32 flags (bit 0: warm power present),
 *            f64 dt, u64 seed, u64 payloadChecksum (FNV-1a over the
 *            payload bytes), u32 nameLen, u32 warmCount,
 *            name[nameLen], warm[warmCount] f64
 *   payload  numSteps records, each:
 *              u32 stepIndex, then numCores core records, each:
 *                u8 active, u8 rngHaveSpare, u64 rngState[4],
 *                f64 rngSpare, f64 phase[17] (PhaseParams fields in
 *                declaration order, arch/core_model.hh)
 *
 * The checksum is common/hash.hh's Fnv1a, which must never change;
 * like the runHash it compares bit patterns, so it is not portable
 * across endianness — traces are fixed little-endian precisely so the
 * *container* stays portable even though replay equality is only
 * meaningful on matching FP hardware.
 */

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "arch/core_model.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "workload/source.hh"

namespace boreas
{

/** Human-readable name of the (only) supported trace format. */
inline constexpr const char *kTraceFormatName = "boreas-trace-v1";

/** Magic bytes opening every trace file. */
inline constexpr char kTraceMagic[8] = {'B', 'O', 'R', 'T',
                                        'R', 'C', 'v', '1'};

/** Supported container version. */
inline constexpr uint32_t kTraceVersion = 1;

/** One core's recorded stimulus for one step. */
struct TraceCoreRecord
{
    bool active = false;
    RngState rng;      ///< noise-Rng snapshot taken *before* the step
    PhaseParams phase; ///< effective params (thermalScale folded in)
};

/** One recorded pipeline step. */
struct TraceStep
{
    uint32_t stepIndex = 0;
    std::vector<TraceCoreRecord> cores;
};

/** A fully decoded trace. */
struct TraceData
{
    std::string sourceName; ///< name of the source that was recorded
    int numCores = 0;
    Seconds dt = 0.0;  ///< step length the run used
    uint64_t seed = 0; ///< seed the recorded run was started with
    /** Recorded warm-start per-unit power; empty if not captured. */
    std::vector<Watts> warmPower;
    std::vector<TraceStep> steps;
    /** FNV-1a over the payload bytes; set by encode/decode. */
    uint64_t payloadChecksum = 0;
};

/** Serialize to boreas-trace-v1 bytes (fills in the checksum). */
std::vector<uint8_t> encodeTrace(TraceData &data);

/**
 * Parse and fully validate boreas-trace-v1 bytes: magic/version/size
 * checks, payload checksum, strictly ascending step indices, positive
 * finite dt, finite phase parameters. Returns false and sets *error
 * (if given) on the first violation; *out is then unspecified.
 */
bool decodeTrace(const std::vector<uint8_t> &bytes, TraceData *out,
                 std::string *error = nullptr);

/** Write a trace file; panics on I/O failure. */
void writeTraceFile(const std::string &path, TraceData &data);

/** Load and validate a trace file; false + *error on any failure. */
bool tryLoadTraceFile(const std::string &path, TraceData *out,
                      std::string *error = nullptr);

/** Load and validate a trace file; panics if unreadable or invalid. */
TraceData loadTraceFile(const std::string &path);

/**
 * Pipeline tap that accumulates a TraceData while a run executes.
 * Install with ThermalPipeline::setTraceRecorder(); the pipeline
 * calls onRunStart()/recordStep() and the caller serializes the
 * result afterwards.
 */
class TraceRecorder
{
  public:
    void onRunStart(std::string source_name, int num_cores, Seconds dt,
                    uint64_t seed, std::vector<Watts> warm_power);

    void recordStep(uint32_t step_index,
                    std::vector<TraceCoreRecord> cores);

    const TraceData &
    data() const
    {
        return data_;
    }

    /** Move the accumulated trace out (recorder becomes empty). */
    TraceData
    takeData()
    {
        TraceData out = std::move(data_);
        data_ = TraceData{};
        return out;
    }

  private:
    TraceData data_;
};

/**
 * Replays a recorded trace as a WorkloadSource. Deterministic by
 * construction: reset() ignores the seed argument (the stream is a
 * pure function of the trace) and each advance() re-synchronizes the
 * per-core noise Rngs from the recorded snapshots. Past the final
 * recorded step the source holds the last stimulus, so replaying a
 * longer horizon degrades gracefully instead of crashing.
 */
class TraceSource final : public WorkloadSource
{
  public:
    explicit TraceSource(TraceData data);
    explicit TraceSource(std::shared_ptr<const TraceData> data);
    /** Replay with every recorded intensity multiplied (used by
     *  cloneScaled(); forfeits the recorded warm power). */
    TraceSource(std::shared_ptr<const TraceData> data,
                double intensity_scale);

    /** Load, validate and wrap a trace file; panics on failure. */
    static std::unique_ptr<TraceSource>
    fromFile(const std::string &path);

    const std::string &
    name() const override
    {
        return name_;
    }

    int
    numCores() const override
    {
        return data_->numCores;
    }

    /** Traces group by payload checksum (content identity). */
    uint64_t
    groupId() const override
    {
        return data_->payloadChecksum;
    }

    void reset(uint64_t seed) override;
    CoreStimulus stimulus(int core) const override;
    Rng &noiseRng(int core) override;
    void advance(Seconds dt) override;

    std::unique_ptr<WorkloadSource> clone() const override;
    std::unique_ptr<WorkloadSource>
    cloneScaled(double intensity_mult) const override;

    /** Recorded warm power — only valid for unscaled replays, since
     *  the recording captured the unscaled workload's probe steps. */
    const std::vector<Watts> *recordedWarmPower() const override;

    uint64_t
    recordedSeed() const
    {
        return data_->seed;
    }

    uint64_t
    checksum() const
    {
        return data_->payloadChecksum;
    }

    int
    numSteps() const
    {
        return static_cast<int>(data_->steps.size());
    }

  private:
    void syncRngs();

    std::shared_ptr<const TraceData> data_;
    std::string name_;
    double intensityScale_ = 1.0;

    size_t index_ = 0;
    std::vector<Rng> rngs_; ///< empty until reset()
};

} // namespace boreas
