/**
 * @file
 * The single-core phase-program source: a WorkloadSpec run behind the
 * WorkloadSource interface. Every suite program (spec2006, nas) runs
 * as one of these, whether resolved by the registry or wrapped at a
 * call site with makeSyntheticSource() / wrapSpecs(); the wrapped
 * WorkloadRun is seeded and advanced exactly as the spec describes.
 */

#pragma once

#include <optional>

#include "workload/source.hh"
#include "workload/workload.hh"

namespace boreas
{

/** One WorkloadSpec phase program driving one core. */
class SyntheticSource final : public WorkloadSource
{
  public:
    /**
     * @param name registry name shown in manifests (may differ from
     *        spec.name, which feeds the run's seed derivation)
     * @param spec the phase program, copied and owned
     */
    SyntheticSource(std::string name, WorkloadSpec spec);

    const std::string &
    name() const override
    {
        return name_;
    }

    int
    numCores() const override
    {
        return 1;
    }

    uint64_t
    groupId() const override
    {
        return spec_.seedSalt;
    }

    void
    reset(uint64_t seed) override
    {
        run_.emplace(spec_, seed);
    }

    CoreStimulus stimulus(int core) const override;
    Rng &noiseRng(int core) override;

    void
    advance(Seconds dt) override
    {
        run_->advance(dt);
    }

    std::unique_ptr<WorkloadSource> clone() const override;
    std::unique_ptr<WorkloadSource>
    cloneScaled(double intensity_mult) const override;

    const WorkloadSpec &
    spec() const
    {
        return spec_;
    }

  private:
    std::string name_;
    WorkloadSpec spec_;
    /** Live run; empty until reset(). Never copied across clones:
     *  it points at this instance's spec_. */
    std::optional<WorkloadRun> run_;
};

} // namespace boreas
