#include "recipe.hh"

#include "boreas/dataset_builder.hh"
#include "common/rng.hh"
#include "ml/feature_schema.hh"
#include "sensors/placement.hh"
#include "workload/registry.hh"

namespace perfbench
{

using namespace boreas;

PipelineConfig
pipelineConfig()
{
    PipelineConfig config;
    config.thermal.solver = ThermalSolverKind::Spectral;
    return config;
}

std::string
specSource(const std::string &name)
{
    return "synthetic:spec2006/" + name;
}

const std::vector<std::string> &
trainingWorkloads()
{
    static const std::vector<std::string> names = {
        "tonto", "calculix", "gobmk", "sjeng", "soplex", "mcf"};
    return names;
}

const std::vector<std::string> &
heldOutWorkloads()
{
    static const std::vector<std::string> names = {
        "cactusADM", "omnetpp", "GemsFDTD", "h264ref",
        "bzip2", "hmmer", "gamess"};
    return names;
}

std::unique_ptr<BoreasController>
Trained::ml05() const
{
    return std::make_unique<BoreasController>(
        "ML05", &model, featureNames, /*guardband=*/0.05,
        kBestSensorIndex);
}

std::unique_ptr<Trained>
trainRecipe(SimulationPipeline &pipeline, SpanLog *log)
{
    std::vector<std::unique_ptr<WorkloadSource>> owned;
    std::vector<const WorkloadSource *> sources;
    for (const std::string &name : trainingWorkloads()) {
        owned.push_back(makeWorkloadSource(specSource(name)));
        sources.push_back(owned.back().get());
    }

    DatasetConfig data;
    data.frequencies = {3.75, 4.25, 4.5, 5.0};
    data.constSegments = 1;
    data.walkSegments = 1;
    data.intensityAugments = {1.0};
    data.baseSeed = 2023;

    auto out = std::make_unique<Trained>();
    BuiltData built;
    {
        ScopedSpan span(log, "boreas.dataset");
        built = buildTrainingData(pipeline, sources, data);
    }
    out->datasetRows = static_cast<long>(built.severity.numRows());

    const GBTParams gbt; // Table II
    out->featureNames = deployedFeatureNames();
    const Dataset deployed = built.severity.selectFeatures(
        featureIndicesOf(out->featureNames));
    {
        ScopedSpan span(log, "ml.fit");
        out->fullModel.train(built.severity, gbt);
        out->model.train(deployed, gbt);
    }
    out->fitMse = out->model.mse(deployed);

    {
        ScopedSpan span(log, "control.phase_fit");
        Rng rng(data.baseSeed ^ 0xCDAC10ULL);
        out->phaseModel.train(built.phaseSamples, /*num_phases=*/8,
                              /*num_components=*/5,
                              pipeline.vfTable().numPoints(), rng);
    }
    return out;
}

} // namespace perfbench
