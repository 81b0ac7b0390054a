/**
 * @file
 * Example: visualizing the die's thermal field and severity field as
 * ASCII heatmaps while a workload executes — the quickest way to *see*
 * an advanced hotspot form over the execution cluster.
 *
 * Build: cmake --build build --target thermal_map
 * Run:   ./build/examples/thermal_map [workload-source] [GHz]
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "boreas/pipeline.hh"
#include "workload/registry.hh"

using namespace boreas;

namespace
{

/** Render a scalar field as a coarse ASCII heatmap. */
void
renderField(const std::vector<double> &field, int nx, int ny,
            double lo, double hi, const char *title)
{
    static const char kRamp[] = " .:-=+*#%@";
    constexpr int kLevels = sizeof(kRamp) - 2;
    std::printf("%s  [%c = %.1f ... %c = %.1f]\n", title, kRamp[0], lo,
                kRamp[kLevels], hi);
    // Downsample to at most 64 columns x 32 rows.
    const int sx = std::max(1, nx / 64);
    const int sy = std::max(1, ny / 32);
    for (int y = 0; y < ny; y += sy) {
        std::printf("  ");
        for (int x = 0; x < nx; x += sx) {
            const double v = field[y * nx + x];
            int level = static_cast<int>((v - lo) / (hi - lo) *
                                         kLevels);
            level = std::clamp(level, 0, kLevels);
            std::printf("%c", kRamp[level]);
        }
        std::printf("\n");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string name = argc > 1 ? argv[1] : "gromacs";
    const GHz freq = argc > 2 ? std::atof(argv[2]) : 5.0;

    SimulationPipeline pipeline;
    const auto source = makeWorkloadSource(name);
    pipeline.start(*source, /*seed=*/5);

    std::printf("running %s at %.2f GHz...\n\n", name.c_str(), freq);
    SeveritySnapshot last;
    for (int s = 0; s < kTraceSteps; ++s)
        last = pipeline.step(freq).severity;

    const ThermalGrid &grid = pipeline.thermalGrid();
    const auto &temps = grid.siliconTemps();
    renderField(temps, grid.nx(), grid.ny(), kAmbient,
                grid.maxSiliconTemp(), "silicon temperature after 12 ms");

    std::vector<double> sev_field;
    const Meters cell = pipeline.floorplan().dieWidth() / grid.nx();
    const SeveritySnapshot snap = pipeline.severityModel().evaluate(
        temps, grid.nx(), grid.ny(), cell, &sev_field);
    std::printf("\n");
    renderField(sev_field, grid.nx(), grid.ny(), 0.0,
                std::max(1.0, snap.maxSeverity),
                "Hotspot-Severity field");

    const Point site = grid.cellCenter(snap.argmaxCell);
    std::printf("\npeak severity %.3f at (%.2f, %.2f) mm — T %.1f C, "
                "MLTD %.1f C\n", snap.maxSeverity, site.x * 1e3,
                site.y * 1e3, snap.tempAtMax, snap.mltdAtMax);
    std::string unit = "(no unit)";
    for (const auto &u : pipeline.floorplan().units())
        if (u.rect.contains(site))
            unit = u.name;
    std::printf("that cell belongs to: %s\n", unit.c_str());
    std::printf("max die temperature: %.1f C, max MLTD: %.1f C\n",
                snap.maxTemp, snap.maxMltd);
    return 0;
}
