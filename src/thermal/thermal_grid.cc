#include "thermal/thermal_grid.hh"

#include <algorithm>
#include <cmath>

#include "common/checked.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/explicit_reference.hh"

namespace
{

// Checked-build sanity range for any node temperature, generous
// enough for deliberately-coarse test configs yet tight enough to
// catch an exploding integration or uninitialized state.
constexpr double kMinSaneTemp = -100.0;
constexpr double kMaxSaneTemp = 2000.0;

// Round-off the shadow check allows on top of the reference's proven
// truncation bound, Celsius (a step's round-off is ~1e-12 C).
constexpr double kShadowRoundoff = 1e-9;

} // namespace

namespace boreas
{

namespace
{

/** The per-cell RC network of a floorplan discretized by `params`. */
SpectralNetwork
buildNetwork(const Floorplan &floorplan, const ThermalParams &params)
{
    const Meters cw = floorplan.dieWidth() / params.nx;
    const Meters ch = floorplan.dieHeight() / params.ny;
    boreas_assert(std::fabs(cw - ch) / cw < 0.05,
                  "thermal grid cells should be near-square");
    const double cell_area = cw * ch;

    SpectralNetwork net;
    net.nx = params.nx;
    net.ny = params.ny;

    // Lateral conductance between adjacent square cells of a sheet with
    // conductivity k and thickness t is G = k * t (the cell length and
    // width cancel).
    net.gLatSi = params.siConductivity * params.siThickness;
    net.gLatSp = params.cuConductivity * params.spreaderThickness;

    // Vertical: silicon half-thickness + TIM + spreader half-thickness
    // in series, per cell area.
    const double r_si = 0.5 * params.siThickness /
        (params.siConductivity * cell_area);
    const double r_tim = params.timThickness /
        (params.timConductivity * cell_area);
    const double r_sp = 0.5 * params.spreaderThickness /
        (params.cuConductivity * cell_area);
    net.gVert = 1.0 / (r_si + r_tim + r_sp);

    net.gSinkCell = 1.0 /
        (params.sinkSpreadResistance * (params.nx * params.ny));

    net.cSi = params.siVolHeatCap * cell_area * params.siThickness;
    net.cSp = params.cuVolHeatCap * cell_area * params.spreaderThickness;
    net.sinkCapacitance = params.sinkCapacitance;
    net.sinkAmbientResistance = params.sinkAmbientResistance;
    net.ambient = params.ambient;
    return net;
}

} // namespace

ThermalGrid::ThermalGrid(const Floorplan &floorplan,
                         const ThermalParams &params)
    : floorplan_(&floorplan), params_(params)
{
    boreas_assert(params_.nx >= 4 && params_.ny >= 4,
                  "grid too small: %dx%d", params_.nx, params_.ny);
    unitMaps_ = floorplan_->rasterize(params_.nx, params_.ny);
    // unitTemps()'s divisors: each unit's fractions summed in cell
    // order, as its weighted sum runs.
    for (const UnitCellMap &map : unitMaps_) {
        double wsum = 0.0;
        for (double f : map.fractions)
            wsum += f;
        unitWeights_.push_back(wsum);
    }
    // setUnitPower's share table: each cell's shares in unit order.
    std::vector<std::vector<CellShare>> by_cell(numCells());
    for (size_t u = 0; u < unitMaps_.size(); ++u) {
        const UnitCellMap &map = unitMaps_[u];
        for (size_t k = 0; k < map.cells.size(); ++k) {
            by_cell[map.cells[k]].push_back(
                {map.cells[k], static_cast<int>(u), map.fractions[k]});
        }
    }
    for (const std::vector<CellShare> &shares : by_cell) {
        if (!shares.empty())
            cellShares_.push_back(shares[0]);
    }
    firstShares_ = cellShares_.size();
    for (const std::vector<CellShare> &shares : by_cell) {
        if (shares.size() > 1) {
            cellShares_.insert(cellShares_.end(), shares.begin() + 1,
                               shares.end());
        }
    }
    net_ = buildNetwork(*floorplan_, params_);
    pCell_.assign(numCells(), 0.0);
    spectral_ = std::make_unique<SpectralThermalSolver>(net_);
    if constexpr (kCheckedBuild) {
        shadow_ = std::make_unique<ExplicitReference>(
            net_, ExplicitReference::kShadowDtSafety);
    }
    reset(params_.ambient);
}

ThermalGrid::~ThermalGrid() = default;

void
ThermalGrid::reset(Celsius uniform)
{
    tSi_.assign(numCells(), uniform);
    tSp_.assign(numCells(), uniform);
    siValid_ = true;
    spValid_ = true;
    spectral_->loadState(tSi_, tSp_, uniform);
    lastDt_ = 0.0;
}

void
ThermalGrid::setUnitPower(const std::vector<Watts> &unit_power)
{
    boreas_assert(unit_power.size() == floorplan_->numUnits(),
                  "unit power size %zu != %zu units",
                  unit_power.size(), floorplan_->numUnits());
    if constexpr (kCheckedBuild) {
        // Negative or non-finite injected power silently corrupts the
        // whole downstream telemetry -> GBT -> DVFS chain.
        checkValuesInRange(unit_power.data(), unit_power.size(), 0.0,
                           1e6, "unit power");
    }
    // The ingest is everything past the input checks: the unit->cell
    // map plus the spectral power transform.
    obs::ScopedTimer timer("stage.thermal.ingest");

    // 0.0 + p * f, not p * f: a -0.0 product must land as +0.0, as it
    // does when added to a zero-filled cell. Uncovered cells keep the
    // 0.0 they were built with.
    const Watts *p = unit_power.data();
    for (size_t i = 0; i < firstShares_; ++i) {
        const CellShare &s = cellShares_[i];
        pCell_[s.cell] = 0.0 + p[s.unit] * s.fraction;
    }
    for (size_t i = firstShares_; i < cellShares_.size(); ++i) {
        const CellShare &s = cellShares_[i];
        pCell_[s.cell] += p[s.unit] * s.fraction;
    }

    spectral_->setPower(pCell_);
}

void
ThermalGrid::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    // The pipeline steps one fixed dt between resets or steady solves
    // — that is the pattern the spectral solver's per-dt plan cache
    // assumes. A mid-run change is legal but suspicious; flag it where
    // checks are on.
    boreas_check(lastDt_ == 0.0 || dt == lastDt_,
                 "thermal dt changed mid-run: %g -> %g", lastDt_, dt);
    lastDt_ = dt;

    // Checked builds shadow-run the reference from the same state and
    // power; the spectral step is exact up to round-off, so it must
    // land within the reference's proven truncation bound.
    double shadow_bound = 0.0;
    if constexpr (kCheckedBuild) {
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        shadow_->loadState(tSi_, tSp_, spectral_->sinkTemp());
        shadow_->setPower(pCell_);
        shadow_bound = shadow_->truncationBound(dt);
    }

    spectral_->step(dt);
    siValid_ = false;
    spValid_ = false;

    if constexpr (kCheckedBuild) {
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        const Celsius sink = spectral_->sinkTemp();
        checkValuesInRange(tSi_.data(), tSi_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "silicon temperature");
        checkValuesInRange(tSp_.data(), tSp_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "spreader temperature");
        checkValuesInRange(&sink, 1, kMinSaneTemp, kMaxSaneTemp,
                           "sink temperature");

        shadow_->step(dt);
        const std::vector<Celsius> &ref_si = shadow_->silicon();
        const std::vector<Celsius> &ref_sp = shadow_->spreader();
        double err = std::fabs(sink - shadow_->sinkTemp());
        for (size_t i = 0; i < tSi_.size(); ++i) {
            err = std::max(err, std::fabs(tSi_[i] - ref_si[i]));
            err = std::max(err, std::fabs(tSp_[i] - ref_sp[i]));
        }
        boreas_check(err <= shadow_bound + kShadowRoundoff,
                     "spectral thermal step diverged from the explicit "
                     "reference by %.6g C, over its proven truncation "
                     "bound %.6g C", err, shadow_bound);
        obs::MetricsRegistry::global().add(
            "thermal.spectral.shadow_steps");
    }
}

void
ThermalGrid::ensureSiliconCurrent() const
{
    if (siValid_)
        return;
    obs::ScopedTimer timer("stage.thermal.publish");
    spectral_->realizeSilicon(tSi_);
    siValid_ = true;
}

void
ThermalGrid::ensureSpreaderCurrent() const
{
    if (spValid_)
        return;
    obs::ScopedTimer timer("stage.thermal.publish");
    spectral_->realizeSpreader(tSp_);
    spValid_ = true;
}

void
ThermalGrid::solveSteadyState()
{
    spectral_->solveSteadyState();
    // The sensors reset from the silicon field at once. The spreader,
    // which no simulation path reads, is published on its first read.
    spectral_->realizeSilicon(tSi_);
    siValid_ = true;
    spValid_ = false;
    lastDt_ = 0.0;

    if constexpr (kCheckedBuild) {
        ensureSpreaderCurrent();
        checkValuesInRange(tSi_.data(), tSi_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "steady-state silicon temp");
        checkValuesInRange(tSp_.data(), tSp_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "steady-state spreader temp");
    }
}

Celsius
ThermalGrid::maxSiliconTemp() const
{
    ensureSiliconCurrent();
    return *std::max_element(tSi_.begin(), tSi_.end());
}

int
ThermalGrid::cellAt(const Point &p) const
{
    const Meters cw = floorplan_->dieWidth() / params_.nx;
    const Meters ch = floorplan_->dieHeight() / params_.ny;
    int cx = static_cast<int>(p.x / cw);
    int cy = static_cast<int>(p.y / ch);
    cx = std::clamp(cx, 0, params_.nx - 1);
    cy = std::clamp(cy, 0, params_.ny - 1);
    return cy * params_.nx + cx;
}

Celsius
ThermalGrid::temperatureAt(const Point &p) const
{
    ensureSiliconCurrent();
    return tSi_[cellAt(p)];
}

Point
ThermalGrid::cellCenter(int cell) const
{
    const Meters cw = floorplan_->dieWidth() / params_.nx;
    const Meters ch = floorplan_->dieHeight() / params_.ny;
    const int cx = cell % params_.nx;
    const int cy = cell / params_.nx;
    return {(cx + 0.5) * cw, (cy + 0.5) * ch};
}

const std::vector<Celsius> &
ThermalGrid::unitTemps() const
{
    ensureSiliconCurrent();
    unitTempsScratch_.assign(floorplan_->numUnits(), params_.ambient);
    for (size_t u = 0; u < unitMaps_.size(); ++u) {
        const UnitCellMap &map = unitMaps_[u];
        if (unitWeights_[u] > 0.0) {
            double acc = 0.0;
            for (size_t k = 0; k < map.cells.size(); ++k)
                acc += tSi_[map.cells[k]] * map.fractions[k];
            unitTempsScratch_[u] = acc / unitWeights_[u];
        }
    }
    return unitTempsScratch_;
}

Watts
ThermalGrid::totalPower() const
{
    Watts total = 0.0;
    for (Watts p : pCell_)
        total += p;
    return total;
}

} // namespace boreas
