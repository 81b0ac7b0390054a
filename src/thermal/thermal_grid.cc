#include "thermal/thermal_grid.hh"

#include <algorithm>
#include <cmath>

#include "common/checked.hh"
#include "common/dct.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/explicit_reference.hh"
#include "thermal/spectral_solver.hh"

namespace
{

// Checked-build sanity range for any node temperature, generous
// enough for deliberately-coarse test configs yet tight enough to
// catch an exploding integration or uninitialized state.
constexpr double kMinSaneTemp = -100.0;
constexpr double kMaxSaneTemp = 2000.0;

} // namespace

namespace boreas
{

ThermalGrid::ThermalGrid(const Floorplan &floorplan,
                         const ThermalParams &params)
    : floorplan_(&floorplan), params_(params)
{
    boreas_assert(params_.nx >= 4 && params_.ny >= 4,
                  "grid too small: %dx%d", params_.nx, params_.ny);
    unitMaps_ = floorplan_->rasterize(params_.nx, params_.ny);
    computeConstants();
    reset(params_.ambient);
    pCell_.assign(numCells(), 0.0);
    steadyDct_ = std::make_unique<Dct2Plan>(params_.nx, params_.ny);
    steadySi_.assign(numCells(), 0.0);
    steadySp_.assign(numCells(), 0.0);
    spectral_ = std::make_unique<SpectralThermalSolver>(spectralNetwork());
    if (kCheckedBuild && params_.spectralShadowCheck)
        shadow_ = std::make_unique<ExplicitReference>(spectralNetwork(),
                                                      params_.dtSafety);
}

SpectralNetwork
ThermalGrid::spectralNetwork() const
{
    SpectralNetwork net;
    net.nx = params_.nx;
    net.ny = params_.ny;
    net.gLatSi = gLatSi_;
    net.gLatSp = gLatSp_;
    net.gVert = gVert_;
    net.gSinkCell = gSinkCell_;
    net.cSi = cSi_;
    net.cSp = cSp_;
    net.sinkCapacitance = params_.sinkCapacitance;
    net.sinkAmbientResistance = params_.sinkAmbientResistance;
    net.ambient = params_.ambient;
    return net;
}

ThermalGrid::~ThermalGrid() = default;

void
ThermalGrid::computeConstants()
{
    const Meters cw = floorplan_->dieWidth() / params_.nx;
    const Meters ch = floorplan_->dieHeight() / params_.ny;
    boreas_assert(std::fabs(cw - ch) / cw < 0.05,
                  "thermal grid cells should be near-square");
    const double cell_area = cw * ch;

    // Lateral conductance between adjacent square cells of a sheet with
    // conductivity k and thickness t is G = k * t (the cell length and
    // width cancel).
    gLatSi_ = params_.siConductivity * params_.siThickness;
    gLatSp_ = params_.cuConductivity * params_.spreaderThickness;

    // Vertical: silicon half-thickness + TIM + spreader half-thickness
    // in series, per cell area.
    const double r_si = 0.5 * params_.siThickness /
        (params_.siConductivity * cell_area);
    const double r_tim = params_.timThickness /
        (params_.timConductivity * cell_area);
    const double r_sp = 0.5 * params_.spreaderThickness /
        (params_.cuConductivity * cell_area);
    gVert_ = 1.0 / (r_si + r_tim + r_sp);

    gSinkCell_ = 1.0 /
        (params_.sinkSpreadResistance * numCells());

    cSi_ = params_.siVolHeatCap * cell_area * params_.siThickness;
    cSp_ = params_.cuVolHeatCap * cell_area * params_.spreaderThickness;
}

void
ThermalGrid::reset(Celsius uniform)
{
    tSi_.assign(numCells(), uniform);
    tSp_.assign(numCells(), uniform);
    tSink_ = uniform;
    siValid_ = true;
    spValid_ = true;
    modesValid_ = false;
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
    // Controllers frequently hold power constant across intervals; an
    // input identical to the previous call would reproduce pCell_ (and
    // the spectral power transform) bit for bit, so skip the rescatter.
    if (!unitPowerCache_.empty() && unit_power == unitPowerCache_)
        return;
    // The ingest is everything past that early return: the unit->cell
    // rescatter plus the spectral power transform.
    obs::ScopedTimer timer("stage.thermal.ingest");
    unitPowerCache_ = unit_power;

    std::fill(pCell_.begin(), pCell_.end(), 0.0);
    for (size_t u = 0; u < unit_power.size(); ++u) {
        const UnitCellMap &map = unitMaps_[u];
        const Watts p = unit_power[u];
        for (size_t k = 0; k < map.cells.size(); ++k)
            pCell_[map.cells[k]] += p * map.fractions[k];
    }

    spectral_->setPower(pCell_);
}

void
ThermalGrid::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    // The pipeline steps one fixed dt between resets — that is the
    // pattern the spectral solver's per-dt plan cache assumes. A
    // mid-run change is legal but suspicious; flag it where checks are
    // on.
    boreas_check(lastDt_ == 0.0 || dt == lastDt_,
                 "thermal dt changed mid-run: %g -> %g", lastDt_, dt);
    lastDt_ = dt;

    if (shadow_ != nullptr) {
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        shadow_->loadState(tSi_, tSp_, tSink_);
        shadow_->setPower(pCell_);
    }

    if (!modesValid_) {
        spectral_->loadState(tSi_, tSp_, tSink_);
        modesValid_ = true;
    }
    spectral_->step(dt);
    tSink_ = spectral_->sinkTemp();
    siValid_ = false;
    spValid_ = false;

    if (shadow_ != nullptr) {
        shadow_->step(dt);
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        const std::vector<Celsius> &ref_si = shadow_->silicon();
        const std::vector<Celsius> &ref_sp = shadow_->spreader();
        double err = std::fabs(tSink_ - shadow_->sinkTemp());
        for (size_t i = 0; i < tSi_.size(); ++i) {
            err = std::max(err, std::fabs(tSi_[i] - ref_si[i]));
            err = std::max(err, std::fabs(tSp_[i] - ref_sp[i]));
        }
        if (err > params_.spectralShadowTolerance) {
            if (!warnedShadowFallback_) {
                boreas_warn("spectral thermal step diverged from the "
                            "explicit reference by %.6f C (bound %.6f); "
                            "adopting the explicit result", err,
                            params_.spectralShadowTolerance);
                warnedShadowFallback_ = true;
            }
            obs::MetricsRegistry::global().add(
                "thermal.spectral.shadow_fallback");
            tSi_ = ref_si;
            tSp_ = ref_sp;
            tSink_ = shadow_->sinkTemp();
            modesValid_ = false;
        }
    }

    if constexpr (kCheckedBuild) {
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        checkValuesInRange(tSi_.data(), tSi_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "silicon temperature");
        checkValuesInRange(tSp_.data(), tSp_.size(), kMinSaneTemp,
                           kMaxSaneTemp, "spreader temperature");
        checkValuesInRange(&tSink_, 1, kMinSaneTemp, kMaxSaneTemp,
                           "sink temperature");
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
    // The DCT-II basis that diagonalizes the transient also
    // diagonalizes the steady state (DESIGN.md §9.7): every mode is a
    // closed-form 2x2 solve, and mode 0 is plain energy balance. The
    // result depends on pCell_ alone, never on the prior state, and
    // runs no dispatched code, so it is bitwise identical for every
    // thread count and host.
    const int nx = params_.nx;
    const int ny = params_.ny;
    std::vector<double> lam_y(ny);
    for (int ky = 0; ky < ny; ++ky)
        lam_y[ky] = Dct2Plan::laplacianEigenvalue(ky, ny);

    double *zsi = steadySi_.data();
    double *zsp = steadySp_.data();
    steadyDct_->forward(pCell_.data(), zsi);

    // Modes m != 0:  (gsi, -gv; -gv, gsp) (zsi, zsp) = (phat, 0).
    const double gv = gVert_;
    for (int kx = 0; kx < nx; ++kx) {
        const double lam_x = Dct2Plan::laplacianEigenvalue(kx, nx);
        for (int ky = 0; ky < ny; ++ky) {
            const int m = kx * ny + ky;
            if (m == 0)
                continue;
            const double lam = lam_x + lam_y[ky];
            const double gsi = gLatSi_ * lam + gv;
            const double gsp = gLatSp_ * lam + gv + gSinkCell_;
            const double z = zsi[m] * gsp / (gsi * gsp - gv * gv);
            zsi[m] = z;
            zsp[m] = gv * z / gsp;
        }
    }

    // Mode 0 (the field sums): all power P leaves through the sink, so
    // the sink sits P Ra above ambient and each layer's sum sits one
    // series drop above the next.
    const double p = zsi[0];
    tSink_ = params_.ambient + p * params_.sinkAmbientResistance;
    zsp[0] = numCells() * tSink_ + p / gSinkCell_;
    zsi[0] = zsp[0] + p / gv;

    steadyDct_->inverse(zsi, tSi_.data());
    steadyDct_->inverse(zsp, tSp_.data());
    siValid_ = true;
    spValid_ = true;
    modesValid_ = false;

    if constexpr (kCheckedBuild) {
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
        double acc = 0.0;
        double wsum = 0.0;
        for (size_t k = 0; k < map.cells.size(); ++k) {
            acc += tSi_[map.cells[k]] * map.fractions[k];
            wsum += map.fractions[k];
        }
        if (wsum > 0.0)
            unitTempsScratch_[u] = acc / wsum;
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
