#include "thermal/thermal_grid.hh"

#include <algorithm>
#include <cmath>

#include "common/checked.hh"
#include "common/dct.hh"
#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "thermal/spectral_solver.hh"

namespace
{

// Checked-build sanity range for any node temperature, generous
// enough for deliberately-unstable test configs yet tight enough to
// catch an exploding explicit integration or uninitialized state.
constexpr double kMinSaneTemp = -100.0;
constexpr double kMaxSaneTemp = 2000.0;

} // namespace

namespace boreas
{

namespace
{

/**
 * One interior stencil row (all four neighbors exist): branch-free,
 * restrict-qualified, and kept a free function so the compiler can
 * prove independence and vectorize it. The floating-point operation
 * order matches the reference branchy formulation term for term, so
 * the fast path changes speed only, never results.
 */
void
updateInteriorRow(const double *__restrict tsi_v,
                  const double *__restrict tsp_v,
                  double *__restrict nsi_v, double *__restrict nsp_v,
                  const double *__restrict pc_v, int row, int nx,
                  double g_si, double g_sp, double g_v, double g_sink,
                  double tsink, double inv_csi, double inv_csp)
{
    for (int i = row + 1; i < row + nx - 1; ++i) {
        const double tsi = tsi_v[i];
        const double tsp = tsp_v[i];

        double flux = pc_v[i] + g_v * (tsp - tsi);
        flux += g_si * (tsi_v[i - 1] - tsi);
        flux += g_si * (tsi_v[i + 1] - tsi);
        flux += g_si * (tsi_v[i - nx] - tsi);
        flux += g_si * (tsi_v[i + nx] - tsi);
        nsi_v[i] = tsi + inv_csi * flux;

        double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
        fsp += g_sp * (tsp_v[i - 1] - tsp);
        fsp += g_sp * (tsp_v[i + 1] - tsp);
        fsp += g_sp * (tsp_v[i - nx] - tsp);
        fsp += g_sp * (tsp_v[i + nx] - tsp);
        nsp_v[i] = tsp + inv_csp * fsp;
    }
}

} // namespace

const char *
thermalSolverName(ThermalSolverKind kind)
{
    switch (kind) {
    case ThermalSolverKind::Spectral:
        return "spectral";
    case ThermalSolverKind::Explicit:
        break;
    }
    return "explicit";
}

ThermalSolverKind
parseThermalSolverName(const std::string &name)
{
    if (name == "explicit")
        return ThermalSolverKind::Explicit;
    if (name == "spectral")
        return ThermalSolverKind::Spectral;
    boreas_fatal("unknown thermal solver '%s' "
                 "(want explicit|spectral)", name.c_str());
}

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

    if (params_.solver == ThermalSolverKind::Spectral)
        spectral_ =
            std::make_unique<SpectralThermalSolver>(spectralNetwork());
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

const char *
ThermalGrid::solverTimerName() const
{
    switch (params_.solver) {
    case ThermalSolverKind::Spectral:
        return "stage.thermal.spectral";
    case ThermalSolverKind::Explicit:
        break;
    }
    return "stage.thermal.explicit";
}

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

    // Explicit-integration stability: dt < C / sum(G) per node; take the
    // tightest bound over node types and apply the safety factor.
    const double gsi = 4.0 * gLatSi_ + gVert_;
    const double gsp = 4.0 * gLatSp_ + gVert_ + gSinkCell_;
    const double dt_si = cSi_ / gsi;
    const double dt_sp = cSp_ / gsp;
    dtMax_ = params_.dtSafety * std::min(dt_si, dt_sp);
    boreas_assert(dtMax_ > 0.0, "bad stability bound");
}

void
ThermalGrid::reset(Celsius uniform)
{
    tSi_.assign(numCells(), uniform);
    tSp_.assign(numCells(), uniform);
    tSink_ = uniform;
    newSi_.assign(numCells(), 0.0);
    newSp_.assign(numCells(), 0.0);
    siValid_ = true;
    spValid_ = true;
    modesValid_ = false;
    stepped_ = false;
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
    // rescatter (every solver) plus the spectral power transform.
    obs::ScopedTimer timer("stage.thermal.ingest");
    unitPowerCache_ = unit_power;

    std::fill(pCell_.begin(), pCell_.end(), 0.0);
    for (size_t u = 0; u < unit_power.size(); ++u) {
        const UnitCellMap &map = unitMaps_[u];
        const Watts p = unit_power[u];
        for (size_t k = 0; k < map.cells.size(); ++k)
            pCell_[map.cells[k]] += p * map.fractions[k];
    }

    if (spectral_ != nullptr)
        spectral_->setPower(pCell_);
}

void
ThermalGrid::rebuildStepPlan(Seconds dt)
{
    plan_.dt = dt;
    plan_.substeps = std::max(
        1, static_cast<int>(std::ceil(dt / dtMax_)));
    plan_.h = dt / plan_.substeps;
    plan_.invCsi = plan_.h / cSi_;
    plan_.invCsp = plan_.h / cSp_;
    plan_.hOverCsink = plan_.h / params_.sinkCapacitance;
}

void
ThermalGrid::step(Seconds dt)
{
    boreas_assert(dt > 0.0, "bad dt");
    // The pipeline steps one fixed dt between resets — that is the
    // pattern the per-dt plan caches (explicit substep constants,
    // spectral exponential coefficients) assume. A mid-run change is
    // legal but suspicious; flag it where checks are on.
    boreas_check(!stepped_ || dt == plan_.dt,
                 "thermal dt changed mid-run: %g -> %g", plan_.dt, dt);
    if (dt != plan_.dt)
        rebuildStepPlan(dt);

    switch (params_.solver) {
    case ThermalSolverKind::Explicit:
        explicitAdvance(tSi_, tSp_, tSink_, dt);
        break;
    case ThermalSolverKind::Spectral:
        spectralStep(dt);
        break;
    }
    stepped_ = true;

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
ThermalGrid::explicitAdvance(std::vector<double> &si,
                             std::vector<double> &sp, double &sink,
                             Seconds dt)
{
    boreas_assert(dt == plan_.dt, "step plan out of date");
    const int substeps = plan_.substeps;
    const double h = plan_.h;

    const int nx = params_.nx;
    const int ny = params_.ny;
    const int n = nx * ny;
    const double inv_csi = plan_.invCsi;
    const double inv_csp = plan_.invCsp;
    const double g_si = gLatSi_;
    const double g_sp = gLatSp_;
    const double g_v = gVert_;
    const double g_sink = gSinkCell_;
    (void)h;

    // The loops below preserve the exact per-node floating-point
    // operation order of the reference (branchy) formulation, so the
    // split changes speed only, never results.
    for (int s = 0; s < substeps; ++s) {
        const double *__restrict tsi_v = si.data();
        const double *__restrict tsp_v = sp.data();
        double *__restrict nsi_v = newSi_.data();
        double *__restrict nsp_v = newSp_.data();
        const double *__restrict pc_v = pCell_.data();
        const double tsink = sink;

        // Boundary cells keep the reference branch structure.
        auto edge_cell = [&](int x, int y, int i) {
            const double tsi = tsi_v[i];
            const double tsp = tsp_v[i];

            double flux = pc_v[i] + g_v * (tsp - tsi);
            if (x > 0)
                flux += g_si * (tsi_v[i - 1] - tsi);
            if (x < nx - 1)
                flux += g_si * (tsi_v[i + 1] - tsi);
            if (y > 0)
                flux += g_si * (tsi_v[i - nx] - tsi);
            if (y < ny - 1)
                flux += g_si * (tsi_v[i + nx] - tsi);
            nsi_v[i] = tsi + inv_csi * flux;

            double fsp = g_v * (tsi - tsp) + g_sink * (tsink - tsp);
            if (x > 0)
                fsp += g_sp * (tsp_v[i - 1] - tsp);
            if (x < nx - 1)
                fsp += g_sp * (tsp_v[i + 1] - tsp);
            if (y > 0)
                fsp += g_sp * (tsp_v[i - nx] - tsp);
            if (y < ny - 1)
                fsp += g_sp * (tsp_v[i + nx] - tsp);
            nsp_v[i] = tsp + inv_csp * fsp;
        };

        for (int x = 0; x < nx; ++x)
            edge_cell(x, 0, x);

        for (int y = 1; y < ny - 1; ++y) {
            const int row = y * nx;
            edge_cell(0, y, row);
            updateInteriorRow(tsi_v, tsp_v, nsi_v, nsp_v, pc_v, row,
                              nx, g_si, g_sp, g_v, g_sink, tsink,
                              inv_csi, inv_csp);
            edge_cell(nx - 1, y, row + nx - 1);
        }

        const int last_row = (ny - 1) * nx;
        for (int x = 0; x < nx; ++x)
            edge_cell(x, ny - 1, last_row + x);

        // Sink update: same row-major accumulation order as the
        // reference interleaved loop.
        double sink_flux = 0.0;
        for (int i = 0; i < n; ++i)
            sink_flux += g_sink * (tsp_v[i] - tsink);
        sink_flux += (params_.ambient - sink) /
            params_.sinkAmbientResistance;
        sink += plan_.hOverCsink * sink_flux;

        si.swap(newSi_);
        sp.swap(newSp_);
    }
}

void
ThermalGrid::spectralStep(Seconds dt)
{
    bool shadow = false;
    if constexpr (kCheckedBuild)
        shadow = params_.spectralShadowCheck;

    double shadow_sink = tSink_;
    if (shadow) {
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        shadowSi_ = tSi_;
        shadowSp_ = tSp_;
    }

    if (!modesValid_) {
        spectral_->loadState(tSi_, tSp_, tSink_);
        modesValid_ = true;
    }
    spectral_->step(dt);
    tSink_ = spectral_->sinkTemp();
    siValid_ = false;
    spValid_ = false;

    if (shadow) {
        explicitAdvance(shadowSi_, shadowSp_, shadow_sink, dt);
        ensureSiliconCurrent();
        ensureSpreaderCurrent();
        double err = std::fabs(tSink_ - shadow_sink);
        for (size_t i = 0; i < tSi_.size(); ++i) {
            err = std::max(err, std::fabs(tSi_[i] - shadowSi_[i]));
            err = std::max(err, std::fabs(tSp_[i] - shadowSp_[i]));
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
            tSi_.swap(shadowSi_);
            tSp_.swap(shadowSp_);
            tSink_ = shadow_sink;
            siValid_ = true;
            spValid_ = true;
            modesValid_ = false;
        }
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
    // solver kind, thread count and host. The explicit path's scratch
    // buffers hold the mode coefficients.
    const int nx = params_.nx;
    const int ny = params_.ny;
    std::vector<double> lam_y(ny);
    for (int ky = 0; ky < ny; ++ky)
        lam_y[ky] = Dct2Plan::laplacianEigenvalue(ky, ny);

    double *zsi = newSi_.data();
    double *zsp = newSp_.data();
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
