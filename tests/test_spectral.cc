/**
 * @file
 * Tests for the spectral thermal fast path: the 2-D DCT plan, the
 * mode-space exponential integrator, analytic closed-form solutions
 * for both integrators, and solver selection (DESIGN.md §9).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/checked.hh"
#include "common/dct.hh"
#include "common/hash.hh"
#include "common/rng.hh"
#include "floorplan/skylake.hh"
#include "thermal/spectral_solver.hh"
#include "thermal/thermal_grid.hh"

using namespace boreas;

namespace
{

std::vector<double>
randomField(int n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> field(n);
    for (double &v : field)
        v = rng.uniform(20.0, 120.0);
    return field;
}

/**
 * Apply the explicit solver's lateral stencil (missing boundary
 * neighbors simply omitted — the grid's Neumann condition) in real
 * space: out[i] = sum_neighbors (x[j] - x[i]).
 */
std::vector<double>
applyStencil(const std::vector<double> &x, int nx, int ny)
{
    std::vector<double> out(x.size(), 0.0);
    for (int y = 0; y < ny; ++y) {
        for (int xx = 0; xx < nx; ++xx) {
            const int i = y * nx + xx;
            double acc = 0.0;
            if (xx > 0)
                acc += x[i - 1] - x[i];
            if (xx < nx - 1)
                acc += x[i + 1] - x[i];
            if (y > 0)
                acc += x[i - nx] - x[i];
            if (y < ny - 1)
                acc += x[i + nx] - x[i];
            out[i] = acc;
        }
    }
    return out;
}

/** A one-unit floorplan covering the entire (square or not) die. */
Floorplan
fullDieFloorplan(Meters w, Meters h)
{
    Floorplan fp(w, h);
    fp.addUnit("die", UnitKind::IntALU, {0.0, 0.0, w, h}, 0);
    return fp;
}

} // namespace

// ---------------------------------------------------------------------
// Dct2Plan
// ---------------------------------------------------------------------

TEST(Dct2Plan, RoundTripPow2)
{
    for (int n : {16, 64}) {
        Dct2Plan plan(n, n);
        const std::vector<double> field = randomField(n * n, 7 + n);
        std::vector<double> modes(field.size());
        std::vector<double> back(field.size());
        plan.forward(field.data(), modes.data());
        plan.inverse(modes.data(), back.data());
        for (size_t i = 0; i < field.size(); ++i)
            ASSERT_NEAR(back[i], field[i], 1e-9);
    }
}

TEST(Dct2Plan, RoundTripNonPow2)
{
    Dct2Plan plan(12, 20);
    const std::vector<double> field = randomField(12 * 20, 11);
    std::vector<double> modes(field.size());
    std::vector<double> back(field.size());
    plan.forward(field.data(), modes.data());
    plan.inverse(modes.data(), back.data());
    for (size_t i = 0; i < field.size(); ++i)
        ASSERT_NEAR(back[i], field[i], 1e-9);
}

TEST(Dct2Plan, ModeZeroIsFieldSum)
{
    // The sink node couples to the spreader through the field *sum*,
    // which must be exactly the (0,0) coefficient of the unnormalized
    // DCT-II.
    Dct2Plan plan(16, 16);
    const std::vector<double> field = randomField(256, 3);
    double sum = 0.0;
    for (double v : field)
        sum += v;
    std::vector<double> modes(field.size());
    plan.forward(field.data(), modes.data());
    EXPECT_NEAR(modes[0], sum, std::fabs(sum) * 1e-12);
}

TEST(Dct2Plan, DiagonalizesTheLateralStencil)
{
    // DCT(stencil(x)) == -lam .* DCT(x): the transform's cosine basis
    // satisfies the same half-sample reflective boundary condition as
    // the explicit stencil's missing-neighbor omission, so the solvers
    // integrate the *same* semi-discrete system.
    struct Size { int nx, ny; };
    for (const auto &[nx, ny] : {Size{16, 16}, Size{12, 8}}) {
        Dct2Plan plan(nx, ny);
        const std::vector<double> x = randomField(nx * ny, 19);
        const std::vector<double> sx = applyStencil(x, nx, ny);

        std::vector<double> mx(x.size()), msx(x.size());
        plan.forward(x.data(), mx.data());
        plan.forward(sx.data(), msx.data());

        for (int kx = 0; kx < nx; ++kx) {
            for (int ky = 0; ky < ny; ++ky) {
                const double lam =
                    Dct2Plan::laplacianEigenvalue(kx, nx) +
                    Dct2Plan::laplacianEigenvalue(ky, ny);
                const int m = kx * ny + ky;
                ASSERT_NEAR(msx[m], -lam * mx[m], 1e-7)
                    << "mode (" << kx << ", " << ky << ")";
            }
        }
    }
}

namespace
{

/** cos(pi k (2i + 1) / (2n)) as a [k*n + i] table. */
std::vector<long double>
cosineTable(int n)
{
    const long double pi = 3.141592653589793238462643383279502884L;
    std::vector<long double> c(static_cast<size_t>(n) * n);
    for (int k = 0; k < n; ++k) {
        for (int i = 0; i < n; ++i)
            c[k * n + i] = std::cos(pi * k * (2 * i + 1) / (2.0L * n));
    }
    return c;
}

/**
 * The forward transform exactly as dct.hh defines it, summed term by
 * term one axis at a time (O(n^2) per row) in long double.
 */
std::vector<double>
oracleForward(const std::vector<double> &field, int nx, int ny)
{
    const std::vector<long double> cx = cosineTable(nx);
    const std::vector<long double> cy = cosineTable(ny);
    std::vector<long double> rows(field.size()); // [y*nx + kx]
    for (int y = 0; y < ny; ++y) {
        for (int kx = 0; kx < nx; ++kx) {
            long double acc = 0.0L;
            for (int x = 0; x < nx; ++x)
                acc += field[y * nx + x] * cx[kx * nx + x];
            rows[y * nx + kx] = acc;
        }
    }
    std::vector<double> modes(field.size());
    for (int kx = 0; kx < nx; ++kx) {
        for (int ky = 0; ky < ny; ++ky) {
            long double acc = 0.0L;
            for (int y = 0; y < ny; ++y)
                acc += rows[y * nx + kx] * cy[ky * ny + y];
            modes[kx * ny + ky] = static_cast<double>(acc);
        }
    }
    return modes;
}

/**
 * The matching inverse: field = (2/nx)(2/ny) sum_{kx,ky} w(kx) w(ky)
 * modes[kx*ny + ky] cos(..x..) cos(..y..), with w(0) = 1/2, w(k) = 1.
 */
std::vector<double>
oracleInverse(const std::vector<double> &modes, int nx, int ny)
{
    const std::vector<long double> cx = cosineTable(nx);
    const std::vector<long double> cy = cosineTable(ny);
    const auto w = [](int k) { return k == 0 ? 0.5L : 1.0L; };
    std::vector<long double> cols(modes.size()); // [kx*ny + y]
    for (int kx = 0; kx < nx; ++kx) {
        for (int y = 0; y < ny; ++y) {
            long double acc = 0.0L;
            for (int ky = 0; ky < ny; ++ky)
                acc += w(ky) * modes[kx * ny + ky] * cy[ky * ny + y];
            cols[kx * ny + y] = acc;
        }
    }
    std::vector<double> field(modes.size());
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            long double acc = 0.0L;
            for (int kx = 0; kx < nx; ++kx)
                acc += w(kx) * cols[kx * ny + y] * cx[kx * nx + x];
            field[y * nx + x] =
                static_cast<double>(acc * 4.0L / (1.0L * nx * ny));
        }
    }
    return field;
}

/** Every element within 1e-9 of `want`'s largest magnitude. */
void
expectMatchesOracle(const std::vector<double> &got,
                    const std::vector<double> &want)
{
    double scale = 0.0;
    for (double v : want)
        scale = std::max(scale, std::fabs(v));
    for (size_t i = 0; i < got.size(); ++i)
        ASSERT_NEAR(got[i], want[i], 1e-9 * scale) << "element " << i;
}

template <typename T>
uint64_t
digestOf(const std::vector<T> &v)
{
    Fnv1a h;
    h.addBytes(v.data(), v.size() * sizeof(T));
    return h.digest();
}

} // namespace

TEST(Dct2Plan, MatchesDirectCosineSumOracle)
{
    // 8x8 is exactly one strip; 12x8 pairs a dense axis with a partial
    // strip; 24x24 is dense on both axes; 4x4 is narrower than a strip.
    struct Size { int nx, ny; };
    for (const auto &[nx, ny] :
         {Size{8, 8}, Size{16, 16}, Size{64, 64}, Size{128, 128},
          Size{12, 8}, Size{24, 24}, Size{4, 4}}) {
        SCOPED_TRACE(testing::Message() << nx << "x" << ny);
        Dct2Plan plan(nx, ny);
        const std::vector<double> field = randomField(nx * ny, 5 + nx);

        std::vector<double> modes(field.size());
        plan.forward(field.data(), modes.data());
        expectMatchesOracle(modes, oracleForward(field, nx, ny));

        std::vector<double> back(field.size());
        plan.inverse(field.data(), back.data());
        expectMatchesOracle(back, oracleInverse(field, nx, ny));
    }
}

TEST(Dct2Plan, BitwiseGoldenDigests)
{
    // FNV-1a digests of the two entry points' outputs, pinned with
    // the batched-sweep implementation that preceded the strip
    // kernels. Every dispatched clone must reproduce them bit for bit
    // (DESIGN.md §9.6); a mismatch means some floating-point operation
    // moved, and with it every spectral runHash.
    struct Golden
    {
        int n;
        uint64_t forward, inverse;
    };
    for (const Golden &g :
         {Golden{64, 0xc3e3675128647a06ULL, 0xdb9ddaf9fc3ba16cULL},
          Golden{24, 0x5a599b21c590fb66ULL, 0xdf5a17b84a17daa7ULL}}) {
        SCOPED_TRACE(testing::Message() << g.n << "x" << g.n);
        Dct2Plan plan(g.n, g.n);
        const std::vector<double> field = randomField(g.n * g.n, 2024);
        std::vector<double> modes(field.size());
        std::vector<double> back(field.size());
        plan.forward(field.data(), modes.data());
        plan.inverse(field.data(), back.data());
        EXPECT_EQ(digestOf(modes), g.forward);
        EXPECT_EQ(digestOf(back), g.inverse);
    }
}

// ---------------------------------------------------------------------
// Spectral solver vs the explicit reference
// ---------------------------------------------------------------------

namespace
{

/** Scatter unit powers to cells the way ThermalGrid does. */
std::vector<Watts>
scatterPower(const std::vector<UnitCellMap> &maps,
             const std::vector<Watts> &unit_power, int n)
{
    std::vector<Watts> cell(n, 0.0);
    for (size_t u = 0; u < unit_power.size(); ++u)
        for (size_t k = 0; k < maps[u].cells.size(); ++k)
            cell[maps[u].cells[k]] +=
                unit_power[u] * maps[u].fractions[k];
    return cell;
}

/**
 * Max per-step spectral-vs-explicit divergence over a fig7-style run:
 * each step the raw spectral solver is re-synced to the explicit
 * grid's state, both advance one telemetry interval from that shared
 * state, and the fields are compared. `dt_safety` controls the
 * explicit reference's substep.
 */
double
perStepDivergence(double dt_safety, int steps)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams pe;
    pe.dtSafety = dt_safety;
    ThermalGrid ge(fp, pe);
    SpectralThermalSolver solver(ge.spectralNetwork());
    const std::vector<UnitCellMap> maps = fp.rasterize(pe.nx, pe.ny);

    Rng rng(2023);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    std::vector<double> ssi, ssp;
    double max_err = 0.0;
    for (int step = 0; step < steps; ++step) {
        if (step % 12 == 0) {
            for (double &p : power)
                p = rng.uniform(0.0, 8.0);
            ge.setUnitPower(power);
            solver.setPower(
                scatterPower(maps, power, ge.numCells()));
        }
        solver.loadState(ge.siliconTemps(), ge.spreaderTemps(),
                         ge.sinkTemp());
        solver.step(kTelemetryStep);
        ge.step(kTelemetryStep);
        solver.realizeSilicon(ssi);
        solver.realizeSpreader(ssp);
        const std::vector<Celsius> &te = ge.siliconTemps();
        const std::vector<Celsius> &tp = ge.spreaderTemps();
        for (size_t i = 0; i < te.size(); ++i) {
            max_err = std::max(max_err, std::fabs(te[i] - ssi[i]));
            max_err = std::max(max_err, std::fabs(tp[i] - ssp[i]));
        }
        max_err = std::max(
            max_err, std::fabs(ge.sinkTemp() - solver.sinkTemp()));
    }
    return max_err;
}

} // namespace

TEST(SpectralSolver, PerStepDivergenceWithinShadowBound)
{
    // Per-step divergence from the production explicit reference stays
    // under the checked-build shadow tolerance, so shadow verification
    // never falls back on realistic runs. The divergence is dominated
    // by the reference's own forward-Euler truncation (it shrinks
    // ~linearly with dtSafety; see WithinBoundOfRefinedReference).
    const double bound = ThermalParams{}.spectralShadowTolerance;
    EXPECT_LT(perStepDivergence(ThermalParams{}.dtSafety, 240), bound);
}

TEST(SpectralSolver, WithinBoundOfRefinedReference)
{
    // The headline accuracy claim (DESIGN.md §9.3): against a
    // 16x-refined explicit reference — whose truncation error is
    // correspondingly 16x smaller, i.e. near-exact — the spectral step
    // is within the documented 0.05 C bound per step (measured
    // ~0.011 C; most of even that is the reference's residual error).
    EXPECT_LT(perStepDivergence(0.025, 120), 0.05);
}

TEST(SpectralSolver, MatchesExplicitOnNonPow2Grid)
{
    // Exercises the dense-transform DCT fallback end to end.
    Floorplan fp = fullDieFloorplan(12e-3, 20e-3);
    fp.addUnit("hot", UnitKind::FPU, {1e-3, 2e-3, 4e-3, 6e-3}, 0);
    ThermalParams pe;
    pe.nx = 12;
    pe.ny = 20;
    ThermalParams ps = pe;
    ps.solver = ThermalSolverKind::Spectral;
    ps.spectralShadowCheck = false;
    ThermalGrid ge(fp, pe);
    ThermalGrid gs(fp, ps);

    const std::vector<Watts> power{4.0, 12.0};
    ge.setUnitPower(power);
    gs.setUnitPower(power);
    double max_err = 0.0;
    for (int step = 0; step < 100; ++step) {
        ge.step(kTelemetryStep);
        gs.step(kTelemetryStep);
        const std::vector<Celsius> &te = ge.siliconTemps();
        const std::vector<Celsius> &ts = gs.siliconTemps();
        for (size_t i = 0; i < te.size(); ++i)
            max_err = std::max(max_err, std::fabs(te[i] - ts[i]));
    }
    EXPECT_LT(max_err, 0.05);
}

TEST(SpectralSolver, ZeroPowerStaysAtAmbient)
{
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams p;
    p.nx = 16;
    p.ny = 16;
    p.solver = ThermalSolverKind::Spectral;
    ThermalGrid grid(fp, p);
    grid.setUnitPower(std::vector<Watts>(fp.numUnits(), 0.0));
    for (int i = 0; i < 100; ++i)
        grid.step(kTelemetryStep);
    EXPECT_NEAR(grid.maxSiliconTemp(), kAmbient, 1e-9);
    EXPECT_NEAR(grid.sinkTemp(), kAmbient, 1e-9);
}

TEST(SpectralSolver, DeterministicAcrossInstances)
{
    // Two identical spectral grids must produce bit-identical
    // trajectories — the pipeline runHash audit depends on it.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams p;
    p.solver = ThermalSolverKind::Spectral;
    p.spectralShadowCheck = false;
    ThermalGrid a(fp, p);
    ThermalGrid b(fp, p);

    Rng rng(77);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    for (int step = 0; step < 50; ++step) {
        if (step % 12 == 0)
            for (double &w : power)
                w = rng.uniform(0.0, 10.0);
        a.setUnitPower(power);
        b.setUnitPower(power);
        a.step(kTelemetryStep);
        b.step(kTelemetryStep);
    }
    const std::vector<Celsius> &ta = a.siliconTemps();
    const std::vector<Celsius> &tb = b.siliconTemps();
    for (size_t i = 0; i < ta.size(); ++i)
        ASSERT_EQ(ta[i], tb[i]);
    EXPECT_EQ(a.sinkTemp(), b.sinkTemp());
}

TEST(SpectralThermalSolver, LoadRealizeRoundTripIsExact)
{
    // The mode-space state is double end to end, so a load -> realize
    // round trip is the DCT's own round trip: no precision is lost and
    // the field mean (mode 0) shifts by roundoff only.
    const Floorplan fp = buildSkylakeFloorplan();
    const ThermalGrid grid(fp, ThermalParams{});
    SpectralThermalSolver solver(grid.spectralNetwork());
    const int n = grid.numCells();
    const std::vector<double> si = randomField(n, 41);
    const std::vector<double> sp = randomField(n, 43);
    solver.loadState(si, sp, 50.0);

    std::vector<double> back;
    for (bool silicon : {true, false}) {
        SCOPED_TRACE(silicon ? "silicon" : "spreader");
        const std::vector<double> &want = silicon ? si : sp;
        if (silicon)
            solver.realizeSilicon(back);
        else
            solver.realizeSpreader(back);
        double max_err = 0.0;
        double shift = 0.0;
        for (int i = 0; i < n; ++i) {
            max_err = std::max(max_err, std::fabs(back[i] - want[i]));
            shift += back[i] - want[i];
        }
        EXPECT_LE(max_err, 1e-12);
        EXPECT_LE(std::fabs(shift / n), 1e-13);
    }
    EXPECT_EQ(solver.sinkTemp(), 50.0);
}

TEST(SpectralThermalSolver, BitwiseTrajectoryDigest)
{
    // FNV-1a digest of a 3000-step spectral trajectory (power redrawn
    // every decision period, silicon field and sink hashed after each
    // period). The DCT and the mode sweep are dispatched to the same
    // AVX-512 / AVX2 / baseline clones, built without FMA
    // contraction, so every host must reproduce this digest bit for
    // bit (DESIGN.md §9.6).
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams p;
    p.solver = ThermalSolverKind::Spectral;
    p.spectralShadowCheck = false;
    ThermalGrid grid(fp, p);

    Rng rng(3000);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    Fnv1a h;
    for (int step = 0; step < 3000; ++step) {
        if (step % 12 == 0) {
            for (Watts &w : power)
                w = rng.uniform(0.0, 8.0);
            grid.setUnitPower(power);
        }
        grid.step(kTelemetryStep);
        if (step % 12 == 11) {
            h.add(grid.siliconTemps());
            h.add(grid.sinkTemp());
        }
    }
    EXPECT_EQ(h.digest(), 0xbb92d66f7f49e258ULL);
}

// ---------------------------------------------------------------------
// Analytic closed-form solutions (both integrators)
// ---------------------------------------------------------------------

namespace
{

/**
 * Closed-form uniform-power steady state of the resistance chain.
 * Uniform power means zero lateral flux, so the grid collapses to
 * silicon -> spreader -> sink -> ambient in series:
 *
 *   T_sink = Ta + P * R_amb
 *   T_sp   = T_sink + P * R_spread         (per cell: (P/n)/gSinkCell)
 *   T_si   = T_sp + (P/n) / gVert
 */
struct SteadyExpect
{
    double sink, sp, si;
};

SteadyExpect
steadyExpect(const ThermalGrid &grid, Watts total_power)
{
    const ThermalParams &p = grid.params();
    SteadyExpect e;
    e.sink = p.ambient + total_power * p.sinkAmbientResistance;
    e.sp = e.sink + total_power * p.sinkSpreadResistance;
    const double p_cell = total_power / grid.numCells();
    // Reconstruct gVert exactly the way computeConstants() does.
    const double cell_area =
        (8e-3 / p.nx) * (8e-3 / p.ny);
    const double r_si =
        0.5 * p.siThickness / (p.siConductivity * cell_area);
    const double r_tim =
        p.timThickness / (p.timConductivity * cell_area);
    const double r_sp =
        0.5 * p.spreaderThickness / (p.cuConductivity * cell_area);
    e.si = e.sp + p_cell * (r_si + r_tim + r_sp);
    return e;
}

void
expectUniformSteadyState(ThermalSolverKind kind, Seconds dt, int steps)
{
    const Floorplan fp = fullDieFloorplan(8e-3, 8e-3);
    ThermalParams p;
    p.nx = 8;
    p.ny = 8;
    p.solver = kind;
    p.spectralShadowCheck = false; // coarse dt; explicit would disagree
    p.sinkCapacitance = 0.5;       // small sink so the test converges
    ThermalGrid grid(fp, p);

    const Watts total = 20.0;
    grid.setUnitPower({total});
    for (int i = 0; i < steps; ++i)
        grid.step(dt);

    const SteadyExpect e = steadyExpect(grid, total);
    EXPECT_NEAR(grid.sinkTemp(), e.sink, 1e-3);
    for (Celsius t : grid.siliconTemps())
        EXPECT_NEAR(t, e.si, 1e-3);
}

} // namespace

TEST(AnalyticSteadyState, ExplicitMatchesResistanceChain)
{
    // Forward Euler's fixed point solves A x + b = 0 exactly, so after
    // settling the explicit field must hit the closed form to within
    // the residual transient (~1e-5 C after ~25 time constants).
    expectUniformSteadyState(ThermalSolverKind::Explicit, 5e-3, 800);
}

TEST(AnalyticSteadyState, SpectralMatchesResistanceChain)
{
    // The exponential integrator has no stability limit: second-scale
    // steps are exact, so far fewer steps reach the same fixed point.
    expectUniformSteadyState(ThermalSolverKind::Spectral, 0.1, 50);
}

namespace
{

void
expectExponentialCooling(ThermalSolverKind kind, Seconds dt, int steps)
{
    // Zero power, everything starting hot and uniform: the internal
    // capacitances (~0.24 J/K) ride the dominant sink mode
    // (C = 150 J/K), so the stack cools as a single exponential with
    //   tau = R_amb * (C_sink + C_si_total + C_sp_total)
    // to within ~0.2 % (interior-resistance correction).
    const Floorplan fp = fullDieFloorplan(8e-3, 8e-3);
    ThermalParams p;
    p.nx = 8;
    p.ny = 8;
    p.solver = kind;
    p.spectralShadowCheck = false;
    ThermalGrid grid(fp, p);

    const double delta0 = 20.0;
    grid.reset(p.ambient + delta0);
    grid.setUnitPower({0.0});
    for (int i = 0; i < steps; ++i)
        grid.step(dt);
    const Seconds elapsed = dt * steps;

    const double die_area = 8e-3 * 8e-3;
    const double c_si = p.siVolHeatCap * die_area * p.siThickness;
    const double c_sp = p.cuVolHeatCap * die_area * p.spreaderThickness;
    const double tau =
        p.sinkAmbientResistance * (p.sinkCapacitance + c_si + c_sp);
    const double expected =
        p.ambient + delta0 * std::exp(-elapsed / tau);

    EXPECT_NEAR(grid.sinkTemp(), expected, 0.1);
    EXPECT_NEAR(grid.maxSiliconTemp(), expected, 0.1);
}

} // namespace

TEST(AnalyticCooling, ExplicitMatchesTimeConstant)
{
    expectExponentialCooling(ThermalSolverKind::Explicit, 2e-3, 1500);
}

TEST(AnalyticCooling, SpectralMatchesTimeConstant)
{
    expectExponentialCooling(ThermalSolverKind::Spectral, 0.1, 30);
}

// ---------------------------------------------------------------------
// Checked-build shadow verification
// ---------------------------------------------------------------------

TEST(SpectralShadow, ZeroToleranceFallsBackToExplicitExactly)
{
    if (!kCheckedBuild)
        GTEST_SKIP() << "shadow verification is checked-build only";

    // With the divergence bound forced to zero the shadow run rejects
    // every spectral step, so the grid must reproduce the explicit
    // trajectory bit for bit — proving both that the fallback engages
    // and that it adopts the reference result wholesale.
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams pe;
    pe.nx = 16;
    pe.ny = 16;
    ThermalParams ps = pe;
    ps.solver = ThermalSolverKind::Spectral;
    ps.spectralShadowCheck = true;
    ps.spectralShadowTolerance = 0.0;
    ThermalGrid ge(fp, pe);
    ThermalGrid gs(fp, ps);

    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::FPU, 0)] = 6.0;
    ge.setUnitPower(power);
    gs.setUnitPower(power);
    for (int i = 0; i < 20; ++i) {
        ge.step(kTelemetryStep);
        gs.step(kTelemetryStep);
    }
    const std::vector<Celsius> &te = ge.siliconTemps();
    const std::vector<Celsius> &ts = gs.siliconTemps();
    for (size_t i = 0; i < te.size(); ++i)
        ASSERT_EQ(ts[i], te[i]);
    EXPECT_EQ(gs.sinkTemp(), ge.sinkTemp());
}

// ---------------------------------------------------------------------
// Solver selection plumbing
// ---------------------------------------------------------------------

TEST(SolverSelection, NamesRoundTrip)
{
    for (ThermalSolverKind kind :
         {ThermalSolverKind::Explicit, ThermalSolverKind::Spectral})
        EXPECT_EQ(parseThermalSolverName(thermalSolverName(kind)), kind);
}

using SolverSelectionDeathTest = ::testing::Test;

TEST(SolverSelectionDeathTest, UnknownNameIsFatal)
{
    for (const char *name : {"crank-nicolson", "surrogate"}) {
        EXPECT_DEATH(parseThermalSolverName(name),
                     "unknown thermal solver.*want explicit\\|spectral\\)");
    }
}
