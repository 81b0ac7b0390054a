/**
 * @file
 * Tests for the spectral thermal path: the 2-D DCT plan, the
 * mode-space exponential integrator against the forward-Euler
 * reference, analytic closed-form solutions for both integrators, and
 * the checked-build shadow run (DESIGN.md §9).
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
#include "obs/metrics.hh"
#include "thermal/explicit_reference.hh"
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
 * Apply the forward-Euler reference's lateral stencil (missing boundary
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
    // FNV-1a digests of the two entry points' outputs. The 64x64 and
    // 24x24 rows were pinned with the batched-sweep implementation that
    // preceded the strip kernels; the others were pinned before the
    // Lee sweep plans were regrouped: every plan shape from 2 to 128
    // points, non-square grids, and a partial strip on the dense path.
    // Every dispatched clone must reproduce them bit for bit
    // (DESIGN.md §9.6); a mismatch means some floating-point operation
    // moved, and with it every spectral runHash.
    struct Golden
    {
        int nx, ny;
        uint64_t forward, inverse;
    };
    for (const Golden &g :
         {Golden{64, 64, 0xc3e3675128647a06ULL, 0xdb9ddaf9fc3ba16cULL},
          Golden{24, 24, 0x5a599b21c590fb66ULL, 0xdf5a17b84a17daa7ULL},
          Golden{8, 8, 0x37aca89432907bb5ULL, 0x908ffb350dc8e170ULL},
          Golden{16, 16, 0xe522eb191983229dULL, 0x03679e7b1d78e541ULL},
          Golden{32, 32, 0xa5c8964e41b76100ULL, 0xa0d07d21446cef8eULL},
          Golden{128, 128, 0xd8459aab62da28b1ULL, 0xa32e9700474faa49ULL},
          Golden{64, 32, 0x4e02d1ed7db51758ULL, 0x650ffb7c820fde3eULL},
          Golden{32, 128, 0xc32a8d47f766b9aeULL, 0xde909a58e9861999ULL},
          Golden{12, 8, 0x30234e492a43c69aULL, 0xf53af5a1951228b0ULL},
          Golden{4, 2, 0x4a35a2cbce4a8f9dULL, 0x84015a6d48fe5935ULL}}) {
        SCOPED_TRACE(testing::Message() << g.nx << "x" << g.ny);
        Dct2Plan plan(g.nx, g.ny);
        const std::vector<double> field = randomField(g.nx * g.ny, 2024);
        std::vector<double> modes(field.size());
        std::vector<double> back(field.size());
        plan.forward(field.data(), modes.data());
        plan.inverse(field.data(), back.data());
        EXPECT_EQ(digestOf(modes), g.forward);
        EXPECT_EQ(digestOf(back), g.inverse);
    }
}

// ---------------------------------------------------------------------
// Spectral solver vs the forward-Euler reference
// ---------------------------------------------------------------------

namespace
{

/** One fig7-style run of perStepDivergence. */
struct DivergenceRun
{
    int nx = 64;
    int ny = 64;
    Seconds dt = kTelemetryStep;
    double safety = ExplicitReference::kShadowDtSafety;
    int steps = 240;
    /** Fault injection: scales the spectral solver's gLatSi only. */
    double gLatSiScale = 1.0;
};

/** What perStepDivergence measured. */
struct Divergence
{
    double maxErr = 0.0;   ///< max abs divergence, any node or step, C
    double maxRatio = 0.0; ///< max over steps of divergence / bound
    /** Every step within its truncation bound plus 1e-9 C. */
    bool boundHeld = true;
};

/**
 * Per-step spectral-vs-reference divergence over a fig7-style run on
 * `fp`: power redrawn every decision period; each step the raw
 * spectral solver is re-synced to the forward-Euler reference's state,
 * both advance one dt from that shared state, and the fields are
 * compared against the reference's proven truncation bound for the
 * step (ExplicitReference::truncationBound).
 */
Divergence
perStepDivergence(const Floorplan &fp, const DivergenceRun &run)
{
    ThermalParams p;
    p.nx = run.nx;
    p.ny = run.ny;
    ThermalGrid grid(fp, p);
    SpectralNetwork solver_net = grid.spectralNetwork();
    solver_net.gLatSi *= run.gLatSiScale;
    SpectralThermalSolver solver(solver_net);
    ExplicitReference ref(grid.spectralNetwork(), run.safety);

    Rng rng(2023);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    std::vector<double> ssi, ssp;
    Divergence out;
    for (int step = 0; step < run.steps; ++step) {
        if (step % 12 == 0) {
            for (double &w : power)
                w = rng.uniform(0.0, 8.0);
            grid.setUnitPower(power);
            solver.setPower(grid.cellPower());
            ref.setPower(grid.cellPower());
        }
        solver.loadState(ref.silicon(), ref.spreader(), ref.sinkTemp());
        const double bound = ref.truncationBound(run.dt);
        solver.step(run.dt);
        ref.step(run.dt);
        solver.realizeSilicon(ssi);
        solver.realizeSpreader(ssp);
        const std::vector<Celsius> &te = ref.silicon();
        const std::vector<Celsius> &tp = ref.spreader();
        double err = std::fabs(ref.sinkTemp() - solver.sinkTemp());
        for (size_t i = 0; i < te.size(); ++i) {
            err = std::max(err, std::fabs(te[i] - ssi[i]));
            err = std::max(err, std::fabs(tp[i] - ssp[i]));
        }
        out.maxErr = std::max(out.maxErr, err);
        out.maxRatio = std::max(out.maxRatio, err / bound);
        out.boundHeld = out.boundHeld && err <= bound + 1e-9;
    }
    return out;
}

/** The 12x20 dense-transform grid: a full die plus one hot unit. */
Floorplan
denseGridFloorplan()
{
    Floorplan fp = fullDieFloorplan(12e-3, 20e-3);
    fp.addUnit("hot", UnitKind::FPU, {1e-3, 2e-3, 4e-3, 6e-3}, 0);
    return fp;
}

/** Every grid the truncation-bound tests cover, at 80 and 800 us. */
std::vector<DivergenceRun>
boundRuns()
{
    std::vector<DivergenceRun> runs;
    for (Seconds dt : {kTelemetryStep, 10 * kTelemetryStep}) {
        for (int n : {64, 32, 24, 16})
            runs.push_back({.nx = n, .ny = n, .dt = dt});
        runs.push_back({.nx = 12, .ny = 20, .dt = dt});
    }
    return runs;
}

/** perStepDivergence on the floorplan `run`'s grid is built for. */
Divergence
boundRunDivergence(const DivergenceRun &run)
{
    const Floorplan fp = run.nx == run.ny ? buildSkylakeFloorplan()
                                          : denseGridFloorplan();
    return perStepDivergence(fp, run);
}

} // namespace

TEST(SpectralSolver, PerStepDivergenceWithinShadowBound)
{
    // Per-step divergence from the reference at the shadow run's
    // safety factor stays under 0.25 C on the default grid. It is
    // dominated by the reference's own forward-Euler truncation (it
    // shrinks ~linearly with the safety factor; see
    // WithinBoundOfRefinedReference).
    EXPECT_LT(perStepDivergence(buildSkylakeFloorplan(), {}).maxErr,
              0.25);
}

TEST(SpectralSolver, WithinBoundOfRefinedReference)
{
    // The headline accuracy claim (DESIGN.md §9.3): against a
    // 16x-refined forward-Euler reference — whose truncation error is
    // correspondingly 16x smaller, i.e. near-exact — the spectral step
    // is within the documented 0.05 C bound per step (measured
    // ~0.011 C; most of even that is the reference's residual error).
    EXPECT_LT(perStepDivergence(buildSkylakeFloorplan(),
                                {.safety = 0.025, .steps = 120})
                  .maxErr,
              0.05);
}

TEST(ExplicitReference, TruncationBoundHolds)
{
    // The spectral step is exact up to round-off, so every step must
    // land within the reference's proven truncation bound: on the
    // pow2 and dense-transform grids, at the telemetry step and 10x it.
    for (const DivergenceRun &run : boundRuns()) {
        SCOPED_TRACE(testing::Message() << run.nx << "x" << run.ny
                                        << " dt " << run.dt);
        EXPECT_TRUE(boundRunDivergence(run).boundHeld);
    }
}

TEST(ExplicitReference, TruncationBoundIsTight)
{
    // A bound no step comes near would pass faults too. At the
    // telemetry step some step reaches 90% of it on every grid (0.93 to
    // 0.99); at 10x the step the transient decays within the step, so
    // the bound, sized by the start-of-step curvature, is looser (0.80
    // at 64x64 up to 0.98 on the dense grid) and the floor is 75%.
    for (const DivergenceRun &run : boundRuns()) {
        SCOPED_TRACE(testing::Message() << run.nx << "x" << run.ny
                                        << " dt " << run.dt);
        EXPECT_GE(boundRunDivergence(run).maxRatio,
                  run.dt == kTelemetryStep ? 0.9 : 0.75);
    }
}

TEST(ExplicitReference, TruncationBoundCatchesSiliconConductanceFault)
{
    // A spectral solver built with the silicon lateral conductance 1%
    // off exceeds the bound on some step, although its divergence stays
    // under the 0.25 C a fixed tolerance would allow.
    const Divergence d = perStepDivergence(buildSkylakeFloorplan(),
                                           {.gLatSiScale = 1.01});
    EXPECT_FALSE(d.boundHeld);
    EXPECT_LT(d.maxErr, 0.25);
}

TEST(ExplicitReference, BitwiseTrajectoryDigest)
{
    // FNV-1a digest of 300 forward-Euler steps (power redrawn every
    // decision period; silicon, spreader and sink hashed after every
    // step) at three safety factors on two grids. The reference is the
    // yardstick every spectral step is judged by, so its stencil must
    // keep one operation order bit for bit.
    struct Golden
    {
        int n;
        double safety;
        uint64_t digest;
    };
    const Floorplan fp = buildSkylakeFloorplan();
    for (const Golden &g : {Golden{64, 0.4, 0x9a75c1247d82baacULL},
                            Golden{64, 0.1, 0xc0b6a267a457db8bULL},
                            Golden{64, 0.025, 0x19eacd9692206efbULL},
                            Golden{16, 0.4, 0x4b42d5dade8ef9a7ULL},
                            Golden{16, 0.1, 0x5a943941ee518dafULL},
                            Golden{16, 0.025, 0x1d7664143e131595ULL}}) {
        SCOPED_TRACE(testing::Message()
                     << g.n << "x" << g.n << " safety " << g.safety);
        ThermalParams p;
        p.nx = g.n;
        p.ny = g.n;
        ThermalGrid grid(fp, p);
        ExplicitReference ref(grid.spectralNetwork(), g.safety);

        Rng rng(300);
        std::vector<Watts> power(fp.numUnits(), 0.0);
        Fnv1a h;
        for (int step = 0; step < 300; ++step) {
            if (step % 12 == 0) {
                for (Watts &w : power)
                    w = rng.uniform(0.0, 8.0);
                grid.setUnitPower(power);
                ref.setPower(grid.cellPower());
            }
            ref.step(kTelemetryStep);
            h.add(ref.silicon());
            h.add(ref.spreader());
            h.add(ref.sinkTemp());
        }
        EXPECT_EQ(h.digest(), g.digest);
    }
}

TEST(SpectralSolver, MatchesExplicitOnNonPow2Grid)
{
    // Exercises the dense-transform DCT fallback end to end.
    const Floorplan fp = denseGridFloorplan();
    ThermalParams p;
    p.nx = 12;
    p.ny = 20;
    ThermalGrid grid(fp, p);
    ExplicitReference ref(grid.spectralNetwork(),
                          ExplicitReference::kShadowDtSafety);

    grid.setUnitPower({4.0, 12.0});
    ref.setPower(grid.cellPower());
    double max_err = 0.0;
    for (int step = 0; step < 100; ++step) {
        ref.step(kTelemetryStep);
        grid.step(kTelemetryStep);
        const std::vector<Celsius> &te = ref.silicon();
        const std::vector<Celsius> &ts = grid.siliconTemps();
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
    ThermalGrid a(fp, ThermalParams{});
    ThermalGrid b(fp, ThermalParams{});

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
    ThermalGrid grid(fp, ThermalParams{});

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

/** Which integrator an analytic test drives. */
enum class Integrator
{
    ForwardEuler, ///< ExplicitReference on the grid's network
    Spectral,     ///< the ThermalGrid itself
};

/** Final state of one run. */
struct RunEnd
{
    std::vector<Celsius> si;
    Celsius sink = 0.0;
};

/**
 * Start `grid`'s network uniformly at `start` under `unit_power` and
 * take `steps` steps of dt with the chosen integrator.
 */
RunEnd
runIntegrator(Integrator integrator, ThermalGrid &grid, Celsius start,
              const std::vector<Watts> &unit_power, Seconds dt,
              int steps)
{
    grid.reset(start);
    grid.setUnitPower(unit_power);
    if (integrator == Integrator::Spectral) {
        for (int i = 0; i < steps; ++i)
            grid.step(dt);
        return {grid.siliconTemps(), grid.sinkTemp()};
    }
    ExplicitReference ref(grid.spectralNetwork(),
                          ExplicitReference::kShadowDtSafety);
    ref.loadState(grid.siliconTemps(), grid.spreaderTemps(),
                  grid.sinkTemp());
    ref.setPower(grid.cellPower());
    for (int i = 0; i < steps; ++i)
        ref.step(dt);
    return {ref.silicon(), ref.sinkTemp()};
}

void
expectUniformSteadyState(Integrator integrator, Seconds dt, int steps)
{
    const Floorplan fp = fullDieFloorplan(8e-3, 8e-3);
    ThermalParams p;
    p.nx = 8;
    p.ny = 8;
    p.sinkCapacitance = 0.5; // small sink so the test converges
    ThermalGrid grid(fp, p);

    const Watts total = 20.0;
    const RunEnd end =
        runIntegrator(integrator, grid, p.ambient, {total}, dt, steps);

    const SteadyExpect e = steadyExpect(grid, total);
    EXPECT_NEAR(end.sink, e.sink, 1e-3);
    for (Celsius t : end.si)
        EXPECT_NEAR(t, e.si, 1e-3);
}

} // namespace

TEST(AnalyticSteadyState, ExplicitMatchesResistanceChain)
{
    // Forward Euler's fixed point solves A x + b = 0 exactly, so after
    // settling the reference field must hit the closed form to within
    // the residual transient (~1e-5 C after ~25 time constants).
    expectUniformSteadyState(Integrator::ForwardEuler, 5e-3, 800);
}

TEST(AnalyticSteadyState, SpectralMatchesResistanceChain)
{
    // The exponential integrator has no stability limit: second-scale
    // steps are exact, so far fewer steps reach the same fixed point.
    expectUniformSteadyState(Integrator::Spectral, 0.1, 50);
}

namespace
{

void
expectExponentialCooling(Integrator integrator, Seconds dt, int steps)
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
    ThermalGrid grid(fp, p);

    const double delta0 = 20.0;
    const RunEnd end = runIntegrator(integrator, grid, p.ambient + delta0,
                                     {0.0}, dt, steps);
    const Seconds elapsed = dt * steps;

    const double die_area = 8e-3 * 8e-3;
    const double c_si = p.siVolHeatCap * die_area * p.siThickness;
    const double c_sp = p.cuVolHeatCap * die_area * p.spreaderThickness;
    const double tau =
        p.sinkAmbientResistance * (p.sinkCapacitance + c_si + c_sp);
    const double expected =
        p.ambient + delta0 * std::exp(-elapsed / tau);

    EXPECT_NEAR(end.sink, expected, 0.1);
    EXPECT_NEAR(*std::max_element(end.si.begin(), end.si.end()), expected,
                0.1);
}

} // namespace

TEST(AnalyticCooling, ExplicitMatchesTimeConstant)
{
    expectExponentialCooling(Integrator::ForwardEuler, 2e-3, 1500);
}

TEST(AnalyticCooling, SpectralMatchesTimeConstant)
{
    expectExponentialCooling(Integrator::Spectral, 0.1, 30);
}

// ---------------------------------------------------------------------
// Checked-build shadow verification
// ---------------------------------------------------------------------

TEST(SpectralShadow, RunsOnEveryCheckedStep)
{
    // Checked builds shadow every grid step with the reference, with no
    // opt-out; release builds compile the shadow out. This 16x16 grid
    // under a 6 W FPU is one the shadow's old fixed 0.25 C tolerance
    // rejected; its proven truncation bound passes it.
    obs::MetricsRegistry &metrics = obs::MetricsRegistry::global();
    metrics.reset();
    metrics.setEnabled(true);
    const Floorplan fp = buildSkylakeFloorplan();
    ThermalParams p;
    p.nx = 16;
    p.ny = 16;
    ThermalGrid grid(fp, p);
    std::vector<Watts> power(fp.numUnits(), 0.0);
    power[fp.findUnit(UnitKind::FPU, 0)] = 6.0;
    grid.setUnitPower(power);
    constexpr int kSteps = 20;
    for (int i = 0; i < kSteps; ++i)
        grid.step(kTelemetryStep);
    const obs::MetricsSnapshot snap = metrics.snapshot();
    metrics.setEnabled(false);
    metrics.reset();

    const auto it = snap.counters.find("thermal.spectral.shadow_steps");
    const uint64_t shadowed = it == snap.counters.end() ? 0 : it->second;
    EXPECT_EQ(shadowed, kCheckedBuild ? uint64_t{kSteps} : 0);
}
