/** @file Unit tests for MLTD and the Hotspot-Severity metric. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <deque>
#include <limits>
#include <tuple>

#include "common/hash.hh"
#include "common/rng.hh"
#include "hotspot/severity.hh"

using namespace boreas;

TEST(Severity, PaperAnchorsAreExactlyOne)
{
    // Fig. 1: severity is 1.0 at (115, 0), (95, 20) and (80, 40).
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.severity(115.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(model.severity(95.0, 20.0), 1.0);
    EXPECT_DOUBLE_EQ(model.severity(80.0, 40.0), 1.0);
}

TEST(Severity, ReferenceTemperatureIsZeroSeverity)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.severity(45.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(model.severity(45.0, 30.0), 0.0);
    // Below reference clamps to zero.
    EXPECT_DOUBLE_EQ(model.severity(20.0, 0.0), 0.0);
}

class SeverityMonotonicity
    : public ::testing::TestWithParam<std::tuple<double, double>>
{
};

TEST_P(SeverityMonotonicity, IncreasesWithTempAndMltd)
{
    const auto [t, m] = GetParam();
    SeverityModel model;
    EXPECT_GT(model.severity(t + 5.0, m), model.severity(t, m));
    EXPECT_GE(model.severity(t, m + 5.0), model.severity(t, m));
    if (t > 45.0) {
        EXPECT_GT(model.severity(t, m + 5.0), model.severity(t, m));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SeverityMonotonicity,
    ::testing::Combine(::testing::Values(50.0, 70.0, 90.0, 110.0),
                       ::testing::Values(0.0, 10.0, 25.0, 45.0)));

TEST(Severity, CriticalTempPiecewiseSegments)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.criticalTemp(0.0), 115.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(10.0), 105.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(20.0), 95.0);
    EXPECT_DOUBLE_EQ(model.criticalTemp(30.0), 87.5);
    EXPECT_DOUBLE_EQ(model.criticalTemp(40.0), 80.0);
}

TEST(Severity, CriticalTempClampsAtFloor)
{
    SeverityModel model;
    EXPECT_GE(model.criticalTemp(100.0), model.params().tCritFloor);
    EXPECT_DOUBLE_EQ(model.criticalTemp(1000.0),
                     model.params().tCritFloor);
}

TEST(Severity, NegativeMltdTreatedAsUniform)
{
    SeverityModel model;
    EXPECT_DOUBLE_EQ(model.criticalTemp(-5.0), 115.0);
}

TEST(SeverityDeathTest, RejectsNonDecreasingAnchors)
{
    SeverityParams bad;
    bad.tCritMid = 120.0; // above tCritUniform
    EXPECT_DEATH(SeverityModel{bad}, "decreasing");
}

TEST(SeverityDeathTest, RejectsNonPositiveOrNonFiniteRadius)
{
    for (double radius : {0.0, -1.0e-3, std::nan(""),
                          std::numeric_limits<double>::infinity()}) {
        SeverityParams bad;
        bad.mltdRadius = radius;
        EXPECT_DEATH(SeverityModel{bad}, "mltdRadius");
    }
}

TEST(SeverityDeathTest, RejectsNonPositiveOrNonFiniteCellSize)
{
    SeverityModel model;
    const std::vector<Celsius> temps(16, 60.0);
    for (double cell : {0.0, -0.5e-3, std::nan(""),
                        std::numeric_limits<double>::infinity()}) {
        EXPECT_DEATH(model.evaluate(temps, 4, 4, cell), "cell_size");
        EXPECT_DEATH(model.mltdField(temps, 4, 4, cell), "cell_size");
    }
}

TEST(Mltd, UniformFieldIsZero)
{
    SeverityModel model;
    const std::vector<Celsius> temps(64, 70.0);
    const auto mltd = model.mltdField(temps, 8, 8, 0.25e-3);
    for (Celsius m : mltd)
        EXPECT_DOUBLE_EQ(m, 0.0);
}

TEST(Mltd, SingleHotCellSeesDropToNeighbors)
{
    SeverityModel model; // radius 1 mm
    const int nx = 8, ny = 8;
    std::vector<Celsius> temps(nx * ny, 50.0);
    temps[3 * nx + 3] = 90.0;
    // Cell size 0.5 mm -> radius 2 cells.
    const auto mltd = model.mltdField(temps, nx, ny, 0.5e-3);
    EXPECT_DOUBLE_EQ(mltd[3 * nx + 3], 40.0);
    // The cold neighbors see no drop (they ARE the minimum).
    EXPECT_DOUBLE_EQ(mltd[0], 0.0);
}

TEST(Mltd, RadiusLimitsVisibility)
{
    SeverityParams params;
    params.mltdRadius = 0.5e-3; // 1 cell at 0.5 mm cells
    SeverityModel model(params);
    const int nx = 9, ny = 9;
    std::vector<Celsius> temps(nx * ny, 80.0);
    temps[0] = 40.0; // cold corner
    const auto mltd = model.mltdField(temps, nx, ny, 0.5e-3);
    // Adjacent cell sees the drop; a cell 4 away does not.
    EXPECT_DOUBLE_EQ(mltd[1], 40.0);
    EXPECT_DOUBLE_EQ(mltd[5], 0.0);
}

TEST(Mltd, TinyCellSizeSeesWholeGrid)
{
    // A radius of ~1e297 cells covers the whole grid; the window is
    // clamped to the grid rather than rounded from an overflowing ratio.
    SeverityModel model;
    const int nx = 8, ny = 8;
    std::vector<Celsius> temps(nx * ny, 70.0);
    temps[0] = 40.0;
    temps[nx * ny - 1] = 90.0;
    const auto mltd = model.mltdField(temps, nx, ny, 1.0e-300);
    EXPECT_DOUBLE_EQ(mltd[nx * ny - 1], 50.0);
    EXPECT_DOUBLE_EQ(mltd[nx + 4], 30.0);
}

TEST(Mltd, GradientFieldDropWithinWindow)
{
    SeverityModel model;
    const int nx = 16, ny = 4;
    std::vector<Celsius> temps(nx * ny);
    for (int y = 0; y < ny; ++y)
        for (int x = 0; x < nx; ++x)
            temps[y * nx + x] = 50.0 + 2.0 * x; // 2 C per cell in x
    // Cell size 0.25 mm -> radius 4 cells; interior cell sees its
    // value minus the cell 4 to the left.
    const auto mltd = model.mltdField(temps, nx, ny, 0.25e-3);
    EXPECT_DOUBLE_EQ(mltd[1 * nx + 8], 8.0);
    // Leftmost cell is the local minimum.
    EXPECT_DOUBLE_EQ(mltd[1 * nx + 0], 0.0);
}

TEST(SeverityEvaluate, FindsArgmaxAndFields)
{
    SeverityModel model;
    const int nx = 8, ny = 8;
    std::vector<Celsius> temps(nx * ny, 60.0);
    const int hot = 4 * nx + 4;
    temps[hot] = 100.0;
    std::vector<double> per_cell;
    const SeveritySnapshot snap =
        model.evaluate(temps, nx, ny, 0.5e-3, &per_cell);
    EXPECT_EQ(snap.argmaxCell, hot);
    EXPECT_DOUBLE_EQ(snap.tempAtMax, 100.0);
    EXPECT_DOUBLE_EQ(snap.mltdAtMax, 40.0);
    EXPECT_DOUBLE_EQ(snap.maxTemp, 100.0);
    EXPECT_DOUBLE_EQ(snap.maxMltd, 40.0);
    ASSERT_EQ(per_cell.size(), temps.size());
    EXPECT_DOUBLE_EQ(per_cell[hot], snap.maxSeverity);
    // (100, 40): T_crit = 80, so severity = 55/35.
    EXPECT_NEAR(snap.maxSeverity, 55.0 / 35.0, 1e-12);
}

TEST(SeverityEvaluate, AdvancedHotspotBeatsUniformHeat)
{
    // The core thesis: a chip at uniform 94 C is safe, but an 85 C
    // hotspot over a 50 C background is NOT, despite being cooler.
    SeverityModel model;
    const int nx = 8, ny = 8;

    std::vector<Celsius> uniform(nx * ny, 94.0);
    const auto uni =
        model.evaluate(uniform, nx, ny, 0.5e-3);
    EXPECT_LT(uni.maxSeverity, 1.0);

    std::vector<Celsius> spiky(nx * ny, 50.0);
    spiky[3 * nx + 3] = 85.0;
    const auto spike = model.evaluate(spiky, nx, ny, 0.5e-3);
    EXPECT_GT(spike.maxSeverity, 1.0);
    EXPECT_LT(spike.maxTemp, uni.maxTemp);
}

// ---------------------------------------------------------------------
// The fused kernel against the deque reference it replaced
// ---------------------------------------------------------------------

namespace
{

/**
 * Reference MLTD and severity scan: two monotonic-deque sliding-min
 * passes (rows, then columns) and a scalar severity scan. This was the
 * production implementation before the fused vector kernel; the
 * kernel must reproduce it bit for bit.
 */
namespace oracle
{

void
slidingMinRows(const std::vector<double> &src, std::vector<double> &dst,
               int nx, int ny, int w)
{
    std::deque<int> dq;
    for (int y = 0; y < ny; ++y) {
        const int row = y * nx;
        dq.clear();
        for (int x = 0; x < std::min(w, nx - 1) + 1; ++x) {
            while (!dq.empty() && src[row + dq.back()] >= src[row + x])
                dq.pop_back();
            dq.push_back(x);
        }
        for (int x = 0; x < nx; ++x) {
            const int incoming = x + w;
            if (x > 0 && incoming < nx) {
                while (!dq.empty() &&
                       src[row + dq.back()] >= src[row + incoming])
                    dq.pop_back();
                dq.push_back(incoming);
            }
            while (!dq.empty() && dq.front() < x - w)
                dq.pop_front();
            dst[row + x] = src[row + dq.front()];
        }
    }
}

void
slidingMinCols(const std::vector<double> &src, std::vector<double> &dst,
               int nx, int ny, int w)
{
    std::deque<int> dq;
    for (int x = 0; x < nx; ++x) {
        dq.clear();
        for (int y = 0; y < std::min(w, ny - 1) + 1; ++y) {
            while (!dq.empty() &&
                   src[dq.back() * nx + x] >= src[y * nx + x])
                dq.pop_back();
            dq.push_back(y);
        }
        for (int y = 0; y < ny; ++y) {
            const int incoming = y + w;
            if (y > 0 && incoming < ny) {
                while (!dq.empty() &&
                       src[dq.back() * nx + x] >= src[incoming * nx + x])
                    dq.pop_back();
                dq.push_back(incoming);
            }
            while (!dq.empty() && dq.front() < y - w)
                dq.pop_front();
            dst[y * nx + x] = src[dq.front() * nx + x];
        }
    }
}

std::vector<Celsius>
mltdField(const SeverityModel &model, const std::vector<Celsius> &temps,
          int nx, int ny, Meters cell_size)
{
    const int w = std::max(
        1, static_cast<int>(
               std::lround(model.params().mltdRadius / cell_size)));
    std::vector<double> row_min(temps.size());
    std::vector<double> window_min(temps.size());
    slidingMinRows(temps, row_min, nx, ny, w);
    slidingMinCols(row_min, window_min, nx, ny, w);
    std::vector<Celsius> mltd(temps.size());
    for (size_t i = 0; i < temps.size(); ++i)
        mltd[i] = temps[i] - window_min[i];
    return mltd;
}

SeveritySnapshot
evaluate(const SeverityModel &model, const std::vector<Celsius> &temps,
         int nx, int ny, Meters cell_size, std::vector<double> *per_cell)
{
    const std::vector<Celsius> mltd =
        mltdField(model, temps, nx, ny, cell_size);
    SeveritySnapshot snap;
    if (per_cell)
        per_cell->resize(temps.size());
    for (size_t i = 0; i < temps.size(); ++i) {
        const double sev = model.severity(temps[i], mltd[i]);
        if (per_cell)
            (*per_cell)[i] = sev;
        if (sev > snap.maxSeverity || snap.argmaxCell < 0) {
            snap.maxSeverity = sev;
            snap.argmaxCell = static_cast<int>(i);
            snap.tempAtMax = temps[i];
            snap.mltdAtMax = mltd[i];
        }
        snap.maxTemp = std::max(snap.maxTemp, temps[i]);
        snap.maxMltd = std::max(snap.maxMltd, mltd[i]);
    }
    return snap;
}

} // namespace oracle

bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

void
expectSameSnapshot(const SeveritySnapshot &got, const SeveritySnapshot &want)
{
    EXPECT_TRUE(sameBits(got.maxSeverity, want.maxSeverity));
    EXPECT_EQ(got.argmaxCell, want.argmaxCell);
    EXPECT_TRUE(sameBits(got.tempAtMax, want.tempAtMax));
    EXPECT_TRUE(sameBits(got.mltdAtMax, want.mltdAtMax));
    EXPECT_TRUE(sameBits(got.maxTemp, want.maxTemp));
    EXPECT_TRUE(sameBits(got.maxMltd, want.maxMltd));
}

/**
 * Anchors whose segment slopes are not short binary fractions. With
 * the paper's anchors (slopes -1 and -0.75) every product of a slope
 * and a grid temperature difference is exact, so a fused multiply-add
 * would go unnoticed; with these it changes low bits.
 */
SeverityParams
offAnchors()
{
    SeverityParams p;
    p.tRef = 44.6;
    p.tCritMid = 96.3;
    p.tCritHigh = 79.1;
    p.mltdMid = 21.7;
    p.mltdHigh = 38.9;
    return p;
}

} // namespace

TEST(SeverityKernel, MatchesDequeOracleBitwise)
{
    // Sizes straddle the 8-cell strip (1, 7, 9, 17, 31, 35, 65 leave
    // partial strips) and the 2w+1-row blocks of the running column
    // min: at w = 8 the row counts 16, 17, 18, 34 and 35 are L-1, L,
    // L+1, 2L and 2L+1 for L = 17. Radii run from one cell to past the
    // grid's larger side.
    // Fields span every severity segment, the floor clamp and the
    // zero clamp below tRef. Rounded fields are tie-heavy: equal
    // minima, severities and maxima exercise the first-index argmax.
    const int sizes[] = {1, 3, 7, 8, 9, 16, 17, 18, 31, 34, 35, 64, 65, 128};
    Rng rng(4242);
    for (const SeverityParams &params : {SeverityParams{}, offAnchors()}) {
        const SeverityModel model(params);
        for (int nx : sizes) {
            for (int ny : sizes) {
                for (int w : {1, 2, 3, 4, 8, 9, 16, 17, 40, 70}) {
                    if (w > std::max(nx, ny) + 6 && w != 70)
                        continue;
                    for (bool rounded : {false, true}) {
                        SCOPED_TRACE(testing::Message()
                                     << nx << "x" << ny << " w=" << w
                                     << (rounded ? " rounded" : ""));
                        std::vector<Celsius> temps(nx * ny);
                        for (double &t : temps) {
                            t = rng.uniform(30.0, 120.0);
                            if (rounded)
                                t = 5.0 * std::round(t / 5.0);
                        }
                        const Meters cell = params.mltdRadius / w;

                        std::vector<double> want_cells, got_cells;
                        const SeveritySnapshot want = oracle::evaluate(
                            model, temps, nx, ny, cell, &want_cells);
                        expectSameSnapshot(
                            model.evaluate(temps, nx, ny, cell, &got_cells),
                            want);
                        expectSameSnapshot(
                            model.evaluate(temps, nx, ny, cell), want);
                        EXPECT_TRUE(sameBits(got_cells, want_cells));
                        EXPECT_TRUE(sameBits(
                            model.mltdField(temps, nx, ny, cell),
                            oracle::mltdField(model, temps, nx, ny, cell)));
                    }
                }
            }
        }
    }
}

TEST(SeverityModel, BitwiseGoldenDigest)
{
    // FNV-1a digest of the per-cell severity field and the snapshot of
    // a fixed field, under the paper's anchors and under offAnchors().
    // The 64x64 row (w = 8) was pinned with the deque implementation
    // that preceded the fused kernel; the others were pinned with the
    // 2w+1-tap window kernel, before the running-min window. 61x40 at
    // w = 9 leaves a partial strip and a row count that is no multiple
    // of the 2w+1-row block. Every dispatched clone must reproduce
    // each row bit for bit (DESIGN.md §9.6); a mismatch means some
    // floating-point operation moved, and with it every runHash.
    struct Golden
    {
        int nx, ny, w;
        uint64_t digest;
    };
    const Golden goldens[] = {
        {64, 64, 8, 0x8905fe4926b0088dULL},
        {32, 32, 4, 0x266c19c0d9ed294bULL},
        {128, 128, 16, 0x8254c3de90e7b934ULL},
        {61, 40, 9, 0xfe1c4a3443e2a22dULL},
    };
    for (const Golden &g : goldens) {
        SCOPED_TRACE(testing::Message()
                     << g.nx << "x" << g.ny << " w=" << g.w);
        Rng rng(2024);
        std::vector<Celsius> temps(g.nx * g.ny);
        for (double &t : temps)
            t = rng.uniform(40.0, 110.0);
        Fnv1a h;
        for (const SeverityParams &params :
             {SeverityParams{}, offAnchors()}) {
            std::vector<double> per_cell;
            const SeveritySnapshot snap = SeverityModel(params).evaluate(
                temps, g.nx, g.ny, params.mltdRadius / g.w, &per_cell);
            h.add(per_cell);
            h.add(snap.maxSeverity);
            h.add(snap.argmaxCell);
            h.add(snap.tempAtMax);
            h.add(snap.mltdAtMax);
            h.add(snap.maxTemp);
            h.add(snap.maxMltd);
        }
        EXPECT_EQ(h.digest(), g.digest);
    }
}
