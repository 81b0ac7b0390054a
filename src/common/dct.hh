/**
 * @file
 * 2-D DCT-II plan for uniform Neumann grids (DESIGN.md §9).
 *
 * The spectral thermal solver diagonalizes the 5-point Laplacian with
 * half-sample reflective (Neumann) boundaries. The DCT-II basis
 *
 *   phi_k(i) = cos(pi k (2i + 1) / (2n))
 *
 * satisfies phi_k(-1) = phi_k(0) and phi_k(n) = phi_k(n-1), which is
 * exactly the "missing neighbor omitted" boundary rule of the explicit
 * stencil, so the transform converts the lateral coupling into a
 * per-mode multiply by -laplacianEigenvalue().
 *
 * Conventions (unnormalized DCT-II forward):
 *
 *   modes[kx*ny + ky] = sum_{x,y} field[y*nx + x]
 *                       * cos(pi kx (2x+1) / (2 nx))
 *                       * cos(pi ky (2y+1) / (2 ny))
 *
 * so mode (0,0) is the plain field sum — the quantity the lumped-sink
 * coupling needs. inverse() applies the matching scaled DCT-III so that
 * inverse(forward(f)) == f up to roundoff.
 *
 * Power-of-two axis lengths use Lee's O(n log n) split recursion,
 * flattened into level sweeps over strips of 8 adjacent batch columns
 * (one 512-bit vector per position). Each axis has a sweep plan: the
 * outer levels two per sweep around one in-register block of the
 * innermost ones, so a 64-point pass stores each strip three times.
 * The first sweep reads the caller's array, the ones between
 * ping-pong in two L1-resident scratch arrays, and the last writes the
 * caller's store; the transpose between the two axis passes is folded
 * into the first pass's store. Other lengths fall back to a dense
 * cosine matrix multiply over the same strips. The two entry points
 * are dispatched to AVX-512 / AVX2 / baseline clones that all produce
 * the same bits (DESIGN.md §9.4, §9.6). Instances carry scratch
 * buffers and are NOT thread-safe; give each thread (each ThermalGrid)
 * its own plan.
 */

#pragma once

#include <cstddef>
#include <vector>

#include "common/simd.hh"

namespace boreas
{

/** Reusable 2-D DCT-II / inverse plan for an nx x ny field. */
class Dct2Plan
{
  public:
    Dct2Plan(int nx, int ny);

    int nx() const { return nx_; }
    int ny() const { return ny_; }

    /**
     * Forward unnormalized 2-D DCT-II. `field` is row-major
     * [y*nx + x]; `modes` is written as [kx*ny + ky]. The two arrays
     * must not alias.
     */
    void forward(const double *field, double *modes);

    /**
     * Exact inverse of forward() (scaled DCT-III), modes -> field.
     * `modes` is left untouched; the arrays must not alias.
     */
    void inverse(const double *modes, double *field);

    /**
     * Eigenvalue lam(k) = 2 - 2 cos(pi k / n) of the *negated* 1-D
     * Neumann second difference: applying the stencil
     * sum_neighbors (f_j - f_i) to phi_k multiplies it by -lam(k).
     */
    static double laplacianEigenvalue(int k, int n);

    /**
     * Name of the clone the entry points dispatch to on this host:
     * "avx512f", "avx2" or "default", checked in the resolver's order;
     * "none" when the build compiles the clones out.
     */
    static const char *dispatchedClone();

  private:
    /** Batch columns per strip (one 512-bit vector of doubles). */
    static constexpr int kStripLanes = 8;

    /** Storage for one strip; aligned so strip loads never split. */
    struct alignas(64) StripSlot
    {
        double lane[kStripLanes];
    };

    /**
     * One strip sweep of a Lee plan: one level or two fused levels
     * (named by the longer), or a register block of the innermost
     * levels (the DCT-II or DCT-III one, by direction).
     */
    struct Sweep
    {
        enum class Op : unsigned char
        {
            Split,
            SplitPair,
            Recombine,
            RecombinePair,
            Deinterleave,
            DeinterleavePair,
            Butterfly,
            ButterflyPair,
            Block8,
            Block16,
        };
        Op op;
        int len;
    };

    /** Per-axis transform data (Lee tables or dense fallback). */
    struct Axis
    {
        int n = 0;
        bool pow2 = false;
        /**
         * 0.5 / cos((i+0.5) pi / len) per recursion level, flat, each
         * broadcast to every strip lane.
         */
        std::vector<StripSlot> halfSec;
        /** Offset of each level's table in halfSec (len = n >> level). */
        std::vector<size_t> levelOff;
        /** Lee sweep sequences, first sweep to last. */
        std::vector<Sweep> forwardPlan;
        std::vector<Sweep> inversePlan;
        /** Dense fallback, forward: [k*n + i] = cos(pi k (2i+1)/(2n)). */
        std::vector<double> fwdMat;
        /** Dense fallback, inverse: [i*n + k]; k = 0 column pre-halved. */
        std::vector<double> invMat;
    };

    static Axis makeAxis(int n);

    /**
     * Transform along `ax` every column of a [ax.n x batch] input, one
     * strip of kStripLanes columns at a time. Position k of the strip
     * starting at column c0 is read at src + k*stride + c0 (lanes past
     * `batch` zero-padded); the strip is transformed (DCT-II, or with
     * `Inverse` the unscaled DCT-III with position 0 halved on load),
     * and `store(k, c0, lanes, v)` receives each output position.
     */
    template <bool Inverse, typename Store>
    void strips(const Axis &ax, int batch, const double *src,
                size_t stride, const Store &store);

    int nx_;
    int ny_;
    Axis ax_;
    Axis ay_;
    StripVector<double> fieldScratch_; ///< between-pass result buffer
    std::vector<StripSlot> stripScratch_; ///< 2 x max(nx, ny) strips
};

} // namespace boreas
