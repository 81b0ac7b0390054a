#include "common/dct.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/simd.hh"

namespace boreas
{

namespace
{

constexpr double kPi = 3.14159265358979323846;

/*
 * A Strip (common/simd.hh) holds the values of 8 adjacent batch
 * columns at one position. GCC lets a vector type alias its element
 * type, so the plan's double-typed StripSlot storage is read and
 * written as strips.
 */

bool
isPow2(int n)
{
    return n > 0 && (n & (n - 1)) == 0;
}

int
log2Of(int n)
{
    int bits = 0;
    while ((1 << bits) < n)
        ++bits;
    return bits;
}

/** Sweep output into a scratch strip array. */
struct ToScratch
{
    Strip *dst;

    void
    operator()(int k, const Strip &v) const
    {
        put(reinterpret_cast<double *>(dst + k), v);
    }
};

/**
 * The first sweep's input: position k of the strip is the 8 contiguous
 * values at base + k * stride of the caller's array (or of a partial
 * strip's zero-padded copy). The inverse also halves position 0 here
 * (the k = 0 weight of the DCT-III).
 */
struct StripSource
{
    const double *base;
    size_t stride;
    bool halveFirst;

    void
    operator()(Strip &v, int k) const
    {
        // An under-aligned strip type, not memcpy: GCC compiled the
        // memcpy into the reference as a round trip through the stack.
        typedef double Unaligned
            __attribute__((vector_size(64), aligned(8), may_alias));
        v = *reinterpret_cast<const Unaligned *>(base + k * stride);
        if (halveFirst && k == 0)
            v = 0.5 * v;
    }
};

/** A later sweep's input: the previous sweep's scratch array. */
struct FromScratch
{
    const Strip *src;

    void
    operator()(Strip &v, int k) const
    {
        v = src[k];
    }
};

/*
 * Strip kernels. Each sweep reads its input through `src` (the caller's
 * array on the first sweep, a scratch array after that) and hands every
 * output position to `out` (the other scratch array, or the caller's
 * store on the last sweep). The kernels apply exactly the adds,
 * subtracts and multiplies of the per-element recursion in the same
 * order, lane by lane; with contraction off (-ffp-contract=off in
 * CMake) every clone therefore produces the same bits.
 */

/**
 * One DCT-II split level of length len over every block: the block's
 * half-length sum sequence, then its secant-weighted differences.
 */
template <typename Src, typename Out>
void
splitLevel(int n, int len, const Strip *sec, const Src &src,
           const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int i = 0; i < half; ++i) {
            Strip x, y;
            src(x, s0 + i);
            src(y, s0 + len - 1 - i);
            out(s0 + i, x + y);
            out(s0 + half + i, (x - y) * sec[i]);
        }
    }
}

/**
 * Split levels len and len/2 fused: the four inputs that level len
 * combines into one level-len/2 butterfly pair on each half, so two
 * levels cost 4 loads and 4 stores per 4 positions.
 */
template <typename Src, typename Out>
void
splitPair(int n, int len, const Strip *secL, const Strip *secH,
          const Src &src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int j = 0; j < quarter; ++j) {
            Strip a, b, c, d;
            src(a, s0 + j);
            src(b, s0 + len - 1 - j);
            src(c, s0 + half - 1 - j);
            src(d, s0 + half + j);
            const Strip sa = a + b;
            const Strip sc = c + d;
            const Strip da = (a - b) * secL[j];
            const Strip dc = (c - d) * secL[half - 1 - j];
            out(s0 + j, sa + sc);
            out(s0 + quarter + j, (sa - sc) * secH[j]);
            out(s0 + half + j, da + dc);
            out(s0 + half + quarter + j, (da - dc) * secH[j]);
        }
    }
}

/**
 * One DCT-II recombine level: interleave each block's transformed
 * halves back into natural coefficient order (odd coefficients by the
 * adjacent-sum recurrence).
 */
template <typename Src, typename Out>
void
recombineLevel(int n, int len, const Src &src, const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        Strip dif;
        src(dif, s0 + half);
        for (int i = 0; i < half - 1; ++i) {
            Strip sum, next;
            src(sum, s0 + i);
            src(next, s0 + half + i + 1);
            out(s0 + 2 * i, sum);
            out(s0 + 2 * i + 1, dif + next);
            dif = next;
        }
        Strip sum;
        src(sum, s0 + half - 1);
        out(s0 + len - 2, sum);
        out(s0 + len - 1, dif);
    }
}

/**
 * Recombine levels len/2 and len fused. With T the input, h = len/2
 * and q = len/4, level len/2 yields R[2m] = T[m] and
 * R[2m+1] = T[q+m] + T[q+m+1] on each half (the last odd position
 * passes through); level len then interleaves R[m] with
 * R[h+m] + R[h+m+1]. Four loads and four stores per 4 positions.
 */
template <typename Src, typename Out>
void
recombinePair(int n, int len, const Src &src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        // Running T[q+m], T[h+q+m] and T[h+m] = R[h+2m].
        Strip lo, hi, even;
        src(lo, s0 + quarter);
        src(hi, s0 + half + quarter);
        src(even, s0 + half);
        for (int m = 0; m < quarter - 1; ++m) {
            Strip t, lo1, hi1, even1;
            src(t, s0 + m);
            src(lo1, s0 + quarter + m + 1);
            src(hi1, s0 + half + quarter + m + 1);
            src(even1, s0 + half + m + 1);
            const Strip odd = hi + hi1; // R[h+2m+1]
            out(s0 + 4 * m, t);
            out(s0 + 4 * m + 1, even + odd);
            out(s0 + 4 * m + 2, lo + lo1);
            out(s0 + 4 * m + 3, odd + even1);
            lo = lo1;
            hi = hi1;
            even = even1;
        }
        Strip t;
        src(t, s0 + quarter - 1);
        out(s0 + len - 4, t);
        out(s0 + len - 3, even + hi);
        out(s0 + len - 2, lo);
        out(s0 + len - 1, hi);
    }
}

/**
 * One DCT-III de-interleave level: even coefficients to the front
 * half, odd ones as adjacent sums to the back half.
 */
template <typename Src, typename Out>
void
deinterleaveLevel(int n, int len, const Src &src, const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        Strip even, odd;
        src(even, s0);
        src(odd, s0 + 1);
        out(s0, even);
        out(s0 + half, odd);
        for (int i = 1; i < half; ++i) {
            Strip next;
            src(even, s0 + 2 * i);
            src(next, s0 + 2 * i + 1);
            out(s0 + i, even);
            out(s0 + half + i, odd + next);
            odd = next;
        }
    }
}

/**
 * De-interleave levels len and len/2 fused. With X the input, level
 * len yields D[i] = X[2i] and D[h+i] = X[2i-1] + X[2i+1] (D[h] = X[1]);
 * level len/2 then de-interleaves each half of D the same way. Four
 * loads and four stores per 4 positions.
 */
template <typename Src, typename Out>
void
deinterleavePair(int n, int len, const Src &src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        Strip x0, x1, x2, x3;
        src(x0, s0);
        src(x1, s0 + 1);
        src(x2, s0 + 2);
        src(x3, s0 + 3);
        // Running X[4i-2], X[4i-1] and D[h+2i-1] = X[4i-3] + X[4i-1].
        Strip prev2 = x2;
        Strip prev3 = x3;
        Strip prevOdd = x1 + x3;
        out(s0, x0);
        out(s0 + quarter, x2);
        out(s0 + half, x1);
        out(s0 + half + quarter, prevOdd);
        for (int i = 1; i < quarter; ++i) {
            src(x0, s0 + 4 * i);
            src(x1, s0 + 4 * i + 1);
            src(x2, s0 + 4 * i + 2);
            src(x3, s0 + 4 * i + 3);
            const Strip even = prev3 + x1; // D[h+2i]
            const Strip odd = x1 + x3;     // D[h+2i+1]
            out(s0 + i, x0);
            out(s0 + quarter + i, prev2 + x2);
            out(s0 + half + i, even);
            out(s0 + half + quarter + i, prevOdd + odd);
            prev2 = x2;
            prev3 = x3;
            prevOdd = odd;
        }
    }
}

/** One DCT-III butterfly level of length len over every block. */
template <typename Src, typename Out>
void
butterflyLevel(int n, int len, const Strip *sec, const Src &src,
               const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int i = 0; i < half; ++i) {
            Strip x, y;
            src(x, s0 + i);
            src(y, s0 + half + i);
            y *= sec[i];
            out(s0 + i, x + y);
            out(s0 + len - 1 - i, x - y);
        }
    }
}

/**
 * Butterfly levels len/2 and len fused: one level-len/2 butterfly on
 * each half produces exactly the four inputs of a level-len pair.
 */
template <typename Src, typename Out>
void
butterflyPair(int n, int len, const Strip *secH, const Strip *secL,
              const Src &src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int j = 0; j < quarter; ++j) {
            Strip x0, y0, x1, y1;
            src(x0, s0 + j);
            src(y0, s0 + quarter + j);
            src(x1, s0 + half + j);
            src(y1, s0 + half + quarter + j);
            y0 *= secH[j];
            y1 *= secH[j];
            const Strip lo = x0 + y0;
            const Strip hi = x0 - y0;
            const Strip ylo = (x1 + y1) * secL[j];
            const Strip yhi = (x1 - y1) * secL[half - 1 - j];
            out(s0 + j, lo + ylo);
            out(s0 + len - 1 - j, lo - ylo);
            out(s0 + half - 1 - j, hi + yhi);
            out(s0 + half + j, hi - yhi);
        }
    }
}

/*
 * Register blocks: x[] in, y[] out, both meant to live in registers
 * (the block sweep below fully unrolls every access).
 */

/**
 * The last three DCT-II split levels (len 8, 4, 2) and the first two
 * recombine levels (len 4, 8) of one 8-position block.
 */
void
dct2Block8(const Strip *x, const Strip *c8, const Strip *c4,
           const Strip *c2, Strip *y)
{
    // len 8: sums s*, secant-weighted differences d*.
    const Strip s0v = x[0] + x[7];
    const Strip d0 = (x[0] - x[7]) * c8[0];
    const Strip s1 = x[1] + x[6];
    const Strip d1 = (x[1] - x[6]) * c8[1];
    const Strip s2 = x[2] + x[5];
    const Strip d2 = (x[2] - x[5]) * c8[2];
    const Strip s3 = x[3] + x[4];
    const Strip d3 = (x[3] - x[4]) * c8[3];
    // len 4 on each half.
    const Strip a0 = s0v + s3;
    const Strip a2 = (s0v - s3) * c4[0];
    const Strip a1 = s1 + s2;
    const Strip a3 = (s1 - s2) * c4[1];
    const Strip b0 = d0 + d3;
    const Strip b2 = (d0 - d3) * c4[0];
    const Strip b1 = d1 + d2;
    const Strip b3 = (d1 - d2) * c4[1];
    // len 2 on each pair.
    const Strip p0 = a0 + a1;
    const Strip p1 = (a0 - a1) * c2[0];
    const Strip p2 = a2 + a3;
    const Strip p3 = (a2 - a3) * c2[0];
    const Strip p4 = b0 + b1;
    const Strip p5 = (b0 - b1) * c2[0];
    const Strip p6 = b2 + b3;
    const Strip p7 = (b2 - b3) * c2[0];
    // Recombine len 4 ({p0, p2 + p3, p1, p3} per half), then len 8.
    const Strip q1 = p2 + p3;
    const Strip q5 = p6 + p7;
    y[0] = p0;
    y[1] = p4 + q5;
    y[2] = q1;
    y[3] = q5 + p5;
    y[4] = p1;
    y[5] = p5 + p7;
    y[6] = p3;
    y[7] = p7;
}

/**
 * The DCT-III counterpart: de-interleave levels len 8 and 4, then
 * butterfly levels len 2, 4 and 8 of one 8-position block.
 */
void
dct3Block8(const Strip *x, const Strip *c2, const Strip *c4,
           const Strip *c8, Strip *y)
{
    // De-interleave len 8 (evens, odd adjacent sums o*), then len 4
    // on each half; f3 and g3 are the resulting quarter-block sums.
    const Strip o1 = x[1] + x[3];
    const Strip o2 = x[3] + x[5];
    const Strip o3 = x[5] + x[7];
    const Strip f3 = x[2] + x[6];
    const Strip g3 = o1 + o3;
    // Butterflies len 2 on (x0, x4), (x2, f3), (x1, o2), (o1, g3).
    const Strip t0 = x[4] * c2[0];
    const Strip h0 = x[0] + t0;
    const Strip h1 = x[0] - t0;
    const Strip t1 = f3 * c2[0];
    const Strip h2 = x[2] + t1;
    const Strip h3 = x[2] - t1;
    const Strip t2 = o2 * c2[0];
    const Strip h4 = x[1] + t2;
    const Strip h5 = x[1] - t2;
    const Strip t3 = g3 * c2[0];
    const Strip h6 = o1 + t3;
    const Strip h7 = o1 - t3;
    // Butterflies len 4 on each half.
    const Strip u0 = h2 * c4[0];
    const Strip k0 = h0 + u0;
    const Strip k3 = h0 - u0;
    const Strip u1 = h3 * c4[1];
    const Strip k1 = h1 + u1;
    const Strip k2 = h1 - u1;
    const Strip u2 = h6 * c4[0];
    const Strip k4 = h4 + u2;
    const Strip k7 = h4 - u2;
    const Strip u3 = h7 * c4[1];
    const Strip k5 = h5 + u3;
    const Strip k6 = h5 - u3;
    // Butterflies len 8.
    const Strip v0 = k4 * c8[0];
    const Strip v1 = k5 * c8[1];
    const Strip v2 = k6 * c8[2];
    const Strip v3 = k7 * c8[3];
    y[0] = k0 + v0;
    y[7] = k0 - v0;
    y[1] = k1 + v1;
    y[6] = k1 - v1;
    y[2] = k2 + v2;
    y[5] = k2 - v2;
    y[3] = k3 + v3;
    y[4] = k3 - v3;
}

/**
 * DCT-II split level 16, dct2Block8 on each half, then recombine
 * level 16: every level of a 16-position block but the first split.
 */
void
dct2Block16(const Strip *x, const Strip *c16, const Strip *c8,
            const Strip *c4, const Strip *c2, Strip *y)
{
    Strip sums[8], difs[8];
    for (int i = 0; i < 8; ++i) {
        sums[i] = x[i] + x[15 - i];
        difs[i] = (x[i] - x[15 - i]) * c16[i];
    }
    Strip lo[8], hi[8];
    dct2Block8(sums, c8, c4, c2, lo);
    dct2Block8(difs, c8, c4, c2, hi);
    for (int i = 0; i < 7; ++i) {
        y[2 * i] = lo[i];
        y[2 * i + 1] = hi[i] + hi[i + 1];
    }
    y[14] = lo[7];
    y[15] = hi[7];
}

/**
 * The DCT-III counterpart: de-interleave level 16, dct3Block8 on each
 * half, then butterfly level 16.
 */
void
dct3Block16(const Strip *x, const Strip *c2, const Strip *c4,
            const Strip *c8, const Strip *c16, Strip *y)
{
    Strip evens[8], odds[8];
    evens[0] = x[0];
    odds[0] = x[1];
    for (int i = 1; i < 8; ++i) {
        evens[i] = x[2 * i];
        odds[i] = x[2 * i - 1] + x[2 * i + 1];
    }
    Strip lo[8], hi[8];
    dct3Block8(evens, c2, c4, c8, lo);
    dct3Block8(odds, c2, c4, c8, hi);
    for (int i = 0; i < 8; ++i) {
        const Strip t = hi[i] * c16[i];
        y[i] = lo[i] + t;
        y[15 - i] = lo[i] - t;
    }
}

/**
 * Run `block` on every B-position block of the strip: B loads, the
 * block's levels in registers, B stores.
 */
template <int B, typename Src, typename Out, typename Block>
void
blockSweep(int n, const Src &src, const Out &out, const Block &block)
{
    for (int s0 = 0; s0 < n; s0 += B) {
        Strip x[B], y[B];
#pragma GCC unroll 16
        for (int k = 0; k < B; ++k)
            src(x[k], s0 + k);
        block(x, y);
#pragma GCC unroll 16
        for (int k = 0; k < B; ++k)
            out(s0 + k, y[k]);
    }
}

/**
 * Dense fallback for one strip: out(k) = sum_i mat[k*n + i] * x_i,
 * accumulated in i order.
 */
template <typename Out>
void
denseApply(int n, const double *mat, const StripSource &src,
           const Out &out)
{
    for (int k = 0; k < n; ++k) {
        const double *m = mat + static_cast<size_t>(k) * n;
        Strip x;
        src(x, 0);
        Strip acc = m[0] * x;
        for (int i = 1; i < n; ++i) {
            src(x, i);
            acc += m[i] * x;
        }
        out(k, acc);
    }
}

/** Store the first `lanes` lanes of `v` down a column of stride `str`. */
void
storeColumn(double *p, size_t str, const Strip &v, int lanes)
{
    if (lanes == kLanes) {
        p[0] = v[0];
        p[str] = v[1];
        p[2 * str] = v[2];
        p[3 * str] = v[3];
        p[4 * str] = v[4];
        p[5 * str] = v[5];
        p[6 * str] = v[6];
        p[7 * str] = v[7];
    } else {
        for (int l = 0; l < lanes; ++l)
            p[l * str] = v[l];
    }
}

} // namespace

double
Dct2Plan::laplacianEigenvalue(int k, int n)
{
    return 2.0 - 2.0 * std::cos(kPi * k / n);
}

Dct2Plan::Axis
Dct2Plan::makeAxis(int n)
{
    Axis ax;
    ax.n = n;
    ax.pow2 = isPow2(n);
    if (ax.pow2) {
        // One secant table per recursion level: len = n, n/2, ..., 2.
        for (int len = n; len >= 2; len /= 2) {
            ax.levelOff.push_back(ax.halfSec.size());
            const int half = len / 2;
            for (int i = 0; i < half; ++i) {
                StripSlot sec{};
                std::fill_n(sec.lane, kStripLanes,
                            0.5 / std::cos((i + 0.5) * kPi / len));
                ax.halfSec.push_back(sec);
            }
        }
        // The sweep plans (DESIGN.md §9.4): the outer levels, two per
        // sweep, around one register block of the innermost ones.
        using Op = Sweep::Op;
        const auto count = [&](int lo) {
            return lo <= n ? log2Of(n) - log2Of(lo) + 1 : 0;
        };
        // Levels len = n, n/2, ..., lo; an odd count runs len = n alone
        // first. A fused pair is named by its longer level.
        const auto down = [&](std::vector<Sweep> &plan, Op one, Op two,
                              int lo) {
            int len = n;
            if (count(lo) % 2 == 1) {
                plan.push_back({one, len});
                len /= 2;
            }
            for (int i = 0; i < count(lo) / 2; ++i, len /= 4)
                plan.push_back({two, len});
        };
        // Levels len = lo, 2 lo, ..., n; an odd count runs len = n alone
        // last.
        const auto up = [&](std::vector<Sweep> &plan, Op one, Op two,
                            int lo) {
            int len = lo;
            for (int i = 0; i < count(lo) / 2; ++i, len *= 4)
                plan.push_back({two, 2 * len});
            if (count(lo) % 2 == 1)
                plan.push_back({one, n});
        };
        const int block = n >= 16 ? 16 : n == 8 ? 8 : 1; // 1: none
        down(ax.forwardPlan, Op::Split, Op::SplitPair, 2 * block);
        down(ax.inversePlan, Op::Deinterleave, Op::DeinterleavePair,
             std::max(2 * block, 4));
        if (block != 1) {
            const Op op = block == 16 ? Op::Block16 : Op::Block8;
            ax.forwardPlan.push_back({op, block});
            ax.inversePlan.push_back({op, block});
        }
        up(ax.forwardPlan, Op::Recombine, Op::RecombinePair,
           std::max(2 * block, 4));
        up(ax.inversePlan, Op::Butterfly, Op::ButterflyPair, 2 * block);
    } else {
        ax.fwdMat.resize(static_cast<size_t>(n) * n);
        ax.invMat.resize(static_cast<size_t>(n) * n);
        for (int k = 0; k < n; ++k) {
            for (int i = 0; i < n; ++i) {
                const double c = std::cos(kPi * k * (2 * i + 1) /
                                          (2.0 * n));
                ax.fwdMat[static_cast<size_t>(k) * n + i] = c;
                // inverse() halves the k = 0 coefficient separately
                // (shared with the Lee path), so plain cosine here.
                ax.invMat[static_cast<size_t>(i) * n + k] = c;
            }
        }
    }
    return ax;
}

Dct2Plan::Dct2Plan(int nx, int ny) : nx_(nx), ny_(ny)
{
    boreas_assert(nx >= 2 && ny >= 2, "DCT plan needs nx,ny >= 2, got "
                  "%dx%d", nx, ny);
    ax_ = makeAxis(nx);
    ay_ = makeAxis(ny);
    fieldScratch_.assign(static_cast<size_t>(nx) * ny, 0.0);
    stripScratch_.resize(2 * static_cast<size_t>(std::max(nx, ny)));
}

const char *
Dct2Plan::dispatchedClone()
{
#if BOREAS_HAVE_TARGET_CLONES
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        return "avx512f";
    if (__builtin_cpu_supports("avx2"))
        return "avx2";
    return "default";
#else
    return "none";
#endif
}

template <bool Inverse, typename Store>
void
Dct2Plan::strips(const Axis &ax, int batch, const double *src,
                 size_t stride, const Store &store)
{
    const int n = ax.n;
    Strip *a = reinterpret_cast<Strip *>(stripScratch_.data());
    Strip *b = a + n;
    const std::vector<Sweep> &plan =
        Inverse ? ax.inversePlan : ax.forwardPlan;
    const Strip *halfSec =
        reinterpret_cast<const Strip *>(ax.halfSec.data());
    const int levels = log2Of(n);
    // The secant table of length-len levels.
    const auto sec = [&](int len) {
        return halfSec + ax.levelOff[levels - log2Of(len)];
    };
    // One sweep of the plan from `in` to `o`. Each op is compiled only
    // for the places makeAxis puts it: first (reading the caller's
    // array), last (writing the caller's store), or between; that keeps
    // the flattened clones from carrying every combination.
    const auto sweep = [&](const Sweep &sw, const auto &in,
                           const auto &o) {
        using Op = Sweep::Op;
        constexpr bool first =
            std::is_same_v<decltype(in), const StripSource &>;
        constexpr bool last =
            !std::is_same_v<decltype(o), const ToScratch &>;
        const int len = sw.len;
        if constexpr (Inverse) {
            switch (sw.op) {
            case Op::Deinterleave: // first
                if constexpr (first && !last)
                    return deinterleaveLevel(n, len, in, o);
                break;
            case Op::DeinterleavePair: // first or between
                if constexpr (!last)
                    return deinterleavePair(n, len, in, o);
                break;
            case Op::Butterfly: // last, or the whole n = 2 plan
                if constexpr (last)
                    return butterflyLevel(n, len, sec(len), in, o);
                break;
            case Op::ButterflyPair: // between or last
                if constexpr (!first) {
                    return butterflyPair(n, len, sec(len / 2), sec(len),
                                         in, o);
                }
                break;
            case Op::Block8: // the whole n = 8 plan
                if constexpr (first && last) {
                    return blockSweep<8>(
                        n, in, o, [&](const Strip *x, Strip *y) {
                            dct3Block8(x, sec(2), sec(4), sec(8), y);
                        });
                }
                break;
            case Op::Block16: // the whole n = 16 plan, or between
                if constexpr (first == last) {
                    return blockSweep<16>(
                        n, in, o, [&](const Strip *x, Strip *y) {
                            dct3Block16(x, sec(2), sec(4), sec(8),
                                        sec(16), y);
                        });
                }
                break;
            default:
                break;
            }
        } else {
            switch (sw.op) {
            case Op::Split: // first, or the whole n = 2 plan
                if constexpr (first)
                    return splitLevel(n, len, sec(len), in, o);
                break;
            case Op::SplitPair: // first or between
                if constexpr (!last)
                    return splitPair(n, len, sec(len), sec(len / 2), in, o);
                break;
            case Op::Recombine: // last
                if constexpr (last && !first)
                    return recombineLevel(n, len, in, o);
                break;
            case Op::RecombinePair: // between or last
                if constexpr (!first)
                    return recombinePair(n, len, in, o);
                break;
            case Op::Block8: // the whole n = 8 plan
                if constexpr (first && last) {
                    return blockSweep<8>(
                        n, in, o, [&](const Strip *x, Strip *y) {
                            dct2Block8(x, sec(8), sec(4), sec(2), y);
                        });
                }
                break;
            case Op::Block16: // the whole n = 16 plan, or between
                if constexpr (first == last) {
                    return blockSweep<16>(
                        n, in, o, [&](const Strip *x, Strip *y) {
                            dct2Block16(x, sec(16), sec(8), sec(4),
                                        sec(2), y);
                        });
                }
                break;
            default:
                break;
            }
        }
        boreas_panic("DCT sweep op %d out of place in an n = %d plan",
                      static_cast<int>(sw.op), n);
    };
    for (int c0 = 0; c0 < batch; c0 += kLanes) {
        const int lanes = std::min(kLanes, batch - c0);
        StripSource in{src + c0, stride, Inverse};
        if (lanes < kLanes) {
            // Whole-strip loads would run past the batch: stage the
            // strip zero-padded in the scratch array the first sweep
            // does not write.
            for (int k = 0; k < n; ++k) {
                Strip v;
                loadLanes(v, in.base + k * stride, lanes);
                ToScratch{b}(k, v);
            }
            in.base = reinterpret_cast<const double *>(b);
            in.stride = kLanes;
        }
        const auto out = [&](int k, const Strip &v) {
            store(k, c0, lanes, v);
        };
        if (!ax.pow2) {
            denseApply(n, Inverse ? ax.invMat.data() : ax.fwdMat.data(),
                       in, out);
            continue;
        }
        // The first sweep reads the caller's array, the last writes the
        // caller's store, and the ones between ping-pong in scratch.
        const size_t last = plan.size() - 1;
        Strip *dst = a;
        Strip *prev = b;
        for (size_t i = 0; i <= last; ++i) {
            if (i == 0 && i == last)
                sweep(plan[i], in, out);
            else if (i == 0)
                sweep(plan[i], in, ToScratch{dst});
            else if (i == last)
                sweep(plan[i], FromScratch{prev}, out);
            else
                sweep(plan[i], FromScratch{prev}, ToScratch{dst});
            std::swap(dst, prev);
        }
    }
}

/*
 * The two entry points are the dispatch boundary: each clone inlines
 * the whole strip machinery (flatten), so the AVX-512 clone runs every
 * sweep on 512-bit vectors while the baseline clone splits them.
 */
#define BOREAS_DCT_ENTRY \
    BOREAS_TARGET_CLONES("avx512f", "avx2", "default") \
    __attribute__((flatten))

BOREAS_DCT_ENTRY void
Dct2Plan::forward(const double *field, double *modes)
{
    static_assert(kStripLanes == kLanes);
    double *w = fieldScratch_.data();
    const size_t nx = nx_;
    const size_t ny = ny_;
    // Pass 1 transforms along y, strips of x columns read straight off
    // the row-major field; its final store transposes to w[x*ny + ky].
    strips<false>(ay_, nx_, field, nx,
                  [&](int ky, int x0, int lanes, const Strip &v) {
                      storeColumn(w + x0 * ny + ky, ny, v, lanes);
                  });
    // Pass 2 transforms along x, strips of ky columns of w, into
    // modes[kx*ny + ky].
    strips<false>(ax_, ny_, w, ny,
                  [&](int kx, int ky0, int lanes, const Strip &v) {
                      put(modes + kx * ny + ky0, v, lanes);
                  });
}

BOREAS_DCT_ENTRY void
Dct2Plan::inverse(const double *modes, double *field)
{
    double *w = fieldScratch_.data();
    const size_t nx = nx_;
    const size_t ny = ny_;
    const double scale = 4.0 / (static_cast<double>(nx_) * ny_);
    // Mirror of forward(): undo the x pass (its load halves kx = 0)
    // over strips of ky columns; the final store transposes to
    // w[ky*nx + x] and folds in the 2/n-per-axis scale of the true
    // inverse.
    strips<true>(ax_, ny_, modes, ny,
                 [&](int x, int ky0, int lanes, const Strip &v) {
                     storeColumn(w + ky0 * nx + x, nx, scale * v, lanes);
                 });
    // Then undo the y pass (its load halves ky = 0) over strips of x
    // columns into field.
    strips<true>(ay_, nx_, w, nx,
                 [&](int y, int x0, int lanes, const Strip &v) {
                     put(field + y * nx + x0, v, lanes);
                 });
}

} // namespace boreas
