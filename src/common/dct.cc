#include "common/dct.hh"

#include <algorithm>
#include <cmath>
#include <utility>

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
/** Multiplier that halves lane 0 only (times 1.0 is exact). */
constexpr Strip kHalveLane0 = {0.5, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0};

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

/*
 * Strip kernels. Each sweep reads one scratch array and hands every
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
template <typename Out>
void
splitLevel(int n, int len, const Strip *sec, const Strip *src,
           const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int i = 0; i < half; ++i) {
            const Strip x = src[s0 + i];
            const Strip y = src[s0 + len - 1 - i];
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
template <typename Out>
void
splitPair(int n, int len, const Strip *secL, const Strip *secH,
          const Strip *src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int j = 0; j < quarter; ++j) {
            const Strip a = src[s0 + j];
            const Strip b = src[s0 + len - 1 - j];
            const Strip c = src[s0 + half - 1 - j];
            const Strip d = src[s0 + half + j];
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
template <typename Out>
void
recombineLevel(int n, int len, const Strip *src, const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        const Strip *sums = src + s0;
        const Strip *difs = src + s0 + half;
        for (int i = 0; i < half - 1; ++i) {
            out(s0 + 2 * i, sums[i]);
            out(s0 + 2 * i + 1, difs[i] + difs[i + 1]);
        }
        out(s0 + len - 2, sums[half - 1]);
        out(s0 + len - 1, difs[half - 1]);
    }
}

/**
 * One DCT-III de-interleave level: even coefficients to the front
 * half, odd ones as adjacent sums to the back half.
 */
template <typename Out>
void
deinterleaveLevel(int n, int len, const Strip *src, const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        const Strip *blk = src + s0;
        out(s0, blk[0]);
        out(s0 + half, blk[1]);
        for (int i = 1; i < half; ++i) {
            out(s0 + i, blk[2 * i]);
            out(s0 + half + i, blk[2 * i - 1] + blk[2 * i + 1]);
        }
    }
}

/** One DCT-III butterfly level of length len over every block. */
template <typename Out>
void
butterflyLevel(int n, int len, const Strip *sec, const Strip *src,
               const Out &out)
{
    const int half = len / 2;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int i = 0; i < half; ++i) {
            const Strip x = src[s0 + i];
            const Strip y = src[s0 + half + i] * sec[i];
            out(s0 + i, x + y);
            out(s0 + len - 1 - i, x - y);
        }
    }
}

/**
 * Butterfly levels len/2 and len fused: one level-len/2 butterfly on
 * each half produces exactly the four inputs of a level-len pair.
 */
template <typename Out>
void
butterflyPair(int n, int len, const Strip *secH, const Strip *secL,
              const Strip *src, const Out &out)
{
    const int half = len / 2;
    const int quarter = len / 4;
    for (int s0 = 0; s0 < n; s0 += len) {
        for (int j = 0; j < quarter; ++j) {
            const Strip x0 = src[s0 + j];
            const Strip y0 = src[s0 + quarter + j] * secH[j];
            const Strip x1 = src[s0 + half + j];
            const Strip y1 = src[s0 + half + quarter + j] * secH[j];
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

/**
 * The last three DCT-II split levels (len 8, 4, 2) and the first two
 * recombine levels (len 4, 8) of the 8-position block at src, in
 * registers: 8 loads and 8 stores instead of five sweeps.
 */
template <typename Out>
void
dct2Block8(const Strip *x, const Strip *c8, const Strip *c4,
           const Strip *c2, int s0, const Out &out)
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
    out(s0 + 0, p0);
    out(s0 + 1, p4 + q5);
    out(s0 + 2, q1);
    out(s0 + 3, q5 + p5);
    out(s0 + 4, p1);
    out(s0 + 5, p5 + p7);
    out(s0 + 6, p3);
    out(s0 + 7, p7);
}

/**
 * The DCT-III counterpart: de-interleave levels len 8 and 4, then
 * butterfly levels len 2, 4 and 8 of the block at src, in registers.
 */
template <typename Out>
void
dct3Block8(const Strip *y, const Strip *c2, const Strip *c4,
           const Strip *c8, int s0, const Out &out)
{
    // De-interleave len 8 (evens e*, odd adjacent sums o*), then len 4
    // on each half; f* and g* are the resulting quarter-blocks.
    const Strip o1 = y[1] + y[3];
    const Strip o2 = y[3] + y[5];
    const Strip o3 = y[5] + y[7];
    const Strip f3 = y[2] + y[6];
    const Strip g3 = o1 + o3;
    // Butterflies len 2 on (y0, y4), (y2, f3), (y1, o2), (o1, g3).
    const Strip t0 = y[4] * c2[0];
    const Strip h0 = y[0] + t0;
    const Strip h1 = y[0] - t0;
    const Strip t1 = f3 * c2[0];
    const Strip h2 = y[2] + t1;
    const Strip h3 = y[2] - t1;
    const Strip t2 = o2 * c2[0];
    const Strip h4 = y[1] + t2;
    const Strip h5 = y[1] - t2;
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
    out(s0 + 0, k0 + v0);
    out(s0 + 7, k0 - v0);
    out(s0 + 1, k1 + v1);
    out(s0 + 6, k1 - v1);
    out(s0 + 2, k2 + v2);
    out(s0 + 5, k2 - v2);
    out(s0 + 3, k3 + v3);
    out(s0 + 4, k3 - v3);
}

/**
 * A strip transform's sweep sequence: each sweep reads `cur` and
 * writes the other scratch array, except the last, which writes the
 * caller's `out`.
 */
struct SweepChain
{
    Strip *cur;
    Strip *nxt;
    int left; ///< sweeps still to run

    template <typename Out, typename Sweep>
    void
    run(const Out &out, const Sweep &sweep)
    {
        if (--left == 0) {
            sweep(cur, out);
            return;
        }
        sweep(cur, ToScratch{nxt});
        std::swap(cur, nxt);
    }
};

/**
 * Unnormalized DCT-II of the strip in `a` (Lee's split): the split
 * levels above len 8 in descending order, fused in pairs (an odd
 * count starts with a single level), one dct2Block8 sweep, then the
 * recombine levels len = 16..n. Axes shorter than 8 run every level
 * as a sweep instead. Sweeps ping-pong between `a` and `b`.
 */
template <typename Out>
void
leeDct2(int n, const Strip *halfSec, const size_t *levelOff, Strip *a,
        Strip *b, const Out &out)
{
    const int levels = log2Of(n);
    const int blocked = levels >= 3 ? 3 : 0; // levels in dct2Block8
    const int split = levels - blocked;
    const int first = blocked != 0 ? 16 : 4; // first recombine sweep
    SweepChain chain{a, b, (split + 1) / 2 + (blocked != 0) +
                               (levels - log2Of(first) + 1)};
    const auto sec = [&](int level) { return halfSec + levelOff[level]; };
    int level = 0;
    if (split % 2 == 1) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            splitLevel(n, n, sec(0), src, o);
        });
        level = 1;
    }
    for (; level < split; level += 2) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            splitPair(n, n >> level, sec(level), sec(level + 1), src, o);
        });
    }
    if (blocked != 0) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            for (int s0 = 0; s0 < n; s0 += 8) {
                dct2Block8(src + s0, sec(split), sec(split + 1),
                           sec(split + 2), s0, o);
            }
        });
    }
    for (int len = first; len <= n; len *= 2) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            recombineLevel(n, len, src, o);
        });
    }
}

/**
 * Unscaled DCT-III of the strip in `a` (the inverse direction): the
 * de-interleave levels len = n..16, one dct3Block8 sweep, then the
 * butterfly levels len = 16..n, fused in pairs (an odd count starts
 * with a single level). Axes shorter than 8 run every level as a
 * sweep instead.
 */
template <typename Out>
void
leeDct3(int n, const Strip *halfSec, const size_t *levelOff, Strip *a,
        Strip *b, const Out &out)
{
    const int levels = log2Of(n);
    const int blocked = levels >= 3 ? 3 : 0; // levels in dct3Block8
    const int butterflies = levels - blocked;
    const int last = blocked != 0 ? 16 : 4; // last de-interleave sweep
    SweepChain chain{a, b, (levels - log2Of(last) + 1) +
                               (blocked != 0) + (butterflies + 1) / 2};
    // The secant table of length-len butterflies (len = n >> level).
    const auto sec = [&](int len) {
        return halfSec + levelOff[levels - log2Of(len)];
    };
    for (int len = n; len >= last; len /= 2) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            deinterleaveLevel(n, len, src, o);
        });
    }
    if (blocked != 0) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            for (int s0 = 0; s0 < n; s0 += 8)
                dct3Block8(src + s0, sec(2), sec(4), sec(8), s0, o);
        });
    }
    int len = 2 << blocked; // first butterfly sweep
    if (butterflies % 2 == 1) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            butterflyLevel(n, len, sec(len), src, o);
        });
        len *= 2;
    }
    for (; len <= n; len *= 4) {
        chain.run(out, [&](const Strip *src, const auto &o) {
            butterflyPair(n, 2 * len, sec(len), sec(2 * len), src, o);
        });
    }
}

/**
 * Dense fallback for one strip: out(k) = sum_i mat[k*n + i] * a[i],
 * accumulated in i order.
 */
template <typename Out>
void
denseApply(int n, const double *mat, const Strip *a, const Out &out)
{
    for (int k = 0; k < n; ++k) {
        const double *m = mat + static_cast<size_t>(k) * n;
        Strip acc = m[0] * a[0];
        for (int i = 1; i < n; ++i)
            acc += m[i] * a[i];
        out(k, acc);
    }
}

/**
 * Load `lanes` contiguous values from `p` into the scratch strip `dst`;
 * missing lanes are zero.
 */
void
loadStrip(Strip *dst, const double *p, int lanes)
{
    Strip v = {};
    loadLanes(v, p, lanes);
    put(reinterpret_cast<double *>(dst), v);
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

template <bool Inverse, typename Load, typename Store>
void
Dct2Plan::strips(const Axis &ax, int batch, bool halve_first,
                 const Load &load, const Store &store)
{
    const int n = ax.n;
    Strip *a = reinterpret_cast<Strip *>(stripScratch_.data());
    Strip *b = a + n;
    const double *mat = Inverse ? ax.invMat.data() : ax.fwdMat.data();
    const Strip *sec = reinterpret_cast<const Strip *>(ax.halfSec.data());
    for (int c0 = 0; c0 < batch; c0 += kLanes) {
        const int lanes = std::min(kLanes, batch - c0);
        for (int k = 0; k < n; ++k)
            load(a + k, k, c0, lanes);
        if (halve_first)
            ToScratch{a}(0, 0.5 * a[0]);
        const auto out = [&](int k, const Strip &v) {
            store(k, c0, lanes, v);
        };
        if (!ax.pow2)
            denseApply(n, mat, a, out);
        else if (Inverse)
            leeDct3(n, sec, ax.levelOff.data(), a, b, out);
        else
            leeDct2(n, sec, ax.levelOff.data(), a, b, out);
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
    strips<false>(
        ay_, nx_, false,
        [&](Strip *v, int y, int x0, int lanes) {
            loadStrip(v, field + y * nx + x0, lanes);
        },
        [&](int ky, int x0, int lanes, const Strip &v) {
            storeColumn(w + x0 * ny + ky, ny, v, lanes);
        });
    // Pass 2 transforms along x, strips of ky columns of w, into
    // modes[kx*ny + ky].
    strips<false>(
        ax_, ny_, false,
        [&](Strip *v, int x, int ky0, int lanes) {
            loadStrip(v, w + x * ny + ky0, lanes);
        },
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
    // Mirror of forward(): undo the x pass (halving coefficient kx=0)
    // over strips of ky columns; the final store transposes to
    // w[ky*nx + x] and folds in the 2/n-per-axis scale of the true
    // inverse and the ky=0 halving.
    strips<true>(
        ax_, ny_, true,
        [&](Strip *v, int kx, int ky0, int lanes) {
            loadStrip(v, modes + kx * ny + ky0, lanes);
        },
        [&](int x, int ky0, int lanes, const Strip &v) {
            Strip s = scale * v;
            if (ky0 == 0)
                s *= kHalveLane0;
            storeColumn(w + ky0 * nx + x, nx, s, lanes);
        });
    // Then undo the y pass over strips of x columns into field.
    strips<true>(
        ay_, nx_, false,
        [&](Strip *v, int ky, int x0, int lanes) {
            loadStrip(v, w + ky * nx + x0, lanes);
        },
        [&](int y, int x0, int lanes, const Strip &v) {
            put(field + y * nx + x0, v, lanes);
        });
}

} // namespace boreas
