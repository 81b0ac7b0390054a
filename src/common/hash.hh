/**
 * @file
 * Streaming hashers over exact bit patterns.
 *
 * Doubles are hashed by their IEEE-754 bits, so two inputs hash equal
 * iff they are bitwise identical — exactly the determinism contract
 * the parallel layer promises (common/parallel.hh). Neither hasher is
 * cryptographic or portable across endianness; they only need to
 * compare runs within one process.
 *
 * - Fnv1a: byte-wise FNV-1a 64. Derives mix groupIds and adversarial
 *   seeds from source names, checksums boreas-trace-v1 payloads,
 *   builds the fleet rollup, chains the pipeline's runHash and backs
 *   the kernel golden digests. Its values are part of the trace format
 *   and of workload behaviour, so it must never change.
 * - StateHasher: the pipeline's per-step state hash (DESIGN.md §7),
 *   ~4,200 words per step, hashed eight lanes at a time at word speed.
 */

#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace boreas
{

/** Streaming 64-bit FNV-1a. */
class Fnv1a
{
  public:
    void
    addBytes(const void *p, size_t n)
    {
        const auto *b = static_cast<const unsigned char *>(p);
        for (size_t i = 0; i < n; ++i) {
            h_ ^= b[i];
            h_ *= 0x100000001b3ULL;
        }
    }

    void
    add(uint64_t v)
    {
        addBytes(&v, sizeof(v));
    }

    void
    add(int64_t v)
    {
        addBytes(&v, sizeof(v));
    }

    void
    add(int v)
    {
        add(static_cast<int64_t>(v));
    }

    /** Hash the exact IEEE-754 bit pattern (distinguishes -0.0/+0.0). */
    void
    add(double v)
    {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    void
    add(const std::vector<double> &v)
    {
        for (double x : v)
            add(x);
    }

    uint64_t digest() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ULL;
};

/**
 * Eight-lane word hasher. Word i of the stream (each add() appends its
 * 64-bit words) goes to lane i mod 8, which takes an xxHash64
 * round, acc = rotl(acc + w * P2, 31) * P1: eight independent multiply
 * chains instead of FNV-1a's one serial multiply per byte. The round is
 * a bijection of acc for each w and of w for each acc, so changing any
 * one word changes its lane. The plain acc = (acc ^ w) * P round is
 * not enough: it carries a flipped sign bit into the next word of the
 * same lane, where a second sign flip cancels it. digest() folds the
 * lanes and the word count through Fnv1a, so the digest depends on the
 * word sequence only, never on how it was split into add() calls.
 */
class StateHasher
{
  public:
    void
    add(uint64_t w)
    {
        uint64_t &acc = acc_[n_ % kLanes];
        acc = mix(acc, w);
        ++n_;
    }

    void
    add(int64_t v)
    {
        add(static_cast<uint64_t>(v));
    }

    void
    add(int v)
    {
        add(static_cast<int64_t>(v));
    }

    /** Hash the exact IEEE-754 bit pattern (distinguishes -0.0/+0.0). */
    void
    add(double v)
    {
        uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    /** Bulk form: the same words as n single add(double) calls. */
    void
    add(const double *p, size_t n)
    {
        size_t i = 0;
        for (; i < n && n_ % kLanes != 0; ++i)
            add(p[i]);
        // Lane-aligned now: whole blocks go to lanes 0..7 in order.
        const size_t aligned = i;
        uint64_t a[kLanes] = {};
        std::memcpy(a, acc_, sizeof(a));
        for (; i + kLanes <= n; i += kLanes) {
            uint64_t w[kLanes] = {};
            std::memcpy(w, p + i, sizeof(w));
            // -O2 keeps the lane loop rolled; unrolled, the eight
            // accumulators live in registers.
#pragma GCC unroll 8
            for (size_t l = 0; l < kLanes; ++l)
                a[l] = mix(a[l], w[l]);
        }
        std::memcpy(acc_, a, sizeof(a));
        n_ += i - aligned;
        for (; i < n; ++i)
            add(p[i]);
    }

    void
    add(const std::vector<double> &v)
    {
        add(v.data(), v.size());
    }

    uint64_t
    digest() const
    {
        Fnv1a fold;
        for (uint64_t acc : acc_)
            fold.add(acc);
        fold.add(n_);
        return fold.digest();
    }

  private:
    static constexpr size_t kLanes = 8;
    static constexpr uint64_t kP1 = 0x9e3779b185ebca87ULL;
    static constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;

    /** One xxHash64 round. */
    static uint64_t
    mix(uint64_t acc, uint64_t w)
    {
        acc += w * kP2;
        acc = (acc << 31) | (acc >> 33);
        return acc * kP1;
    }

    /** Distinct nonzero lane seeds, so a zero word still moves a lane. */
    uint64_t acc_[kLanes] = {
        kP1, kP2, kP1 + kP2, kP1 - kP2,
        kP1 * 3, kP2 * 3, kP1 * 5, kP2 * 5,
    };
    uint64_t n_ = 0; ///< words hashed so far
};

} // namespace boreas
