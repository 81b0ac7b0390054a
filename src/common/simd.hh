/**
 * @file
 * Function multi-versioning switch and strip type shared by every
 * dispatched kernel (DESIGN.md §9.6).
 *
 * BOREAS_TARGET_CLONES(...) expands to GCC's target_clones attribute
 * on x86-64: the loader's ifunc resolver picks the first listed
 * feature set the host supports, falling back to "default". It
 * expands to nothing off GCC/x86-64 and under ThreadSanitizer, where
 * the resolver runs before the TSan runtime initializes and segfaults
 * every binary at load; BOREAS_HAVE_TARGET_CLONES says which case
 * applies.
 */

#pragma once

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && \
    !defined(__SANITIZE_THREAD__)
#define BOREAS_HAVE_TARGET_CLONES 1
#define BOREAS_TARGET_CLONES(...) \
    __attribute__((target_clones(__VA_ARGS__)))
#else
#define BOREAS_HAVE_TARGET_CLONES 0
#define BOREAS_TARGET_CLONES(...)
#endif

#include <cstddef>
#include <cstring>
#include <new>
#include <vector>

namespace boreas
{

/**
 * Eight adjacent doubles, the unit the dispatched kernels work on. The
 * explicit alignment keeps the type identical in every clone: GCC
 * otherwise aligns a generic vector to the widest vector the
 * *compiling* target has, which differs between the baseline and
 * AVX-512 clones. Helpers take strips by reference: passing or
 * returning one by value changes the ABI between clones (-Wpsabi).
 */
typedef double Strip __attribute__((vector_size(64), aligned(64)));
constexpr int kLanes = 8;

/** Load `lanes` contiguous values from `p` into `v`; missing lanes are 0. */
inline void
loadLanes(Strip &v, const double *p, int lanes = kLanes)
{
    // A full strip is one fixed-size memcpy, i.e. a single vector load
    // on every target; a lane loop would assemble it piece by piece.
    v = Strip{};
    if (lanes == kLanes)
        std::memcpy(&v, p, sizeof(v));
    else
        std::memcpy(&v, p, lanes * sizeof(double));
}

/**
 * Write the first `lanes` lanes of `v` to p[0..lanes). Every strip
 * store goes through here, lane by lane: a whole-vector store of a
 * 512-bit value bounces through the stack wherever the target lacks
 * 512-bit registers. The full-strip case keeps a constant trip count,
 * which GCC emits as whole vector stores.
 */
inline void
put(double *p, const Strip &v, int lanes = kLanes)
{
    if (lanes == kLanes) {
        for (int l = 0; l < kLanes; ++l)
            p[l] = v[l];
    } else {
        for (int l = 0; l < lanes; ++l)
            p[l] = v[l];
    }
}

/**
 * Allocator that starts every block on a strip (64-byte) boundary, so
 * the whole-strip stores of a kernel that writes the block from its
 * start never split a cache line.
 */
template <typename T>
struct StripAllocator
{
    using value_type = T;

    StripAllocator() = default;
    template <typename U>
    StripAllocator(const StripAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(sizeof(Strip))));
    }

    void
    deallocate(T *p, size_t)
    {
        ::operator delete(p, std::align_val_t(sizeof(Strip)));
    }

    bool operator==(const StripAllocator &) const { return true; }
};

/** A vector whose data starts on a strip boundary. */
template <typename T>
using StripVector = std::vector<T, StripAllocator<T>>;

} // namespace boreas
