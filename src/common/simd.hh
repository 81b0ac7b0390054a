/**
 * @file
 * Function multi-versioning switch shared by every dispatched kernel
 * (DESIGN.md §9.6).
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
