/**
 * @file
 * Unit tests for the streaming hashers (common/hash.hh): StateHasher's
 * digest depends only on the word sequence and separates the edits a
 * per-step state can undergo (a bit flip, a sign, a swap, one more
 * word), and Fnv1a stays the published FNV-1a 64 that the trace
 * format and the workload seeds are built on.
 */

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hh"
#include "common/rng.hh"

using namespace boreas;

namespace
{

/** About one 64x64 pipeline step's worth of words. */
constexpr size_t kWords = 4203;

std::vector<double>
randomStream(uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(kWords);
    for (double &x : v)
        x = rng.uniform(-120.0, 120.0);
    return v;
}

/** Reference: one add(double) per word. */
uint64_t
wordByWord(const std::vector<double> &v)
{
    StateHasher h;
    for (double x : v)
        h.add(x);
    return h.digest();
}

/** The pipeline's path: one bulk call. */
uint64_t
bulk(const std::vector<double> &v)
{
    StateHasher h;
    h.add(v);
    return h.digest();
}

double
withBits(double x, uint64_t mask)
{
    uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    bits ^= mask;
    std::memcpy(&x, &bits, sizeof(x));
    return x;
}

constexpr uint64_t kSignBit = 1ULL << 63;

std::string
hex(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
    return buf;
}

} // namespace

TEST(StateHasher, DigestIsIndependentOfHowTheStreamIsSplit)
{
    const std::vector<double> v = randomStream(11);
    const uint64_t ref = wordByWord(v);
    EXPECT_EQ(bulk(v), ref);

    // Fixed chunk sizes, most of them leaving the next call off a lane
    // boundary.
    for (size_t chunk : {1, 3, 5, 7, 8, 9, 13, 16, 17, 1000, 4202}) {
        StateHasher h;
        for (size_t i = 0; i < v.size(); i += chunk)
            h.add(v.data() + i, std::min(chunk, v.size() - i));
        EXPECT_EQ(h.digest(), ref) << "chunk " << chunk;
    }

    // Random splits mixing the bulk, single-word and empty calls.
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        StateHasher h;
        size_t i = 0;
        while (i < v.size()) {
            const size_t len =
                std::min<size_t>(rng.next() % 40, v.size() - i);
            if (len == 1)
                h.add(v[i]);
            else
                h.add(v.data() + i, len);
            i += len;
        }
        EXPECT_EQ(h.digest(), ref) << "trial " << trial;
    }

    // The integer overloads are the same 64-bit word.
    StateHasher a, b, c;
    a.add(-3);
    b.add(static_cast<int64_t>(-3));
    c.add(static_cast<uint64_t>(-3));
    EXPECT_EQ(a.digest(), b.digest());
    EXPECT_EQ(a.digest(), c.digest());
}

TEST(StateHasher, NegativeZeroDiffersFromPositiveZero)
{
    StateHasher pos, neg;
    pos.add(0.0);
    neg.add(-0.0);
    EXPECT_NE(pos.digest(), neg.digest());

    std::vector<double> v = randomStream(12);
    v[100] = 0.0;
    const uint64_t with_pos = bulk(v);
    v[100] = -0.0;
    EXPECT_NE(bulk(v), with_pos);
}

TEST(StateHasher, EverySingleBitFlipChangesTheDigest)
{
    std::vector<double> v = randomStream(13);
    const uint64_t base = bulk(v);
    for (size_t pos : {0, 7, 8, 4095, 4202}) {
        for (int bit = 0; bit < 64; ++bit) {
            const double saved = v[pos];
            v[pos] = withBits(saved, 1ULL << bit);
            EXPECT_NE(bulk(v), base) << "word " << pos << " bit " << bit;
            v[pos] = saved;
        }
    }
}

TEST(StateHasher, SignFlipsInTheSameLaneDoNotCancel)
{
    // Words i and i + 8 share a lane. Under acc = (acc ^ w) * P a sign
    // flip of w flips only bit 63 of acc (P is odd), and the sign flip
    // of the lane's next word xors it back out; the xxHash round's
    // rotate moves the flipped bit where the next word cannot reach it.
    std::vector<double> v = randomStream(14);
    const uint64_t base = bulk(v);
    for (size_t i : {0, 1, 7, 100, 4000, 4194}) {
        std::vector<double> f = v;
        f[i] = withBits(f[i], kSignBit);
        f[i + 8] = withBits(f[i + 8], kSignBit);
        EXPECT_NE(bulk(f), base) << "words " << i << ", " << i + 8;
    }
}

TEST(StateHasher, SwappingAdjacentWordsChangesTheDigest)
{
    std::vector<double> v = randomStream(15);
    const uint64_t base = bulk(v);
    for (size_t i : {0, 7, 8, 2047, 4201}) {
        std::swap(v[i], v[i + 1]);
        EXPECT_NE(bulk(v), base) << "words " << i << ", " << i + 1;
        std::swap(v[i], v[i + 1]);
    }
}

TEST(StateHasher, AppendingAZeroWordChangesTheDigest)
{
    std::vector<double> v = randomStream(16);
    const uint64_t base = bulk(v);
    v.push_back(0.0);
    EXPECT_NE(bulk(v), base);

    StateHasher empty, zero;
    zero.add(static_cast<uint64_t>(0));
    EXPECT_NE(zero.digest(), empty.digest());
}

TEST(StateHasher, GoldenDigest)
{
    // Pins the round, the lane seeds and the fold: a change to any of
    // them moves every pipeline runHash (Pipeline.GoldenRunHashes).
    EXPECT_EQ(hex(bulk(randomStream(2023))), hex(0xbd69f92702abcfd1));
}

TEST(Fnv1a, PublishedTestVectors)
{
    // FNV-1a 64 reference values (Fowler/Noll/Vo). The boreas-trace-v1
    // payload checksum and the workload seeds derive from these.
    const std::pair<const char *, uint64_t> vectors[] = {
        {"", 0xcbf29ce484222325ULL},
        {"a", 0xaf63dc4c8601ec8cULL},
        {"foobar", 0x85944171f73967e8ULL},
    };
    for (const auto &[text, expected] : vectors) {
        Fnv1a h;
        h.addBytes(text, std::strlen(text));
        EXPECT_EQ(hex(h.digest()), hex(expected)) << '"' << text << '"';
    }
}
