// Tests for the deterministic PRNG layer (src/util/rng.*).

#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <climits>
#include <cstring>
#include <numeric>
#include <span>
#include <vector>

using hdlock::util::fnv1a;
using hdlock::util::hash_mix;
using hdlock::util::SplitMix64;
using hdlock::util::Xoshiro256ss;

TEST(SplitMix, KnownSequenceIsStable) {
    // Golden values locked in once; any change to the generator would
    // silently invalidate every recorded experiment, so fail loudly instead.
    SplitMix64 sm(0);
    const std::uint64_t first = sm.next();
    SplitMix64 sm2(0);
    EXPECT_EQ(first, sm2.next());
    EXPECT_EQ(first, 0xe220a8397b1dcdafULL);  // published splitmix64 test vector
}

TEST(Xoshiro, DeterministicPerSeed) {
    Xoshiro256ss a(1234), b(1234), c(1235);
    bool any_diff = false;
    for (int i = 0; i < 100; ++i) {
        const auto va = a();
        EXPECT_EQ(va, b());
        any_diff = any_diff || (va != c());
    }
    EXPECT_TRUE(any_diff);
}

TEST(Xoshiro, NextBelowStaysInRange) {
    Xoshiro256ss rng(7);
    for (const std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 784ull, 10000ull}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.next_below(bound), bound);
        }
    }
}

TEST(Xoshiro, NextBelowIsRoughlyUniform) {
    Xoshiro256ss rng(8);
    constexpr std::uint64_t kBins = 16;
    constexpr int kDraws = 160000;
    std::array<int, kBins> histogram{};
    for (int i = 0; i < kDraws; ++i) ++histogram[rng.next_below(kBins)];
    const double expected = static_cast<double>(kDraws) / kBins;
    for (const int count : histogram) {
        EXPECT_NEAR(static_cast<double>(count), expected, expected * 0.05);
    }
}

TEST(Xoshiro, NextDoubleInUnitInterval) {
    Xoshiro256ss rng(9);
    double sum = 0.0;
    for (int i = 0; i < 100000; ++i) {
        const double x = rng.next_double();
        ASSERT_GE(x, 0.0);
        ASSERT_LT(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, NormalHasExpectedMoments) {
    Xoshiro256ss rng(10);
    double sum = 0.0, sum_sq = 0.0;
    constexpr int kDraws = 200000;
    for (int i = 0; i < kDraws; ++i) {
        const double x = rng.next_normal();
        sum += x;
        sum_sq += x * x;
    }
    const double mean = sum / kDraws;
    const double var = sum_sq / kDraws - mean * mean;
    EXPECT_NEAR(mean, 0.0, 0.02);
    EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Xoshiro, NormalScalesMeanAndStddev) {
    Xoshiro256ss rng(11);
    double sum = 0.0;
    constexpr int kDraws = 50000;
    for (int i = 0; i < kDraws; ++i) sum += rng.next_normal(5.0, 0.5);
    EXPECT_NEAR(sum / kDraws, 5.0, 0.02);
}

TEST(Xoshiro, NextSignIsBalanced) {
    Xoshiro256ss rng(12);
    int plus = 0;
    for (int i = 0; i < 100000; ++i) {
        const int s = rng.next_sign();
        ASSERT_TRUE(s == 1 || s == -1);
        plus += s == 1 ? 1 : 0;
    }
    EXPECT_NEAR(plus / 100000.0, 0.5, 0.01);
}

TEST(Xoshiro, ShuffleIsAPermutation) {
    Xoshiro256ss rng(13);
    std::vector<int> values(100);
    std::iota(values.begin(), values.end(), 0);
    const auto original = values;
    rng.shuffle(std::span<int>(values));
    EXPECT_NE(values, original);  // astronomically unlikely to be identity
    auto sorted = values;
    std::ranges::sort(sorted);
    EXPECT_EQ(sorted, original);
}

TEST(Xoshiro, ShuffleDeterministicPerSeed) {
    std::vector<int> a(50), b(50);
    std::iota(a.begin(), a.end(), 0);
    std::iota(b.begin(), b.end(), 0);
    Xoshiro256ss r1(77), r2(77);
    r1.shuffle(std::span<int>(a));
    r2.shuffle(std::span<int>(b));
    EXPECT_EQ(a, b);
}

TEST(Fnv1a, MatchesPublishedVectors) {
    EXPECT_EQ(fnv1a({}), 0xcbf29ce484222325ULL);
    const char a = 'a';
    EXPECT_EQ(fnv1a(std::as_bytes(std::span<const char>(&a, 1))), 0xaf63dc4c8601ec8cULL);
}

TEST(Fnv1a, SensitiveToEveryByte) {
    std::array<std::uint8_t, 8> buf{1, 2, 3, 4, 5, 6, 7, 8};
    const auto base = fnv1a(std::as_bytes(std::span<const std::uint8_t>(buf)));
    for (std::size_t i = 0; i < buf.size(); ++i) {
        auto mutated = buf;
        mutated[i] ^= 1;
        EXPECT_NE(base, fnv1a(std::as_bytes(std::span<const std::uint8_t>(mutated))));
    }
}

namespace {

/// FNV-1a one byte at a time, as published: the reference for fnv1a's
/// four-byte groups.
std::uint64_t fnv1a_bytewise(std::span<const std::byte> bytes) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const std::byte b : bytes) {
        hash ^= static_cast<std::uint64_t>(b);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

}  // namespace

TEST(Fnv1a, MatchesByteAtATimeOnEveryLength) {
    // Lengths 0-67 cover every group count and every 0-3 byte remainder.
    // Per length: random bytes, groups b0 0 0 0 throughout (a level row),
    // and a mix where each group is either that shape or has one non-zero
    // high byte.
    Xoshiro256ss rng(68);
    for (std::size_t n = 0; n <= 67; ++n) {
        std::vector<std::byte> random(n), levels(n, std::byte{0}), mixed(n, std::byte{0});
        for (std::size_t i = 0; i < n; ++i) {
            random[i] = static_cast<std::byte>(rng());
            if (i % 4 == 0) levels[i] = mixed[i] = static_cast<std::byte>(rng());
        }
        for (std::size_t group = 0; group * 4 + 3 < n; ++group) {
            if (rng.next_below(2) == 0) {
                mixed[group * 4 + 1 + rng.next_below(3)] = static_cast<std::byte>(1 + rng.next_below(255));
            }
        }
        for (const auto* bytes : {&random, &levels, &mixed}) {
            EXPECT_EQ(fnv1a(*bytes), fnv1a_bytewise(*bytes)) << "length " << n;
        }
    }
}

TEST(Fnv1a, Int32GroupsWithNonZeroHighBytesMatchByteAtATime) {
    // Negative ints and values >= 256 leave the zero-high-bytes shape.
    const std::vector<int> values = {0,       1,       255,     256,     257,       65535,
                                     65536,   1 << 24, -1,      -2,      -256,      INT_MIN,
                                     INT_MAX, 7,       0x0100,  0x10000, 0x1000000, 15};
    for (std::size_t n = 0; n <= values.size(); ++n) {
        const std::span<const int> prefix(values.data(), n);
        EXPECT_EQ(hdlock::util::fnv1a_of(prefix), fnv1a_bytewise(std::as_bytes(prefix)))
            << "prefix " << n;
    }
    Xoshiro256ss rng(256);
    for (int trial = 0; trial < 200; ++trial) {
        std::vector<int> row(1 + rng.next_below(64));
        for (int& v : row) {
            v = rng.next_below(4) == 0 ? static_cast<int>(rng()) : static_cast<int>(rng.next_below(16));
        }
        const std::span<const int> span(row);
        EXPECT_EQ(hdlock::util::fnv1a_of(span), fnv1a_bytewise(std::as_bytes(span)));
    }
}

TEST(HashMix, OrderSensitive) {
    EXPECT_NE(hash_mix(1, 2), hash_mix(2, 1));
    EXPECT_EQ(hash_mix(1, 2), hash_mix(1, 2));
}
