#include "util/rng.hpp"

#include <bit>
#include <cmath>
#include <numbers>

namespace hdlock::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256ss::Xoshiro256ss(std::uint64_t seed) noexcept {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm.next();
    // An all-zero state would be a fixed point; SplitMix64 cannot produce
    // four zero outputs in a row, so no further check is needed.
}

Xoshiro256ss::result_type Xoshiro256ss::operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
}

std::uint64_t Xoshiro256ss::next_below(std::uint64_t bound) noexcept {
    // Bitmask rejection: unbiased and free of 128-bit arithmetic. Expected
    // iterations < 2 for any bound.
    if (bound <= 1) return 0;
    const int width = 64 - std::countl_zero(bound - 1);
    const std::uint64_t mask = width == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << width) - 1;
    for (;;) {
        const std::uint64_t x = operator()() & mask;
        if (x < bound) return x;
    }
}

double Xoshiro256ss::next_double() noexcept {
    // 53 high bits -> [0, 1) with full double precision.
    return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

double Xoshiro256ss::next_normal() noexcept {
    if (has_cached_normal_) {
        has_cached_normal_ = false;
        return cached_normal_;
    }
    // Box-Muller; u1 is kept away from zero so std::log stays finite.
    double u1 = 0.0;
    do {
        u1 = next_double();
    } while (u1 <= 0.0);
    const double u2 = next_double();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_normal_ = radius * std::sin(angle);
    has_cached_normal_ = true;
    return radius * std::cos(angle);
}

std::uint64_t fnv1a(std::span<const std::byte> bytes) noexcept {
    constexpr std::uint64_t kPrime = 0x100000001b3ULL;
    // XORing a zero byte changes nothing, so a 4-byte group b0 0 0 0 hashes
    // as one XOR and one multiply by prime^4 (mod 2^64) instead of four
    // dependent multiplies.  A level row is such groups throughout: small
    // non-negative int32s, little-endian.  Every other group, and the last
    // size % 4 bytes, take the byte loop, so no hash value changes.
    constexpr std::uint64_t kPrime4 = kPrime * kPrime * kPrime * kPrime;
    const std::byte* p = bytes.data();
    const std::size_t n = bytes.size();
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        if ((p[i + 1] | p[i + 2] | p[i + 3]) == std::byte{0}) {
            hash = (hash ^ static_cast<std::uint64_t>(p[i])) * kPrime4;
            continue;
        }
        for (std::size_t k = i; k < i + 4; ++k) {
            hash ^= static_cast<std::uint64_t>(p[k]);
            hash *= kPrime;
        }
    }
    for (; i < n; ++i) {
        hash ^= static_cast<std::uint64_t>(p[i]);
        hash *= kPrime;
    }
    return hash;
}

}  // namespace hdlock::util
