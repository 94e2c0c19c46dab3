// Tests for the item memory (src/hdc/item_memory.*): orthogonality of
// feature hypervectors (Eq. 1a) and the linear correlation profile of the
// value/level hypervectors (Eq. 1b).

#include "hdc/item_memory.hpp"

#include <gtest/gtest.h>

#include <cmath>

using hdlock::ContractViolation;
using hdlock::hdc::BinaryHV;
using hdlock::hdc::ItemMemory;
using hdlock::hdc::ItemMemoryConfig;

namespace {

ItemMemory small_memory() {
    ItemMemoryConfig config;
    config.dim = 4096;
    config.n_features = 32;
    config.n_levels = 8;
    config.seed = 99;
    return ItemMemory::generate(config);
}

}  // namespace

TEST(ItemMemory, ShapeMatchesConfig) {
    const auto memory = small_memory();
    EXPECT_EQ(memory.dim(), 4096u);
    EXPECT_EQ(memory.n_features(), 32u);
    EXPECT_EQ(memory.n_levels(), 8u);
    EXPECT_EQ(memory.feature_hv(0).dim(), 4096u);
    EXPECT_EQ(memory.value_hv(7).dim(), 4096u);
    EXPECT_THROW(memory.feature_hv(32), ContractViolation);
    EXPECT_THROW(memory.value_hv(8), ContractViolation);
}

TEST(ItemMemory, FeatureHVsAreQuasiOrthogonal) {
    const auto memory = small_memory();
    for (std::size_t i = 0; i < memory.n_features(); ++i) {
        for (std::size_t j = i + 1; j < memory.n_features(); ++j) {
            const double d = memory.feature_hv(i).normalized_hamming(memory.feature_hv(j));
            ASSERT_NEAR(d, 0.5, 0.05) << "features " << i << ", " << j;
        }
    }
}

TEST(ItemMemory, LevelHVsFollowLinearProfile) {
    // Eq. 1b with values scaled to level indices in [0, M-1]:
    //   Hamm(Val_a, Val_b) / D ~ 0.5 * |a-b| / (M-1).
    const auto memory = small_memory();
    const auto n_levels = memory.n_levels();
    const double dim = static_cast<double>(memory.dim());
    for (std::size_t a = 0; a < n_levels; ++a) {
        for (std::size_t b = 0; b < n_levels; ++b) {
            const double measured = memory.value_hv(a).normalized_hamming(memory.value_hv(b));
            const double expected = 0.5 *
                                    std::abs(static_cast<double>(a) - static_cast<double>(b)) /
                                    static_cast<double>(n_levels - 1);
            ASSERT_NEAR(measured, expected, 1.5 / std::sqrt(dim))
                << "levels " << a << ", " << b;
        }
    }
}

TEST(ItemMemory, LevelFlipSetsAreExactlyNested) {
    // Level l differs from level 0 in exactly round(l * D/2 / (M-1))
    // positions, and those positions are a superset of level l-1's.
    const std::size_t dim = 1000;
    const auto levels = ItemMemory::generate_level_hvs(dim, 5, 7);
    std::size_t previous = 0;
    for (std::size_t l = 1; l < levels.size(); ++l) {
        const std::size_t flips = levels[0].hamming(levels[l]);
        const auto expected = static_cast<std::size_t>(std::llround(
            static_cast<double>(l) * (static_cast<double>(dim) / 2.0) / 4.0));
        EXPECT_EQ(flips, expected) << "level " << l;
        // Nesting: distance(l-1, l) must equal the increment, which only
        // holds when the flip sets are nested.
        EXPECT_EQ(levels[l - 1].hamming(levels[l]), flips - previous);
        previous = flips;
    }
}

TEST(ItemMemory, EndpointLevelsAreQuasiOrthogonal) {
    // The attack's value-extraction step relies on Val_1 and Val_M being the
    // unique pair at distance ~D/2 (Sec. 3.2).
    const std::size_t dim = 10000;
    const auto levels = ItemMemory::generate_level_hvs(dim, 16, 21);
    EXPECT_EQ(levels.front().hamming(levels.back()), dim / 2);
}

TEST(ItemMemory, TwoLevelsDegenerateToOrthogonalPair) {
    const auto levels = ItemMemory::generate_level_hvs(2048, 2, 3);
    ASSERT_EQ(levels.size(), 2u);
    EXPECT_EQ(levels[0].hamming(levels[1]), 1024u);
}

TEST(ItemMemory, DeterministicPerSeed) {
    ItemMemoryConfig config;
    config.dim = 256;
    config.n_features = 4;
    config.n_levels = 4;
    config.seed = 5;
    const auto a = ItemMemory::generate(config);
    const auto b = ItemMemory::generate(config);
    EXPECT_EQ(a.feature_hv(3), b.feature_hv(3));
    EXPECT_EQ(a.value_hv(2), b.value_hv(2));

    config.seed = 6;
    const auto c = ItemMemory::generate(config);
    EXPECT_NE(a.feature_hv(3), c.feature_hv(3));
    EXPECT_NE(a.value_hv(2), c.value_hv(2));
}

TEST(ItemMemory, ZeroFeaturesAllowedForLockedEncoders) {
    ItemMemoryConfig config;
    config.dim = 128;
    config.n_features = 0;
    config.n_levels = 4;
    const auto memory = ItemMemory::generate(config);
    EXPECT_EQ(memory.n_features(), 0u);
    EXPECT_EQ(memory.n_levels(), 4u);
}

TEST(ItemMemory, RejectsBadConfigs) {
    ItemMemoryConfig config;
    config.dim = 0;
    EXPECT_THROW(ItemMemory::generate(config), ContractViolation);
    config.dim = 100;
    config.n_levels = 1;
    EXPECT_THROW(ItemMemory::generate(config), ContractViolation);
    EXPECT_THROW(ItemMemory::generate_level_hvs(100, 1, 0), ContractViolation);
    EXPECT_THROW(ItemMemory::generate_level_hvs(0, 2, 0), ContractViolation);
}

TEST(ItemMemory, FromHypervectorsValidatesDimensions) {
    hdlock::util::Xoshiro256ss rng(1);
    std::vector<BinaryHV> features = {BinaryHV::random(64, rng), BinaryHV::random(64, rng)};
    std::vector<BinaryHV> values = {BinaryHV::random(64, rng), BinaryHV::random(64, rng)};
    const auto memory = ItemMemory::from_hypervectors(features, values);
    EXPECT_EQ(memory.dim(), 64u);
    EXPECT_EQ(memory.n_features(), 2u);

    std::vector<BinaryHV> bad = {BinaryHV::random(32, rng)};
    EXPECT_THROW(ItemMemory::from_hypervectors(bad, values), ContractViolation);
    EXPECT_THROW(ItemMemory::from_hypervectors(features, {}), ContractViolation);
}
