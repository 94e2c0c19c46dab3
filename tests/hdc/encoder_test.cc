// Tests for the record-based encoder (src/hdc/encoder.*): equivalence of the
// bit-sliced fast path with the Eq. 2 reference, and the algebraic properties
// (Eq. 5, Eq. 7) that the Sec. 3 attack exploits.

#include "hdc/encoder.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include "util/kernels.hpp"

using hdlock::ContractViolation;
using hdlock::hdc::BinaryHV;
using hdlock::hdc::Encoder;
using hdlock::hdc::IntHV;
using hdlock::hdc::ItemMemory;
using hdlock::hdc::ItemMemoryConfig;
using hdlock::hdc::RecordEncoder;

namespace {

std::shared_ptr<const ItemMemory> make_memory(std::size_t dim, std::size_t n_features,
                                              std::size_t n_levels, std::uint64_t seed) {
    ItemMemoryConfig config;
    config.dim = dim;
    config.n_features = n_features;
    config.n_levels = n_levels;
    config.seed = seed;
    return std::make_shared<const ItemMemory>(ItemMemory::generate(config));
}

std::vector<int> random_levels(std::size_t n_features, std::size_t n_levels, std::uint64_t seed) {
    hdlock::util::Xoshiro256ss rng(seed);
    std::vector<int> levels(n_features);
    for (auto& level : levels) level = static_cast<int>(rng.next_below(n_levels));
    return levels;
}

}  // namespace

// (dim, n_features, n_levels)
class EncoderEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(EncoderEquivalence, FastPathMatchesReference) {
    const auto [dim, n_features, n_levels] = GetParam();
    const RecordEncoder encoder(make_memory(dim, n_features, n_levels, 3), /*tie_seed=*/1);
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const auto levels = random_levels(n_features, n_levels, 100 + trial);
        EXPECT_EQ(encoder.encode(levels), encoder.encode_reference(levels));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EncoderEquivalence,
    ::testing::Values(std::make_tuple(64, 1, 2), std::make_tuple(64, 3, 2),
                      std::make_tuple(100, 10, 4), std::make_tuple(1000, 63, 8),
                      std::make_tuple(1000, 64, 8), std::make_tuple(1000, 65, 8),
                      std::make_tuple(4096, 128, 16), std::make_tuple(10000, 784, 2)));

TEST(RecordEncoder, FeatureCountsAboveTheKernelCapMatchReference) {
    // One column_counts call takes at most kMaxFusedRows rows; encode_into
    // splits larger feature counts into several accumulating calls.
    namespace kernels = hdlock::util::kernels;
    const std::size_t n_features = kernels::kMaxFusedRows + 1;
    const RecordEncoder encoder(make_memory(65, n_features, 3, 17), /*tie_seed=*/1);
    const auto levels = random_levels(n_features, 3, 18);
    const IntHV expected = encoder.encode_reference(levels);
    for (const auto kind : kernels::available_backends()) {
        kernels::ScopedBackend pin(kind);
        EXPECT_EQ(encoder.encode(levels), expected) << kernels::backend_name(kind);
    }
}

TEST(RecordEncoder, OutputBoundsAndParity) {
    // Each H_nb[j] is a sum of N bipolar terms: |H[j]| <= N and H[j] == N (mod 2).
    const std::size_t n_features = 33;
    const RecordEncoder encoder(make_memory(2048, n_features, 4, 5), 1);
    const auto levels = random_levels(n_features, 4, 9);
    const IntHV h = encoder.encode(levels);
    for (std::size_t j = 0; j < h.dim(); ++j) {
        ASSERT_LE(std::abs(h[j]), static_cast<int>(n_features));
        ASSERT_EQ((h[j] + static_cast<int>(n_features)) % 2, 0);
    }
}

TEST(RecordEncoder, SingleValueInputFactorsOut) {
    // Eq. 5: when every feature carries the same level v,
    //   H_nb = ValHV_v (element-wise) * sum_i FeaHV_i.
    const std::size_t dim = 2000, n_features = 21;
    const auto memory = make_memory(dim, n_features, 4, 7);
    const RecordEncoder encoder(memory, 1);

    IntHV feature_sum(dim);
    for (std::size_t i = 0; i < n_features; ++i) feature_sum.add(memory->feature_hv(i));

    for (int v = 0; v < 4; ++v) {
        const std::vector<int> levels(n_features, v);
        const IntHV h = encoder.encode(levels);
        const BinaryHV& value_hv = memory->value_hv(static_cast<std::size_t>(v));
        for (std::size_t j = 0; j < dim; ++j) {
            ASSERT_EQ(h[j], value_hv.get(j) * feature_sum[j]) << "v=" << v << " j=" << j;
        }
    }
}

TEST(RecordEncoder, SingleFeatureDeviationIsolatesThatFeature) {
    // Eq. 7 vs. the all-minimum encoding: the difference of the two
    // non-binary outputs equals FeaHV_i * (ValHV_max - ValHV_min).
    const std::size_t dim = 2000, n_features = 17, n_levels = 8;
    const auto memory = make_memory(dim, n_features, n_levels, 11);
    const RecordEncoder encoder(memory, 1);

    const std::vector<int> all_min(n_features, 0);
    const IntHV h_min = encoder.encode(all_min);

    for (const std::size_t probe : {std::size_t{0}, std::size_t{7}, n_features - 1}) {
        std::vector<int> crafted(n_features, 0);
        crafted[probe] = static_cast<int>(n_levels) - 1;
        const IntHV h_probe = encoder.encode(crafted);
        const IntHV diff = h_probe - h_min;
        const BinaryHV& fea = memory->feature_hv(probe);
        const BinaryHV& val_min = memory->value_hv(0);
        const BinaryHV& val_max = memory->value_hv(n_levels - 1);
        for (std::size_t j = 0; j < dim; ++j) {
            ASSERT_EQ(diff[j], fea.get(j) * (val_max.get(j) - val_min.get(j)));
        }
    }
}

TEST(RecordEncoder, BinaryEncodingIsSignOfNonBinary) {
    const std::size_t n_features = 15;  // odd -> no sign(0) ties
    const RecordEncoder encoder(make_memory(1024, n_features, 4, 13), 1);
    const auto levels = random_levels(n_features, 4, 17);
    const IntHV h = encoder.encode(levels);
    ASSERT_EQ(h.zero_count(), 0u);
    const BinaryHV hb = encoder.encode_binary(levels);
    for (std::size_t j = 0; j < h.dim(); ++j) {
        ASSERT_EQ(hb.get(j), h[j] > 0 ? 1 : -1);
    }
}

TEST(RecordEncoder, BinaryEncodingDeterministicPerInput) {
    // Even with ties (even feature count), repeated queries must return the
    // identical output: the encoder is a function, like the hardware it
    // models.
    const std::size_t n_features = 16;
    const RecordEncoder encoder(make_memory(1024, n_features, 4, 15), 77);
    const auto levels = random_levels(n_features, 4, 19);
    EXPECT_GT(encoder.encode(levels).zero_count(), 0u);  // ties actually exist
    EXPECT_EQ(encoder.encode_binary(levels), encoder.encode_binary(levels));
}

TEST(RecordEncoder, TieSeedOnlyAffectsTiedElements) {
    const std::size_t n_features = 16;
    const auto memory = make_memory(1024, n_features, 4, 15);
    const RecordEncoder enc_a(memory, 1);
    const RecordEncoder enc_b(memory, 2);
    const auto levels = random_levels(n_features, 4, 23);
    const IntHV h = enc_a.encode(levels);
    const BinaryHV ha = enc_a.encode_binary(levels);
    const BinaryHV hb = enc_b.encode_binary(levels);
    std::size_t diffs = 0;
    for (std::size_t j = 0; j < h.dim(); ++j) {
        if (ha.get(j) != hb.get(j)) {
            ++diffs;
            ASSERT_EQ(h[j], 0) << "non-tied element changed with tie seed";
        }
    }
    EXPECT_GT(diffs, 0u);  // ~half the ties should differ
}

TEST(RecordEncoder, DifferentInputsGiveDistantBinaryCodes) {
    const std::size_t n_features = 64;
    const RecordEncoder encoder(make_memory(4096, n_features, 8, 17), 1);
    const auto a = encoder.encode_binary(random_levels(n_features, 8, 29));
    const auto b = encoder.encode_binary(random_levels(n_features, 8, 31));
    EXPECT_GT(a.normalized_hamming(b), 0.2);
}

TEST(RecordEncoder, RejectsBadInputs) {
    const RecordEncoder encoder(make_memory(256, 8, 4, 19), 1);
    const std::vector<int> short_levels(7, 0);
    EXPECT_THROW(encoder.encode(short_levels), ContractViolation);
    std::vector<int> bad_level(8, 0);
    bad_level[3] = 4;
    EXPECT_THROW(encoder.encode(bad_level), ContractViolation);
    bad_level[3] = -1;
    EXPECT_THROW(encoder.encode(bad_level), ContractViolation);
    EXPECT_THROW(RecordEncoder(nullptr, 1), ContractViolation);
}

TEST(RecordEncoder, RejectsMemoryWithoutFeatureHVs) {
    hdlock::hdc::ItemMemoryConfig config;
    config.dim = 64;
    config.n_features = 0;
    config.n_levels = 2;
    auto memory = std::make_shared<const ItemMemory>(ItemMemory::generate(config));
    EXPECT_THROW(RecordEncoder(memory, 1), ContractViolation);
}

// ---------------------------------------------------------------------------
// Fused encode→distance (Encoder::fused_hamming_into)
// ---------------------------------------------------------------------------

// The fused kernel path must reproduce the two-step encode_binary + hamming
// distances bit-for-bit: every backend, dimensions spanning vector-width
// tails (64 / odd / 1000 / 10000), and both feature-count parities — even N
// exercises the randomized tie draws, odd N the tie-free path.
TEST(EncoderFused, DistancesMatchTwoStepPathEverywhere) {
    namespace kernels = hdlock::util::kernels;
    for (const auto& [dim, n_features, n_levels] :
         {std::make_tuple<std::size_t, std::size_t, std::size_t>(64, 8, 4),
          std::make_tuple<std::size_t, std::size_t, std::size_t>(777, 33, 8),
          std::make_tuple<std::size_t, std::size_t, std::size_t>(1000, 64, 8),
          std::make_tuple<std::size_t, std::size_t, std::size_t>(10000, 63, 4)}) {
        const RecordEncoder encoder(make_memory(dim, n_features, n_levels, 5), /*tie_seed=*/9);

        const std::size_t n_classes = 5;
        hdlock::util::Xoshiro256ss rng(4242);
        std::vector<BinaryHV> class_hvs;
        for (std::size_t c = 0; c < n_classes; ++c) {
            class_hvs.push_back(BinaryHV::random(dim, rng));
        }

        for (std::uint64_t trial = 0; trial < 3; ++trial) {
            const auto levels = random_levels(n_features, n_levels, 700 + trial);
            const BinaryHV query = encoder.encode_binary(levels);
            std::vector<std::uint64_t> expected;
            for (const auto& hv : class_hvs) expected.push_back(hv.hamming(query));

            for (const auto kind : kernels::available_backends()) {
                kernels::ScopedBackend pin(kind);
                hdlock::hdc::EncoderScratch scratch;
                std::vector<std::uint64_t> distances(n_classes, 0);
                encoder.fused_hamming_into(levels, scratch, class_hvs, distances);
                EXPECT_EQ(distances, expected)
                    << kernels::backend_name(kind) << " D=" << dim << " N=" << n_features;
            }
        }
    }
}

// Even feature counts tie on ~C(N, N/2)/2^N of the columns; the fused path
// must draw the identical tie stream as sign_into.  A wrong draw order (or a
// draw for a tail column) shifts every later sign, so exact distance
// equality here pins the whole RNG-parity contract.
TEST(EncoderFused, TieDrawsMatchSignIntoOnEvenFeatureCounts) {
    namespace kernels = hdlock::util::kernels;
    const std::size_t dim = 1000;
    const std::size_t n_features = 8;  // even and small: many ties per row
    const RecordEncoder encoder(make_memory(dim, n_features, 4, 21), /*tie_seed=*/77);

    hdlock::util::Xoshiro256ss rng(31337);
    std::vector<BinaryHV> class_hvs{BinaryHV::random(dim, rng), BinaryHV::random(dim, rng)};

    std::size_t tied_columns = 0;
    for (std::uint64_t trial = 0; trial < 5; ++trial) {
        const auto levels = random_levels(n_features, 4, 900 + trial);
        const IntHV sums = encoder.encode(levels);
        for (std::size_t j = 0; j < dim; ++j) tied_columns += sums[j] == 0 ? 1 : 0;
        const BinaryHV query = encoder.encode_binary(levels);
        std::vector<std::uint64_t> expected;
        for (const auto& hv : class_hvs) expected.push_back(hv.hamming(query));
        for (const auto kind : kernels::available_backends()) {
            kernels::ScopedBackend pin(kind);
            hdlock::hdc::EncoderScratch scratch;
            std::vector<std::uint64_t> distances(class_hvs.size(), 0);
            encoder.fused_hamming_into(levels, scratch, class_hvs, distances);
            EXPECT_EQ(distances, expected) << kernels::backend_name(kind) << " trial=" << trial;
        }
    }
    EXPECT_GT(tied_columns, 0u) << "test shape never tied; tie parity untested";
}

TEST(EncoderFused, RejectsShapeMismatches) {
    const RecordEncoder encoder(make_memory(256, 8, 4, 3), 1);
    hdlock::hdc::EncoderScratch scratch;
    hdlock::util::Xoshiro256ss rng(5);
    std::vector<BinaryHV> classes{BinaryHV::random(256, rng)};
    std::vector<std::uint64_t> distances(2, 0);  // wrong: 2 distances, 1 class
    const auto levels = random_levels(8, 4, 1);
    EXPECT_THROW(encoder.fused_hamming_into(levels, scratch, classes, distances),
                 ContractViolation);
    std::vector<BinaryHV> wrong_dim{BinaryHV::random(128, rng)};
    std::vector<std::uint64_t> one(1, 0);
    EXPECT_THROW(encoder.fused_hamming_into(levels, scratch, wrong_dim, one),
                 ContractViolation);
}
