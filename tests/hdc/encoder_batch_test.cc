// Tests for the batch-first encoding pipeline (src/hdc/encoder.*): the
// allocation-free encode_into/encode_batch paths must be bit-identical to
// the per-row API and to the naive Eq. 2 reference, for every Encoder
// implementation (RecordEncoder, LockedEncoder, api::SealedEncoder),
// including sign(0) tie-breaking in encode_binary_batch.

#include "hdc/encoder.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <tuple>

#include "api/facades.hpp"
#include "core/locked_encoder.hpp"

using hdlock::ContractViolation;
using hdlock::hdc::BinaryHV;
using hdlock::hdc::Encoder;
using hdlock::hdc::EncoderScratch;
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

/// A random level matrix (one encode input per row).
hdlock::util::Matrix<int> random_level_matrix(std::size_t rows, std::size_t n_features,
                                              std::size_t n_levels, std::uint64_t seed) {
    hdlock::util::Matrix<int> levels(rows, n_features);
    hdlock::util::Xoshiro256ss rng(seed);
    for (auto& level : levels.data()) level = static_cast<int>(rng.next_below(n_levels));
    return levels;
}

/// Asserts that batch and allocation-free row paths all agree bit-exactly
/// with the per-row encode()/encode_binary() API.
void expect_all_paths_identical(const Encoder& encoder,
                                const hdlock::util::Matrix<int>& levels) {
    EncoderScratch scratch;
    std::vector<IntHV> batch;
    encoder.encode_batch(levels, scratch, batch);

    std::vector<BinaryHV> binary_batch;
    encoder.encode_binary_batch(levels, scratch, binary_batch);

    ASSERT_EQ(batch.size(), levels.rows());
    ASSERT_EQ(binary_batch.size(), levels.rows());

    IntHV row_sums;
    BinaryHV row_binary;
    for (std::size_t r = 0; r < levels.rows(); ++r) {
        const auto row = levels.row(r);
        const IntHV expected = encoder.encode(row);
        EXPECT_EQ(batch[r], expected) << "row " << r;

        encoder.encode_into(row, scratch, row_sums);
        EXPECT_EQ(row_sums, expected) << "row " << r << " (encode_into)";

        const BinaryHV expected_binary = encoder.encode_binary(row);
        EXPECT_EQ(binary_batch[r], expected_binary) << "row " << r;

        encoder.encode_binary_into(row, scratch, row_binary);
        EXPECT_EQ(row_binary, expected_binary) << "row " << r << " (encode_binary_into)";
    }
}

}  // namespace

// (dim, n_features, n_levels) — even feature counts force sign(0) ties, and
// the off-by-one word widths exercise the packed tail.
class RecordEncoderBatch
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(RecordEncoderBatch, AllPathsMatchReference) {
    const auto [dim, n_features, n_levels] = GetParam();
    const RecordEncoder encoder(make_memory(dim, n_features, n_levels, 3), /*tie_seed=*/1);
    const auto levels = random_level_matrix(7, n_features, n_levels, 42);

    expect_all_paths_identical(encoder, levels);
    EncoderScratch scratch;
    std::vector<IntHV> batch;
    encoder.encode_batch(levels, scratch, batch);
    for (std::size_t r = 0; r < levels.rows(); ++r) {
        EXPECT_EQ(batch[r], encoder.encode_reference(levels.row(r))) << "row " << r;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RecordEncoderBatch,
    ::testing::Values(std::make_tuple(64, 1, 2), std::make_tuple(100, 10, 4),
                      std::make_tuple(1000, 63, 8), std::make_tuple(1000, 64, 8),
                      std::make_tuple(1000, 65, 8), std::make_tuple(4096, 16, 16)));

TEST(EncoderBatch, TieBreakingMatchesPerRowEncodeBinary) {
    // Even feature count -> sign(0) ties exist; the batch path must derive
    // the identical per-input tie seed as encode_binary.
    const std::size_t n_features = 16, n_levels = 4;
    const RecordEncoder encoder(make_memory(1024, n_features, n_levels, 15), /*tie_seed=*/77);
    const auto levels = random_level_matrix(11, n_features, n_levels, 5);

    bool saw_tie = false;
    for (std::size_t r = 0; r < levels.rows(); ++r) {
        saw_tie = saw_tie || encoder.encode(levels.row(r)).zero_count() > 0;
    }
    ASSERT_TRUE(saw_tie);  // the scenario actually exercises tie-breaking

    expect_all_paths_identical(encoder, levels);
}

TEST(EncoderBatch, LockedEncoderAllPathsIdentical) {
    hdlock::DeploymentConfig config;
    config.dim = 1024;
    config.n_features = 24;
    config.n_levels = 8;
    config.n_layers = 2;
    config.seed = 19;
    const auto deployment = hdlock::provision(config);
    const auto levels = random_level_matrix(9, config.n_features, config.n_levels, 23);
    expect_all_paths_identical(*deployment.encoder, levels);
}

TEST(EncoderBatch, SealedEncoderAllPathsIdenticalAndAgreesWithLocked) {
    hdlock::DeploymentConfig config;
    config.dim = 1024;
    config.n_features = 24;
    config.n_levels = 8;
    config.n_layers = 2;
    config.seed = 19;
    const auto owner = hdlock::api::Owner::provision(config);
    const auto device = owner.make_device();
    const auto levels = random_level_matrix(9, config.n_features, config.n_levels, 29);

    expect_all_paths_identical(device.encoder(), levels);

    // The sealed (materialized, key-free) encoder is the same function as
    // the owner's locked encoder.
    for (std::size_t r = 0; r < levels.rows(); ++r) {
        EXPECT_EQ(device.encoder().encode(levels.row(r)),
                  owner.encoder()->encode(levels.row(r)));
    }
}

TEST(EncoderBatch, ScratchAdaptsAcrossEncoderShapes) {
    // One scratch serving encoders of different dims must not leak state
    // between them.
    const RecordEncoder small(make_memory(256, 8, 4, 1), 1);
    const RecordEncoder large(make_memory(1024, 12, 8, 2), 1);
    EncoderScratch scratch;
    IntHV out;
    const auto small_levels = random_level_matrix(1, 8, 4, 3);
    const auto large_levels = random_level_matrix(1, 12, 8, 4);

    small.encode_into(small_levels.row(0), scratch, out);
    EXPECT_EQ(out, small.encode(small_levels.row(0)));
    large.encode_into(large_levels.row(0), scratch, out);
    EXPECT_EQ(out, large.encode(large_levels.row(0)));
    small.encode_into(small_levels.row(0), scratch, out);
    EXPECT_EQ(out, small.encode(small_levels.row(0)));
}

TEST(EncoderBatch, RejectsMismatchedCacheAndShapes) {
    const RecordEncoder encoder(make_memory(256, 8, 4, 11), 1);
    EncoderScratch scratch;
    IntHV out;
    EXPECT_THROW(encoder.encode_into(std::vector<int>{0, 1, 2}, scratch, out),
                 ContractViolation);

    std::vector<IntHV> batch;
    EXPECT_THROW(encoder.encode_batch(random_level_matrix(2, 7, 4, 13), scratch, batch),
                 ContractViolation);
    EXPECT_THROW(encoder.encode(std::vector<int>{0, 1, 2, 3, 0, 1, 2, 4}), ContractViolation);
}

TEST(EncoderBatch, EmptyBatchYieldsEmptyOutput) {
    const RecordEncoder encoder(make_memory(256, 8, 4, 11), 1);
    EncoderScratch scratch;
    std::vector<IntHV> out(3);
    encoder.encode_batch(hdlock::util::Matrix<int>(), scratch, out);
    EXPECT_TRUE(out.empty());
}
