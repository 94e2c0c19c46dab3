// Tests for HDC model training and inference (src/hdc/model.*).

#include "hdc/model.hpp"

#include <gtest/gtest.h>

#include <span>
#include <sstream>
#include <vector>

#include "hdc/encoder.hpp"
#include "util/kernels.hpp"

using hdlock::ContractViolation;
using hdlock::hdc::BinaryHV;
using hdlock::hdc::EncodedBatch;
using hdlock::hdc::HdcModel;
using hdlock::hdc::IntHV;
using hdlock::hdc::ModelKind;
using hdlock::hdc::TrainConfig;
using hdlock::util::Xoshiro256ss;

namespace {

/// Builds an encoded batch around C random class "anchors": each sample is
/// its class anchor with a fraction of elements re-randomized.  flip = 0.5
/// makes classes indistinguishable; small flip makes them trivially
/// separable.
EncodedBatch make_batch(int n_classes, std::size_t per_class, std::size_t dim, double flip,
                        std::uint64_t seed, bool with_binary) {
    Xoshiro256ss rng(seed);
    std::vector<BinaryHV> anchors;
    for (int c = 0; c < n_classes; ++c) anchors.push_back(BinaryHV::random(dim, rng));

    EncodedBatch batch;
    for (int c = 0; c < n_classes; ++c) {
        for (std::size_t s = 0; s < per_class; ++s) {
            BinaryHV sample = anchors[static_cast<std::size_t>(c)];
            for (std::size_t j = 0; j < dim; ++j) {
                if (rng.next_bool(flip)) sample.set(j, rng.next_sign());
            }
            batch.non_binary.push_back(IntHV::from_binary(sample));
            if (with_binary) batch.binary.push_back(sample);
            batch.labels.push_back(c);
        }
    }
    return batch;
}

}  // namespace

TEST(HdcModel, NonBinarySeparableDataIsLearned) {
    const auto batch = make_batch(4, 20, 2048, 0.2, 42, false);
    TrainConfig config;
    config.kind = ModelKind::non_binary;
    config.retrain_epochs = 5;
    const HdcModel model = HdcModel::train(batch, 4, config);
    EXPECT_EQ(model.n_classes(), 4);
    EXPECT_EQ(model.dim(), 2048u);
    EXPECT_GT(model.evaluate(batch), 0.95);
}

TEST(HdcModel, BinarySeparableDataIsLearned) {
    const auto batch = make_batch(4, 20, 2048, 0.2, 43, true);
    TrainConfig config;
    config.kind = ModelKind::binary;
    config.retrain_epochs = 5;
    const HdcModel model = HdcModel::train(batch, 4, config);
    EXPECT_GT(model.evaluate(batch), 0.95);
}

TEST(HdcModel, RetrainingImprovesHardData) {
    const auto batch = make_batch(6, 30, 1024, 0.42, 44, false);
    TrainConfig no_retrain;
    no_retrain.retrain_epochs = 0;
    TrainConfig retrain;
    retrain.retrain_epochs = 15;
    const double before = HdcModel::train(batch, 6, no_retrain).evaluate(batch);
    const double after = HdcModel::train(batch, 6, retrain).evaluate(batch);
    EXPECT_GE(after, before);
    EXPECT_GT(after, 0.7);
}

TEST(HdcModel, EarlyStopOnCleanEpoch) {
    const auto batch = make_batch(3, 10, 1024, 0.05, 45, false);
    TrainConfig config;
    config.retrain_epochs = 50;
    config.stop_when_clean = true;
    const HdcModel model = HdcModel::train(batch, 3, config);
    EXPECT_LT(model.epochs_run(), 50);
    EXPECT_DOUBLE_EQ(model.evaluate(batch), 1.0);
}

TEST(HdcModel, LearningRateScalesUpdates) {
    const auto batch = make_batch(3, 15, 512, 0.35, 46, false);
    TrainConfig config;
    config.retrain_epochs = 1;
    config.stop_when_clean = false;
    config.learning_rate = 3;
    const HdcModel model = HdcModel::train(batch, 3, config);
    EXPECT_GT(model.evaluate(batch), 0.5);
}

TEST(HdcModel, ClassSumsMatchBundling) {
    // With zero retraining epochs the class HVs must be the exact Eq. 4 sums.
    const auto batch = make_batch(2, 3, 256, 0.3, 47, false);
    TrainConfig config;
    config.retrain_epochs = 0;
    const HdcModel model = HdcModel::train(batch, 2, config);
    IntHV expected0(256);
    IntHV expected1(256);
    for (std::size_t s = 0; s < batch.size(); ++s) {
        (batch.labels[s] == 0 ? expected0 : expected1).add(batch.non_binary[s]);
    }
    EXPECT_EQ(model.class_sum(0), expected0);
    EXPECT_EQ(model.class_sum(1), expected1);
}

TEST(HdcModel, PredictsNearestAnchor) {
    const std::size_t dim = 1024;
    Xoshiro256ss rng(48);
    const BinaryHV anchor_a = BinaryHV::random(dim, rng);
    const BinaryHV anchor_b = BinaryHV::random(dim, rng);
    EncodedBatch batch;
    batch.non_binary = {IntHV::from_binary(anchor_a), IntHV::from_binary(anchor_b)};
    batch.labels = {0, 1};
    TrainConfig config;
    config.retrain_epochs = 0;
    const HdcModel model = HdcModel::train(batch, 2, config);
    EXPECT_EQ(model.predict(IntHV::from_binary(anchor_a)), 0);
    EXPECT_EQ(model.predict(IntHV::from_binary(anchor_b)), 1);
}

TEST(HdcModel, BinaryPredictUsesHamming) {
    const std::size_t dim = 512;
    Xoshiro256ss rng(49);
    const BinaryHV anchor_a = BinaryHV::random(dim, rng);
    const BinaryHV anchor_b = BinaryHV::random(dim, rng);
    EncodedBatch batch;
    batch.non_binary = {IntHV::from_binary(anchor_a), IntHV::from_binary(anchor_b)};
    batch.binary = {anchor_a, anchor_b};
    batch.labels = {0, 1};
    TrainConfig config;
    config.kind = ModelKind::binary;
    config.retrain_epochs = 0;
    const HdcModel model = HdcModel::train(batch, 2, config);
    EXPECT_EQ(model.predict(anchor_a), 0);
    EXPECT_EQ(model.predict(anchor_b), 1);
    EXPECT_EQ(model.class_binary(0), anchor_a);  // sums have no ties here
}

TEST(HdcModel, PredictIntoMatchesPerQueryPredict) {
    const auto batch = make_batch(4, 10, 1024, 0.25, 53, true);
    TrainConfig config;
    config.kind = ModelKind::binary;
    config.retrain_epochs = 2;
    const HdcModel model = HdcModel::train(batch, 4, config);

    std::vector<int> via_span(batch.size());
    model.predict_into(std::span<const BinaryHV>(batch.binary), via_span);
    for (std::size_t s = 0; s < batch.size(); ++s) {
        EXPECT_EQ(via_span[s], model.predict(batch.binary[s]));
    }

    TrainConfig nb_config;
    nb_config.kind = ModelKind::non_binary;
    nb_config.retrain_epochs = 2;
    const HdcModel nb_model = HdcModel::train(batch, 4, nb_config);
    nb_model.predict_into(std::span<const IntHV>(batch.non_binary), via_span);
    for (std::size_t s = 0; s < batch.size(); ++s) {
        EXPECT_EQ(via_span[s], nb_model.predict(batch.non_binary[s]));
    }
}

TEST(HdcModel, PredictionsSurviveSaveLoadRoundTrip) {
    // The class-norm cache is rebuilt on load: a round-tripped model must
    // predict identically (non-binary cosine inference included).
    const auto batch = make_batch(3, 12, 512, 0.3, 54, false);
    TrainConfig config;
    config.kind = ModelKind::non_binary;
    config.retrain_epochs = 3;
    const HdcModel model = HdcModel::train(batch, 3, config);

    std::stringstream stream(std::ios::in | std::ios::out | std::ios::binary);
    hdlock::util::BinaryWriter writer(stream);
    model.save(writer);
    hdlock::util::BinaryReader reader(stream);
    const HdcModel restored = HdcModel::load(reader);

    EXPECT_EQ(restored.predict_batch(batch), model.predict_batch(batch));
}

TEST(HdcModel, KindMismatchesThrow) {
    const auto batch = make_batch(2, 4, 128, 0.2, 50, true);
    TrainConfig nb;
    nb.kind = ModelKind::non_binary;
    const HdcModel model = HdcModel::train(batch, 2, nb);
    EXPECT_THROW(model.class_binary(0), ContractViolation);
    EXPECT_THROW(model.predict(batch.binary[0]), ContractViolation);
}

TEST(HdcModel, BinaryModelRequiresBinaryEncodings) {
    const auto batch = make_batch(2, 4, 128, 0.2, 51, false);  // no binary part
    TrainConfig config;
    config.kind = ModelKind::binary;
    EXPECT_THROW(HdcModel::train(batch, 2, config), ContractViolation);
}

TEST(HdcModel, InvalidArgumentsThrow) {
    const auto batch = make_batch(2, 4, 128, 0.2, 52, false);
    TrainConfig config;
    EXPECT_THROW(HdcModel::train(batch, 1, config), ContractViolation);
    EXPECT_THROW(HdcModel::train(EncodedBatch{}, 2, config), ContractViolation);
    config.retrain_epochs = -1;
    EXPECT_THROW(HdcModel::train(batch, 2, config), ContractViolation);
    config.retrain_epochs = 1;
    config.learning_rate = 0;
    EXPECT_THROW(HdcModel::train(batch, 2, config), ContractViolation);

    auto bad_labels = batch;
    bad_labels.labels[0] = 7;
    EXPECT_THROW(HdcModel::train(bad_labels, 2, TrainConfig{}), ContractViolation);
}

TEST(HdcModel, PredictRejectsQueryOfWrongDimension) {
    // Scoring hands the kernel raw pointers and dim(): a query one short or
    // one long must be refused, not read out of bounds.
    const auto batch = make_batch(3, 4, 256, 0.2, 56, false);
    const HdcModel model = HdcModel::train(batch, 3, TrainConfig{});
    EXPECT_THROW(model.predict(IntHV(model.dim() - 1)), ContractViolation);
    EXPECT_THROW(model.predict(IntHV(model.dim() + 1)), ContractViolation);
    EXPECT_NO_THROW(model.predict(IntHV(model.dim())));
}

TEST(HdcModel, UntrainedModelRejectsUse) {
    const HdcModel model;
    EXPECT_THROW(model.predict(IntHV(16)), ContractViolation);
    EXPECT_THROW(model.class_sum(0), ContractViolation);
}

TEST(HdcModel, SerializationRoundTrip) {
    const auto batch = make_batch(3, 8, 512, 0.25, 53, true);
    TrainConfig config;
    config.kind = ModelKind::binary;
    config.retrain_epochs = 3;
    const HdcModel model = HdcModel::train(batch, 3, config);

    std::stringstream stream;
    hdlock::util::BinaryWriter writer(stream);
    model.save(writer);
    hdlock::util::BinaryReader reader(stream);
    const HdcModel loaded = HdcModel::load(reader);

    EXPECT_EQ(loaded.kind(), model.kind());
    EXPECT_EQ(loaded.n_classes(), model.n_classes());
    EXPECT_EQ(loaded.epochs_run(), model.epochs_run());
    EXPECT_EQ(loaded.class_sum(2), model.class_sum(2));
    EXPECT_EQ(loaded.class_binary(1), model.class_binary(1));
    EXPECT_EQ(loaded.predict_batch(batch), model.predict_batch(batch));
}

TEST(HdcModel, LoadRejectsClassHypervectorsOfDifferentDimensions) {
    // A v1 model stores a dimension per class HV, and scoring reads dim()
    // elements of every class through raw pointers: a later class that is
    // shorter (or longer) must be refused at load, not read out of bounds
    // at predict.
    const auto load_v1 = [](ModelKind kind, std::size_t last_sum_dim,
                            std::size_t last_binary_dim) {
        std::stringstream stream;
        hdlock::util::BinaryWriter writer(stream);
        writer.write_tag("MDL1");
        writer.write_u8(static_cast<std::uint8_t>(kind));
        writer.write_i32(0);
        writer.write_u64(3);
        for (const std::size_t dim : {std::size_t{64}, std::size_t{64}, last_sum_dim}) {
            // An all-zero IHV1 record: tag + int32 vector.
            writer.write_tag("IHV1");
            const std::vector<std::int32_t> values(dim, 0);
            writer.write_span(std::span<const std::int32_t>(values));
        }
        const bool binary = kind == ModelKind::binary;
        writer.write_u64(binary ? 3 : 0);
        if (binary) {
            for (const std::size_t dim : {std::size_t{64}, std::size_t{64}, last_binary_dim}) {
                // An all-zero BHV1 record: tag + dim + word vector.
                writer.write_tag("BHV1");
                writer.write_u64(dim);
                const std::vector<std::uint64_t> words((dim + 63) / 64, 0);
                writer.write_span(std::span<const std::uint64_t>(words));
            }
        }
        hdlock::util::BinaryReader reader(stream);
        return HdcModel::load_v1(reader);
    };
    EXPECT_NO_THROW(load_v1(ModelKind::non_binary, 64, 64));
    EXPECT_NO_THROW(load_v1(ModelKind::binary, 64, 64));
    EXPECT_THROW(load_v1(ModelKind::non_binary, 63, 64), hdlock::FormatError);
    EXPECT_THROW(load_v1(ModelKind::non_binary, 65, 64), hdlock::FormatError);
    EXPECT_THROW(load_v1(ModelKind::binary, 64, 63), hdlock::FormatError);
}

// ---------------------------------------------------------------------------
// Fused predict (HdcModel::predict_fused)
// ---------------------------------------------------------------------------

TEST(HdcModel, PredictFusedMatchesTwoStepPredict) {
    namespace kernels = hdlock::util::kernels;
    hdlock::hdc::ItemMemoryConfig memory_config;
    memory_config.dim = 1000;
    memory_config.n_features = 16;
    memory_config.n_levels = 4;
    memory_config.seed = 7;
    auto memory = std::make_shared<const hdlock::hdc::ItemMemory>(
        hdlock::hdc::ItemMemory::generate(memory_config));
    const hdlock::hdc::RecordEncoder encoder(memory, /*tie_seed=*/3);

    const auto batch = make_batch(4, 10, 1000, 0.2, 9, true);
    TrainConfig config;
    config.kind = ModelKind::binary;
    const HdcModel model = HdcModel::train(batch, 4, config);

    hdlock::hdc::EncoderScratch scratch;
    Xoshiro256ss rng(55);
    for (int trial = 0; trial < 10; ++trial) {
        std::vector<int> levels(16);
        for (auto& level : levels) level = static_cast<int>(rng.next_below(4));
        const int expected = model.predict(encoder.encode_binary(levels));
        for (const auto kind : kernels::available_backends()) {
            kernels::ScopedBackend pin(kind);
            EXPECT_EQ(model.predict_fused(encoder, levels, scratch), expected)
                << kernels::backend_name(kind) << " trial " << trial;
        }
    }
}

TEST(HdcModel, PredictFusedRejectsNonBinaryModel) {
    hdlock::hdc::ItemMemoryConfig memory_config;
    memory_config.dim = 256;
    memory_config.n_features = 8;
    memory_config.n_levels = 4;
    memory_config.seed = 11;
    auto memory = std::make_shared<const hdlock::hdc::ItemMemory>(
        hdlock::hdc::ItemMemory::generate(memory_config));
    const hdlock::hdc::RecordEncoder encoder(memory, 1);
    const auto batch = make_batch(2, 8, 256, 0.2, 13, false);
    TrainConfig config;
    config.kind = ModelKind::non_binary;
    const HdcModel model = HdcModel::train(batch, 2, config);
    hdlock::hdc::EncoderScratch scratch;
    const std::vector<int> levels(8, 0);
    EXPECT_THROW(model.predict_fused(encoder, levels, scratch), ContractViolation);
}
