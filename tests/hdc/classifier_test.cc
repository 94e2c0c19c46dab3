// End-to-end tests for the HDC pipeline façade (src/hdc/classifier.*).

#include "hdc/classifier.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "data/synthetic.hpp"

using hdlock::ContractViolation;
using hdlock::data::SyntheticSpec;
using hdlock::hdc::HdcClassifier;
using hdlock::hdc::ItemMemory;
using hdlock::hdc::ItemMemoryConfig;
using hdlock::hdc::ModelKind;
using hdlock::hdc::PipelineConfig;
using hdlock::hdc::RecordEncoder;

namespace {

SyntheticSpec easy_spec() {
    SyntheticSpec spec;
    spec.name = "easy";
    spec.n_features = 24;
    spec.n_classes = 3;
    spec.n_train = 150;
    spec.n_test = 60;
    spec.n_levels = 8;
    spec.noise = 0.08;
    spec.seed = 7;
    return spec;
}

std::shared_ptr<const RecordEncoder> make_encoder(const SyntheticSpec& spec, std::size_t dim) {
    ItemMemoryConfig config;
    config.dim = dim;
    config.n_features = spec.n_features;
    config.n_levels = spec.n_levels;
    config.seed = 11;
    auto memory = std::make_shared<const ItemMemory>(ItemMemory::generate(config));
    return std::make_shared<const RecordEncoder>(memory, /*tie_seed=*/5);
}

}  // namespace

TEST(HdcClassifier, LearnsEasyBlobsNonBinary) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    PipelineConfig config;
    config.train.kind = ModelKind::non_binary;
    config.train.retrain_epochs = 5;
    const auto classifier =
        HdcClassifier::fit(benchmark.train, make_encoder(benchmark.spec, 2048), config);
    EXPECT_GT(classifier.evaluate(benchmark.test), 0.9);
}

TEST(HdcClassifier, LearnsEasyBlobsBinary) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    PipelineConfig config;
    config.train.kind = ModelKind::binary;
    config.train.retrain_epochs = 5;
    const auto classifier =
        HdcClassifier::fit(benchmark.train, make_encoder(benchmark.spec, 2048), config);
    EXPECT_GT(classifier.evaluate(benchmark.test), 0.9);
    EXPECT_EQ(classifier.model().kind(), ModelKind::binary);
}

TEST(HdcClassifier, PredictRowMatchesBatchPredict) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    PipelineConfig config;
    config.train.retrain_epochs = 2;
    const auto classifier =
        HdcClassifier::fit(benchmark.train, make_encoder(benchmark.spec, 1024), config);

    const auto batch_predictions = classifier.predict(benchmark.test);
    for (const std::size_t s : {std::size_t{0}, std::size_t{10}, std::size_t{59}}) {
        EXPECT_EQ(classifier.predict_row(benchmark.test.X.row(s)), batch_predictions[s]);
    }
}

TEST(HdcClassifier, EncodeDatasetShapes) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    PipelineConfig config;
    config.train.kind = ModelKind::non_binary;
    const auto classifier =
        HdcClassifier::fit(benchmark.train, make_encoder(benchmark.spec, 512), config);

    const auto batch = classifier.encode_dataset(benchmark.test);
    EXPECT_EQ(batch.size(), benchmark.test.n_samples());
    EXPECT_TRUE(batch.binary.empty());  // non-binary model

    const auto with_binary = classifier.encode_dataset(benchmark.test, true);
    EXPECT_EQ(with_binary.binary.size(), benchmark.test.n_samples());
    // The binary half binarizes the sums already computed; it must equal a
    // fresh encode_binary of the same row, tie draws included.
    for (std::size_t s = 0; s < benchmark.test.n_samples(); ++s) {
        const auto levels = classifier.discretizer().transform_row(benchmark.test.X.row(s));
        EXPECT_EQ(with_binary.binary[s], classifier.encoder().encode_binary(levels)) << s;
        EXPECT_EQ(with_binary.non_binary[s], classifier.encoder().encode(levels)) << s;
    }
}

TEST(HdcClassifier, MismatchedFeatureCountThrows) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    auto other_spec = easy_spec();
    other_spec.n_features = 10;
    PipelineConfig config;
    EXPECT_THROW(
        HdcClassifier::fit(benchmark.train, make_encoder(other_spec, 512), config),
        ContractViolation);
}

TEST(HdcClassifier, NullEncoderAndUnfittedUseThrow) {
    const auto benchmark = hdlock::data::make_benchmark(easy_spec());
    EXPECT_THROW(HdcClassifier::fit(benchmark.train, nullptr, PipelineConfig{}),
                 ContractViolation);
    const HdcClassifier unfitted;
    EXPECT_THROW(unfitted.evaluate(benchmark.test), ContractViolation);
    const std::vector<float> row(24, 0.0f);
    EXPECT_THROW(unfitted.predict_row(row), ContractViolation);
}

TEST(HdcClassifier, PerFeatureDiscretizerModeWorks) {
    auto spec = easy_spec();
    const auto benchmark = hdlock::data::make_benchmark(spec);
    PipelineConfig config;
    config.discretizer_mode = hdlock::hdc::DiscretizerMode::per_feature;
    config.train.retrain_epochs = 3;
    const auto classifier =
        HdcClassifier::fit(benchmark.train, make_encoder(spec, 2048), config);
    EXPECT_GT(classifier.evaluate(benchmark.test), 0.85);
}
