#include "hdc/classifier.hpp"

namespace hdlock::hdc {

HdcClassifier HdcClassifier::fit(const data::Dataset& train_set,
                                 std::shared_ptr<const Encoder> encoder,
                                 const PipelineConfig& config) {
    HDLOCK_EXPECTS(encoder != nullptr, "HdcClassifier::fit: null encoder");
    train_set.validate();
    HDLOCK_EXPECTS(train_set.n_features() == encoder->n_features(),
                   "HdcClassifier::fit: dataset feature count does not match encoder");

    HdcClassifier classifier;
    classifier.encoder_ = std::move(encoder);
    classifier.discretizer_ = MinMaxDiscretizer::fit(train_set.X, classifier.encoder_->n_levels(),
                                                     config.discretizer_mode);
    const EncodedBatch batch =
        classifier.encode_dataset(train_set, config.train.kind == ModelKind::binary);
    classifier.model_ = HdcModel::train(batch, train_set.n_classes, config.train);
    classifier.train_accuracy_ = classifier.model_.evaluate(batch);
    return classifier;
}

EncodedBatch HdcClassifier::encode_dataset(const data::Dataset& dataset) const {
    return encode_dataset(dataset, model_.kind() == ModelKind::binary);
}

EncodedBatch HdcClassifier::encode_dataset(const data::Dataset& dataset, bool with_binary) const {
    HDLOCK_EXPECTS(encoder_ != nullptr, "HdcClassifier: not fitted");
    dataset.validate();
    HDLOCK_EXPECTS(dataset.n_features() == encoder_->n_features(),
                   "HdcClassifier: dataset feature count does not match encoder");

    EncodedBatch batch;
    batch.labels = dataset.y;
    batch.non_binary.resize(dataset.n_samples());
    if (with_binary) batch.binary.resize(dataset.n_samples());

    // Row-at-a-time through one reused scratch (the same kernel as
    // Encoder::encode_batch) rather than materializing a full level matrix:
    // the extra memory stays O(n_features) however large the dataset is.
    EncoderScratch scratch;
    std::vector<int>& levels = scratch.levels(dataset.n_features());
    for (std::size_t s = 0; s < dataset.n_samples(); ++s) {
        discretizer_.transform_row(dataset.X.row(s), levels);
        encoder_->encode_into(levels, scratch, batch.non_binary[s]);
        if (with_binary) encoder_->binarize_into(levels, batch.non_binary[s], batch.binary[s]);
    }
    return batch;
}

int HdcClassifier::predict_row(std::span<const float> row) const {
    HDLOCK_EXPECTS(encoder_ != nullptr, "HdcClassifier: not fitted");
    HDLOCK_EXPECTS(row.size() == encoder_->n_features(),
                   "HdcClassifier::predict_row: wrong feature count");
    const std::vector<int> levels = discretizer_.transform_row(row);
    if (model_.kind() == ModelKind::binary) {
        return model_.predict(encoder_->encode_binary(levels));
    }
    return model_.predict(encoder_->encode(levels));
}

std::vector<int> HdcClassifier::predict(const data::Dataset& dataset) const {
    const EncodedBatch batch = encode_dataset(dataset);
    return model_.predict_batch(batch);
}

double HdcClassifier::evaluate(const data::Dataset& dataset) const {
    const EncodedBatch batch = encode_dataset(dataset);
    return model_.evaluate(batch);
}

}  // namespace hdlock::hdc
