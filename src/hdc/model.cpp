#include "hdc/model.hpp"

#include <algorithm>
#include <cmath>

#include "hdc/encoder.hpp"
#include "util/kernels.hpp"

namespace hdlock::hdc {

HdcModel HdcModel::train(const EncodedBatch& batch, int n_classes, const TrainConfig& config) {
    HDLOCK_EXPECTS(n_classes >= 2, "HdcModel::train: need at least two classes");
    HDLOCK_EXPECTS(batch.size() > 0, "HdcModel::train: empty batch");
    HDLOCK_EXPECTS(batch.labels.size() == batch.size(), "HdcModel::train: label count mismatch");
    HDLOCK_EXPECTS(config.retrain_epochs >= 0, "HdcModel::train: negative epoch count");
    HDLOCK_EXPECTS(config.learning_rate >= 1, "HdcModel::train: learning rate must be >= 1");
    const bool binary = config.kind == ModelKind::binary;
    HDLOCK_EXPECTS(!binary || batch.binary.size() == batch.size(),
                   "HdcModel::train: binary model needs binarized encodings");

    const std::size_t dim = batch.non_binary.front().dim();
    HdcModel model;
    model.kind_ = config.kind;
    model.class_sums_.assign(static_cast<std::size_t>(n_classes), IntHV(dim));

    // Initial bundling (Eq. 4): every sample is added to its class sum.
    for (std::size_t s = 0; s < batch.size(); ++s) {
        const int label = batch.labels[s];
        HDLOCK_EXPECTS(label >= 0 && label < n_classes, "HdcModel::train: label out of range");
        model.class_sums_[static_cast<std::size_t>(label)].add(batch.non_binary[s]);
    }
    model.recompute_norms_();

    util::Xoshiro256ss tie_rng(util::hash_mix(config.seed, 0xB1AA));
    if (binary) model.rebinarize_(tie_rng);

    // QuantHD-style retraining: predict with the deployed representation and
    // repair mistakes in the full-precision sums.  The norm cache tracks the
    // two classes each repair touches, so mid-epoch non-binary predictions
    // see exactly the norms a fresh computation would.
    for (int epoch = 0; epoch < config.retrain_epochs; ++epoch) {
        std::size_t mistakes = 0;
        for (std::size_t s = 0; s < batch.size(); ++s) {
            const int truth = batch.labels[s];
            const int predicted =
                binary ? model.predict(batch.binary[s]) : model.predict(batch.non_binary[s]);
            if (predicted == truth) continue;
            ++mistakes;
            for (int rep = 0; rep < config.learning_rate; ++rep) {
                model.class_sums_[static_cast<std::size_t>(truth)].add(batch.non_binary[s]);
                model.class_sums_[static_cast<std::size_t>(predicted)].sub(batch.non_binary[s]);
            }
            model.recompute_norm_(static_cast<std::size_t>(truth));
            model.recompute_norm_(static_cast<std::size_t>(predicted));
        }
        if (binary) model.rebinarize_(tie_rng);
        model.epochs_run_ = epoch + 1;
        if (config.stop_when_clean && mistakes == 0) break;
    }
    return model;
}

void HdcModel::recompute_norm_(std::size_t cls) {
    class_norms_[cls] = class_sums_[cls].norm();
}

void HdcModel::recompute_norms_() {
    class_norms_.resize(class_sums_.size());
    for (std::size_t cls = 0; cls < class_sums_.size(); ++cls) recompute_norm_(cls);
}

void HdcModel::rebinarize_(util::Xoshiro256ss& rng) {
    class_binary_.clear();
    class_binary_.reserve(class_sums_.size());
    for (const auto& sum : class_sums_) class_binary_.push_back(sum.sign(rng));
}

const IntHV& HdcModel::class_sum(int cls) const {
    HDLOCK_EXPECTS(cls >= 0 && cls < n_classes(), "HdcModel::class_sum: class out of range");
    return class_sums_[static_cast<std::size_t>(cls)];
}

const BinaryHV& HdcModel::class_binary(int cls) const {
    HDLOCK_EXPECTS(kind_ == ModelKind::binary, "HdcModel::class_binary: non-binary model");
    HDLOCK_EXPECTS(cls >= 0 && cls < n_classes(), "HdcModel::class_binary: class out of range");
    return class_binary_[static_cast<std::size_t>(cls)];
}

int HdcModel::predict(const IntHV& query) const {
    HDLOCK_EXPECTS(!class_sums_.empty(), "HdcModel::predict: untrained model");
    // The kernel reads dim() values through raw pointers: a short query
    // would be read out of bounds, not rejected.
    HDLOCK_EXPECTS(query.dim() == dim(), "HdcModel::predict: query dimension mismatch");
    const util::kernels::KernelBackend& kernel = util::kernels::active();
    const std::int32_t* q = query.values().data();
    // sqrt of the exact integer sum of squares: bit-identical to
    // IntHV::norm()'s double accumulation whenever the sum is below 2^53
    // (every partial sum is then an exact double).  At the served shapes
    // |q[i]| <= N, so the sum is at most D * N^2 <= 1e4 * 784^2 ~ 6.1e9.
    std::int64_t query_sq = 0;
    kernel.dot_scores(q, &q, 1, dim(), &query_sq);
    const double query_norm = std::sqrt(static_cast<double>(query_sq));
    // Class-row pointers are taken per call, in fixed-size stack chunks: the
    // model is copied into serving states and class sums detach
    // copy-on-write under retraining, so no pointer into them is cached.
    constexpr std::size_t kChunk = 32;
    const std::int32_t* rows[kChunk];
    std::int64_t dots[kChunk];
    int best = 0;
    double best_similarity = -2.0;
    for (std::size_t first = 0; first < class_sums_.size(); first += kChunk) {
        const std::size_t count = std::min(kChunk, class_sums_.size() - first);
        for (std::size_t i = 0; i < count; ++i) rows[i] = class_sums_[first + i].values().data();
        kernel.dot_scores(q, rows, count, dim(), dots);
        for (std::size_t i = 0; i < count; ++i) {
            const std::size_t c = first + i;
            const double denom = class_norms_[c] * query_norm;
            const double similarity = denom == 0.0 ? 0.0 : static_cast<double>(dots[i]) / denom;
            if (similarity > best_similarity) {
                best_similarity = similarity;
                best = static_cast<int>(c);
            }
        }
    }
    return best;
}

int HdcModel::predict(const BinaryHV& query) const {
    HDLOCK_EXPECTS(kind_ == ModelKind::binary, "HdcModel::predict(BinaryHV): non-binary model");
    HDLOCK_EXPECTS(!class_binary_.empty(), "HdcModel::predict: untrained model");
    int best = 0;
    std::size_t best_distance = query.dim() + 1;
    for (int cls = 0; cls < n_classes(); ++cls) {
        const std::size_t distance = class_binary_[static_cast<std::size_t>(cls)].hamming(query);
        if (distance < best_distance) {
            best_distance = distance;
            best = cls;
        }
    }
    return best;
}

int HdcModel::predict_fused(const Encoder& encoder, std::span<const int> levels,
                            EncoderScratch& scratch) const {
    HDLOCK_EXPECTS(kind_ == ModelKind::binary, "HdcModel::predict_fused: non-binary model");
    HDLOCK_EXPECTS(!class_binary_.empty(), "HdcModel::predict_fused: untrained model");
    HDLOCK_EXPECTS(encoder.dim() == dim(),
                   "HdcModel::predict_fused: encoder/model dimension mismatch");
    std::vector<std::uint64_t>& distances = scratch.distances(class_binary_.size());
    encoder.fused_hamming_into(levels, scratch, class_binary_, distances);
    // Same argmin as predict(BinaryHV): strict <, first class wins ties.
    int best = 0;
    auto best_distance = static_cast<std::uint64_t>(dim()) + 1;
    for (int cls = 0; cls < n_classes(); ++cls) {
        const std::uint64_t distance = distances[static_cast<std::size_t>(cls)];
        if (distance < best_distance) {
            best_distance = distance;
            best = cls;
        }
    }
    return best;
}

void HdcModel::predict_into(std::span<const IntHV> queries, std::span<int> out) const {
    HDLOCK_EXPECTS(out.size() == queries.size(), "HdcModel::predict_into: size mismatch");
    for (std::size_t s = 0; s < queries.size(); ++s) out[s] = predict(queries[s]);
}

void HdcModel::predict_into(std::span<const BinaryHV> queries, std::span<int> out) const {
    HDLOCK_EXPECTS(out.size() == queries.size(), "HdcModel::predict_into: size mismatch");
    for (std::size_t s = 0; s < queries.size(); ++s) out[s] = predict(queries[s]);
}

std::vector<int> HdcModel::predict_batch(const EncodedBatch& batch) const {
    const bool binary = kind_ == ModelKind::binary;
    HDLOCK_EXPECTS(!binary || batch.binary.size() == batch.size(),
                   "HdcModel::predict_batch: binary model needs binarized encodings");
    std::vector<int> predictions(batch.size());
    if (binary) {
        predict_into(batch.binary, predictions);
    } else {
        predict_into(batch.non_binary, predictions);
    }
    return predictions;
}

double HdcModel::evaluate(const EncodedBatch& batch) const {
    HDLOCK_EXPECTS(batch.size() > 0, "HdcModel::evaluate: empty batch");
    const auto predictions = predict_batch(batch);
    std::size_t correct = 0;
    for (std::size_t s = 0; s < batch.size(); ++s) {
        correct += predictions[s] == batch.labels[s] ? 1u : 0u;
    }
    return static_cast<double>(correct) / static_cast<double>(batch.size());
}

void HdcModel::save(util::BinaryWriter& writer) const {
    writer.write_tag("MDL2");
    writer.write_u8(static_cast<std::uint8_t>(kind_));
    writer.write_i32(epochs_run_);
    writer.write_u64(class_sums_.size());
    writer.write_u64(dim());
    writer.write_u8(class_binary_.empty() ? 0 : 1);
    save_int_hv_block(writer, class_sums_, dim());
    if (!class_binary_.empty()) save_hv_block(writer, class_binary_, dim());
}

HdcModel HdcModel::load(util::BinaryReader& reader) {
    reader.expect_tag("MDL2");
    HdcModel model;
    const auto kind = reader.read_u8();
    if (kind > 1) throw FormatError("HdcModel: bad model kind");
    model.kind_ = static_cast<ModelKind>(kind);
    model.epochs_run_ = reader.read_i32();
    const std::uint64_t n_classes = reader.read_u64();
    const std::uint64_t dim = reader.read_u64();
    const std::uint8_t has_binary = reader.read_u8();
    if (n_classes == 0 || n_classes > (1ULL << 20)) {
        throw FormatError("HdcModel: unreasonable class count");
    }
    if (dim == 0 || dim > (1ULL << 28)) throw FormatError("HdcModel: unreasonable dimension");
    if (has_binary > 1) throw FormatError("HdcModel: bad binary flag");
    if (model.kind_ == ModelKind::binary && has_binary == 0) {
        throw FormatError("HdcModel: binary model missing binarized class HVs");
    }
    model.class_sums_ = load_int_hv_block(reader, static_cast<std::size_t>(dim),
                                          static_cast<std::size_t>(n_classes));
    if (has_binary != 0) {
        model.class_binary_ = load_hv_block(reader, static_cast<std::size_t>(dim),
                                            static_cast<std::size_t>(n_classes));
    }
    model.recompute_norms_();
    return model;
}

HdcModel HdcModel::load_v1(util::BinaryReader& reader) {
    reader.expect_tag("MDL1");
    HdcModel model;
    const auto kind = reader.read_u8();
    if (kind > 1) throw FormatError("HdcModel::load_v1: bad model kind");
    model.kind_ = static_cast<ModelKind>(kind);
    model.epochs_run_ = reader.read_i32();
    const std::uint64_t n_sums = reader.read_u64();
    for (std::uint64_t i = 0; i < n_sums; ++i) {
        model.class_sums_.push_back(IntHV::load_v1(reader));
    }
    const std::uint64_t n_bin = reader.read_u64();
    for (std::uint64_t i = 0; i < n_bin; ++i) {
        model.class_binary_.push_back(BinaryHV::load_v1(reader));
    }
    if (model.kind_ == ModelKind::binary && model.class_binary_.size() != model.class_sums_.size()) {
        throw FormatError("HdcModel::load_v1: binary model missing binarized class HVs");
    }
    // v1 stores a dimension per class HV; scoring reads dim() elements of
    // every class through raw pointers, so they must all agree (v2 stores
    // one shared dimension).
    const auto other_dim = [&model](const auto& hv) { return hv.dim() != model.dim(); };
    if (std::any_of(model.class_sums_.begin(), model.class_sums_.end(), other_dim) ||
        std::any_of(model.class_binary_.begin(), model.class_binary_.end(), other_dim)) {
        throw FormatError("HdcModel::load_v1: class hypervectors differ in dimension");
    }
    model.recompute_norms_();
    return model;
}

}  // namespace hdlock::hdc
