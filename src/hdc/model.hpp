#pragma once

/// \file model.hpp
/// HDC classification model: class hypervectors, training and inference.
///
/// Training follows the paper's Sec. 2: class hypervectors are the bundling
/// sums of the encoded training samples (Eq. 4), optionally refined with
/// QuantHD-style retraining — on a misprediction the sample is added to the
/// correct class sum and subtracted from the mispredicted one.  Inference
/// compares the encoded query against every class hypervector with cosine
/// similarity (non-binary model) or Hamming distance (binary model).

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"

namespace hdlock::hdc {

class Encoder;
class EncoderScratch;

enum class ModelKind : std::uint8_t {
    non_binary = 0,  ///< integer class HVs, cosine similarity
    binary = 1       ///< binarized class HVs, Hamming distance
};

struct TrainConfig {
    ModelKind kind = ModelKind::non_binary;
    /// Retraining passes over the training set after the initial bundling;
    /// 0 reproduces plain single-pass HDC training.
    int retrain_epochs = 10;
    /// Integer "learning rate": the weight applied to retraining updates.
    int learning_rate = 1;
    /// Stop early once a full epoch makes no mistakes.
    bool stop_when_clean = true;
    std::uint64_t seed = 1;
};

/// A batch of encoded samples: the non-binary encodings plus (for binary
/// models) their binarizations, computed once so retraining epochs and
/// evaluation never re-encode.
struct EncodedBatch {
    std::vector<IntHV> non_binary;
    std::vector<BinaryHV> binary;  ///< empty unless the model kind needs it
    std::vector<int> labels;

    std::size_t size() const noexcept { return non_binary.size(); }
};

class HdcModel {
public:
    HdcModel() = default;

    /// Trains on encoded samples. `batch.binary` must be populated when
    /// config.kind == ModelKind::binary.
    static HdcModel train(const EncodedBatch& batch, int n_classes, const TrainConfig& config);

    ModelKind kind() const noexcept { return kind_; }
    int n_classes() const noexcept { return static_cast<int>(class_sums_.size()); }
    std::size_t dim() const noexcept { return class_sums_.empty() ? 0 : class_sums_[0].dim(); }

    /// Integer class hypervector (Eq. 4 sums plus retraining updates).
    const IntHV& class_sum(int cls) const;
    /// Binarized class hypervector; only valid for binary models.
    const BinaryHV& class_binary(int cls) const;

    /// Non-binary inference: argmax cosine(query, ClassHV_j); the query
    /// must have dim() elements.  Class-HV norms are precomputed (and kept
    /// in sync through training updates), so a call is the dot_scores
    /// kernel over the class rows plus one pass for the query's own norm.
    int predict(const IntHV& query) const;
    /// Binary inference: argmin Hamming(query, sign(ClassHV_j)).  The
    /// distance scoring runs on the dispatched SIMD word kernels
    /// (util/kernels.hpp via BinaryHV::hamming) — backend choice never
    /// changes a prediction, only how fast the argmin is found.
    int predict(const BinaryHV& query) const;

    /// Fused binary inference: encodes `levels` and scores every class in
    /// one pass through Encoder::fused_hamming_into — the query hypervector
    /// is never materialized.  Returns the same argmin as
    /// predict(encoder.encode_binary(levels)) on every kernel backend (same
    /// distances, same strict-< first-wins tie order).  Binary models only.
    int predict_fused(const Encoder& encoder, std::span<const int> levels,
                      EncoderScratch& scratch) const;

    /// Batch inference over already-encoded queries (one label per query,
    /// in order).  The serving path: pairs with Encoder::encode_batch /
    /// encode_binary_batch so a whole batch reuses one scratch and the
    /// precomputed class norms.
    void predict_into(std::span<const IntHV> queries, std::span<int> out) const;
    void predict_into(std::span<const BinaryHV> queries, std::span<int> out) const;

    /// Predicts every sample in the batch using the representation matching
    /// the model kind.
    std::vector<int> predict_batch(const EncodedBatch& batch) const;

    /// Fraction of batch samples classified correctly.
    double evaluate(const EncodedBatch& batch) const;

    /// Number of retraining epochs actually executed (early stop included).
    int epochs_run() const noexcept { return epochs_run_; }

    /// The model section of a v2+ `.hdlk` ("MDL2"): shape header +
    /// 64-byte-aligned raw class-HV blocks.  A mapped load aliases the class
    /// sums (and the binarized class HVs) into the backing buffer; only the
    /// per-class norms are recomputed (one read pass, no copy).  Mutating a
    /// mapped model (e.g. retraining) detaches copy-on-write per class HV.
    void save(util::BinaryWriter& writer) const;
    static HdcModel load(util::BinaryReader& reader);

    /// Reads the v1 model section ("MDL1": per-class `IHV1`/`BHV1`
    /// records).  Read-only: nothing writes this format any more.
    static HdcModel load_v1(util::BinaryReader& reader);

    /// Pins external storage the class HVs may alias (a mapped `.hdlk`'s
    /// bytes).  Copies of the model share the pin, so a serving session
    /// that copied a mapped model stays valid after the bundle is gone.
    /// Harmless on fully-owning models.
    void set_storage_anchor(std::shared_ptr<const void> anchor) {
        storage_anchor_ = std::move(anchor);
    }

private:
    void rebinarize_(util::Xoshiro256ss& rng);
    void recompute_norm_(std::size_t cls);
    void recompute_norms_();

    ModelKind kind_ = ModelKind::non_binary;
    std::vector<IntHV> class_sums_;
    std::vector<BinaryHV> class_binary_;
    /// ||ClassHV_j|| for every class, maintained alongside class_sums_ so
    /// non-binary predict never re-derives them (they are invariant across a
    /// whole served batch).
    std::vector<double> class_norms_;
    std::shared_ptr<const void> storage_anchor_;
    int epochs_run_ = 0;
};

}  // namespace hdlock::hdc
