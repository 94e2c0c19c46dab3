#include "hdc/encoder.hpp"

#include <algorithm>
#include <bit>

#include "util/kernels.hpp"

namespace hdlock::hdc {

namespace bits = util::bits;

namespace {

// TieResolver for the fused kernel: draws the same Xoshiro stream that
// IntHV::sign_into draws for zero sums — one next_sign() per tied column, in
// ascending column order (the kernel guarantees ascending word order and at
// most one call per word; set bits walk LSB-first here).  A set bit in the
// result means the tie resolves to -1 (bit 1 == value -1).
util::bits::Word resolve_fused_ties(void* ctx, util::bits::Word eq_mask,
                                    std::size_t /*word_index*/) noexcept {
    auto& rng = *static_cast<util::Xoshiro256ss*>(ctx);
    util::bits::Word negatives = 0;
    while (eq_mask != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(eq_mask));
        if (rng.next_sign() < 0) negatives |= util::bits::Word{1} << bit;
        eq_mask &= eq_mask - 1;
    }
    return negatives;
}

}  // namespace

// ---------------------------------------------------------------------------
// Encoder
// ---------------------------------------------------------------------------

void Encoder::check_levels(std::span<const int> levels) const {
    HDLOCK_EXPECTS(levels.size() == n_features(), "Encoder: level vector has wrong length");
    const auto top = static_cast<int>(n_levels());
    for (const int level : levels) {
        HDLOCK_EXPECTS(level >= 0 && level < top, "Encoder: level out of range");
    }
}

void Encoder::bind_rows(std::span<const int> levels, EncoderScratch& scratch) const {
    const std::size_t n = levels.size();
    scratch.rows_a_.resize(n);
    scratch.rows_b_.resize(n);
    const std::span<const BinaryHV> feature_hvs = feature_hv_array();
    const std::span<const BinaryHV> value_hvs = value_hv_array();
    for (std::size_t i = 0; i < n; ++i) {
        scratch.rows_a_[i] = feature_hvs[i].words().data();
        scratch.rows_b_[i] = value_hvs[static_cast<std::size_t>(levels[i])].words().data();
    }
}

util::Xoshiro256ss Encoder::tie_rng(std::span<const int> levels) const {
    return util::Xoshiro256ss(util::hash_mix(tie_seed_, util::fnv1a_of(levels)));
}

IntHV Encoder::encode(std::span<const int> levels) const {
    EncoderScratch scratch;
    IntHV out;
    encode_into(levels, scratch, out);
    return out;
}

BinaryHV Encoder::encode_binary(std::span<const int> levels) const {
    EncoderScratch scratch;
    BinaryHV out;
    encode_binary_into(levels, scratch, out);
    return out;
}

void Encoder::encode_into(std::span<const int> levels, EncoderScratch& scratch,
                          IntHV& out) const {
    check_levels(levels);
    bind_rows(levels, scratch);
    const std::size_t n = levels.size();
    out.resize(dim());
    const std::span<std::int32_t> sums = out.values();
    std::fill(sums.begin(), sums.end(), 0);
    const util::kernels::KernelBackend& kernel = util::kernels::active();
    for (std::size_t r = 0; r < n; r += util::kernels::kMaxFusedRows) {
        kernel.column_counts(scratch.rows_a_.data() + r, scratch.rows_b_.data() + r,
                             std::min(util::kernels::kMaxFusedRows, n - r), sums.size(),
                             sums.data());
    }
    // Bit 1 encodes -1, so a column with `count` set bits sums to n - 2*count.
    const auto total = static_cast<std::int32_t>(n);
    for (std::int32_t& sum : sums) sum = total - 2 * sum;
}

void Encoder::encode_binary_into(std::span<const int> levels, EncoderScratch& scratch,
                                 BinaryHV& out) const {
    encode_into(levels, scratch, scratch.sums_);
    binarize_into(levels, scratch.sums_, out);
}

void Encoder::binarize_into(std::span<const int> levels, const IntHV& sums, BinaryHV& out) const {
    HDLOCK_EXPECTS(sums.dim() == dim(), "Encoder::binarize_into: sums dimension mismatch");
    util::Xoshiro256ss rng = tie_rng(levels);
    sums.sign_into(rng, out);
}

void Encoder::fused_hamming_into(std::span<const int> levels, EncoderScratch& scratch,
                                 std::span<const BinaryHV> class_hvs,
                                 std::span<std::uint64_t> distances) const {
    check_levels(levels);
    HDLOCK_EXPECTS(class_hvs.size() == distances.size(),
                   "Encoder::fused_hamming_into: class/distance count mismatch");
    HDLOCK_EXPECTS(levels.size() <= util::kernels::kMaxFusedRows,
                   "Encoder::fused_hamming_into: feature count exceeds the fused-path cap");
    const std::size_t d = dim();
    for (const BinaryHV& hv : class_hvs) {
        HDLOCK_EXPECTS(hv.dim() == d, "Encoder::fused_hamming_into: class HV dimension mismatch");
    }

    bind_rows(levels, scratch);
    scratch.class_rows_.resize(class_hvs.size());
    for (std::size_t c = 0; c < class_hvs.size(); ++c) {
        scratch.class_rows_[c] = class_hvs[c].words().data();
    }
    util::Xoshiro256ss rng = tie_rng(levels);
    util::kernels::active().fused_hamming_scores(
        scratch.rows_a_.data(), scratch.rows_b_.data(), levels.size(), scratch.class_rows_.data(),
        class_hvs.size(), bits::word_count(d), &resolve_fused_ties, &rng, distances.data());
}

void Encoder::encode_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                           std::vector<IntHV>& out) const {
    HDLOCK_EXPECTS(levels_matrix.rows() == 0 || levels_matrix.cols() == n_features(),
                   "Encoder::encode_batch: level matrix has wrong feature count");
    out.resize(levels_matrix.rows());
    for (std::size_t r = 0; r < levels_matrix.rows(); ++r) {
        encode_into(levels_matrix.row(r), scratch, out[r]);
    }
}

void Encoder::encode_binary_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                                  std::vector<BinaryHV>& out) const {
    HDLOCK_EXPECTS(levels_matrix.rows() == 0 || levels_matrix.cols() == n_features(),
                   "Encoder::encode_binary_batch: level matrix has wrong feature count");
    out.resize(levels_matrix.rows());
    for (std::size_t r = 0; r < levels_matrix.rows(); ++r) {
        encode_binary_into(levels_matrix.row(r), scratch, out[r]);
    }
}

// ---------------------------------------------------------------------------
// RecordEncoder
// ---------------------------------------------------------------------------

RecordEncoder::RecordEncoder(std::shared_ptr<const ItemMemory> memory, std::uint64_t tie_seed)
    : Encoder(tie_seed), memory_(std::move(memory)) {
    HDLOCK_EXPECTS(memory_ != nullptr, "RecordEncoder: null item memory");
    HDLOCK_EXPECTS(memory_->n_features() > 0, "RecordEncoder: item memory has no feature HVs");
}

IntHV RecordEncoder::encode_reference(std::span<const int> levels) const {
    check_levels(levels);
    IntHV sums(dim());
    for (std::size_t i = 0; i < levels.size(); ++i) {
        const BinaryHV product =
            memory_->feature_hv(i) * memory_->value_hv(static_cast<std::size_t>(levels[i]));
        sums.add(product);
    }
    return sums;
}

}  // namespace hdlock::hdc
