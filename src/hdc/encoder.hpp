#pragma once

/// \file encoder.hpp
/// The HDC encoding module (Fig. 1 of the paper).
///
/// An Encoder maps a discretized feature vector (N levels in [0, M)) to a
/// hypervector.  The record-based scheme of Eq. 2/3 is implemented here;
/// HDLock's privileged variant (Eq. 10) lives in core/locked_encoder.hpp and
/// shares this interface, which is what lets models, oracles, attacks and
/// benchmarks treat protected and unprotected modules uniformly.
///
/// The encode kernel itself lives once in the base class, written against
/// the subclasses' materialized hypervector arrays (feature_hv_array /
/// value_hv_array): every row hands the N (FeaHV_i, ValHV_{levels[i]})
/// pointer pairs to the Harley–Seal column_counts kernel
/// (util/kernels.hpp), which XORs them on load, so no bound product is ever
/// materialized — per row or in a precomputed table (DESIGN.md §4 records
/// why there is no N x M product table).  The batch entry points
/// (encode_batch / encode_binary_batch) additionally reuse an EncoderScratch
/// across rows, so a served batch performs no per-row heap allocation at
/// all.
///
/// Binarization ties: Eq. 3 assigns sign(0) randomly.  To keep an encoder a
/// *function* (the same input always yields the same output, as a hardware
/// module would), ties are broken by a PRNG seeded from the encoder's tie
/// seed mixed with a hash of the input.  Two encoders with different tie
/// seeds agree on every non-tied element and disagree on about half of the
/// ties — exactly the residual Hamming floor visible in the paper's Fig. 3.
/// Every path below (per-row, batch, fused) derives the identical per-input
/// seed, so all of them are bit-identical to each other.

#include <memory>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"
#include "hdc/item_memory.hpp"
#include "util/matrix.hpp"

namespace hdlock::hdc {

/// Reusable per-worker state for the allocation-free encode paths: the
/// row-pointer tables handed to the kernels, the non-binary sums buffer
/// feeding binarization, and a levels buffer callers may use for
/// discretization.  One scratch per thread; a scratch adapts automatically
/// when used with encoders of different shapes.
class EncoderScratch {
public:
    EncoderScratch() = default;

    /// Caller-side discretization buffer, sized to n entries.
    std::vector<int>& levels(std::size_t n) {
        levels_.resize(n);
        return levels_;
    }

    /// Per-class Hamming distance buffer for the fused encode→distance path
    /// (Encoder::fused_hamming_into), sized to n entries.
    std::vector<std::uint64_t>& distances(std::size_t n) {
        distances_.resize(n);
        return distances_;
    }

private:
    friend class Encoder;

    IntHV sums_;            // non-binary encoding en route to sign()
    std::vector<int> levels_;
    // Row-pointer tables for the column_counts / fused kernel calls: one
    // feature/value pair per feature, bound by the kernel on load.
    std::vector<const util::bits::Word*> rows_a_;      // feature HVs
    std::vector<const util::bits::Word*> rows_b_;      // value HVs at the row's levels
    std::vector<const util::bits::Word*> class_rows_;  // class HV word arrays
    std::vector<std::uint64_t> distances_;
};

class Encoder {
public:
    explicit Encoder(std::uint64_t tie_seed) : tie_seed_(tie_seed) {}
    virtual ~Encoder() = default;

    Encoder(const Encoder&) = default;
    Encoder& operator=(const Encoder&) = default;

    virtual std::size_t dim() const = 0;
    virtual std::size_t n_features() const = 0;
    virtual std::size_t n_levels() const = 0;

    /// Non-binary encoding H_nb (Eq. 2): the bundling sum of ValHV_{f_i} x
    /// FeaHV_i over all features.  `levels[i]` must lie in [0, n_levels).
    virtual IntHV encode(std::span<const int> levels) const;

    /// Binary encoding H_b = sign(H_nb) (Eq. 3) with deterministic-per-input
    /// randomized tie-breaking (see file comment).
    BinaryHV encode_binary(std::span<const int> levels) const;

    /// Allocation-free single-row encode: writes H_nb into `out` (re-shaped
    /// to dim()), reusing the scratch's row tables.  Bit-identical to
    /// encode() on every input.
    void encode_into(std::span<const int> levels, EncoderScratch& scratch, IntHV& out) const;

    /// Allocation-free binary encode; bit-identical to encode_binary().
    void encode_binary_into(std::span<const int> levels, EncoderScratch& scratch,
                            BinaryHV& out) const;

    /// Binarizes an already-computed H_nb of `levels` (the output of
    /// encode_into for the same levels) with this encoder's per-input tie
    /// stream: encode_into + binarize_into == encode_binary_into, so a
    /// caller that needs both encodings encodes once.
    void binarize_into(std::span<const int> levels, const IntHV& sums, BinaryHV& out) const;

    /// Fused encode→distance: writes Hamming(sign(H_nb), class_hvs[c]) into
    /// distances[c] without ever materializing the query hypervector.  The
    /// bound products stream once through a register-resident carry-save
    /// tree inside the kernel backend; binarization and the per-class
    /// XOR+popcount happen per word block while the count planes are still
    /// hot (no plane unpack, no sign pass, no query round-trip through
    /// memory).  Tie-breaking draws the identical PRNG stream as
    /// encode_binary_into, so on every backend
    ///   distances[c] == class_hvs[c].hamming(encode_binary(levels))
    /// exactly.  Requires n_features() <= util::kernels::kMaxFusedRows and
    /// class_hvs.size() == distances.size().
    void fused_hamming_into(std::span<const int> levels, EncoderScratch& scratch,
                            std::span<const BinaryHV> class_hvs,
                            std::span<std::uint64_t> distances) const;

    /// Batch encode: one IntHV per row of `levels_matrix` (rows x
    /// n_features()), scratch reused across rows.  `out` is resized.
    void encode_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                      std::vector<IntHV>& out) const;

    /// Batch binary encode with the same per-row tie-breaking as
    /// encode_binary (row hashed independently).
    void encode_binary_batch(const util::Matrix<int>& levels_matrix, EncoderScratch& scratch,
                             std::vector<BinaryHV>& out) const;

    std::uint64_t tie_seed() const noexcept { return tie_seed_; }

protected:
    /// Validates a level vector against this encoder's shape.
    void check_levels(std::span<const int> levels) const;

    /// The materialized hypervector arrays the shared kernel runs against.
    /// RecordEncoder serves them from its ItemMemory, LockedEncoder and
    /// api::SealedEncoder from their materialized Eq. 9 state.
    virtual std::span<const BinaryHV> feature_hv_array() const = 0;
    virtual std::span<const BinaryHV> value_hv_array() const = 0;

private:
    /// Fills the scratch's row tables for `levels` (validated) with the
    /// feature/value pairs the kernels bind on load.
    void bind_rows(std::span<const int> levels, EncoderScratch& scratch) const;

    /// The sign(0) tie stream for `levels` (see file comment).
    util::Xoshiro256ss tie_rng(std::span<const int> levels) const;

    std::uint64_t tie_seed_;
};

/// The standard record-based encoder of Sec. 2 (Eq. 2/3): one orthogonal
/// FeaHV per feature index and M correlated ValHVs.
class RecordEncoder final : public Encoder {
public:
    RecordEncoder(std::shared_ptr<const ItemMemory> memory, std::uint64_t tie_seed);

    std::size_t dim() const override { return memory_->dim(); }
    std::size_t n_features() const override { return memory_->n_features(); }
    std::size_t n_levels() const override { return memory_->n_levels(); }

    /// Naive per-element reference implementation of Eq. 2, kept for the
    /// bit-slicing equivalence tests and as executable documentation.
    IntHV encode_reference(std::span<const int> levels) const;

    const ItemMemory& memory() const noexcept { return *memory_; }
    std::shared_ptr<const ItemMemory> memory_ptr() const noexcept { return memory_; }

protected:
    std::span<const BinaryHV> feature_hv_array() const override { return memory_->feature_hvs(); }
    std::span<const BinaryHV> value_hv_array() const override { return memory_->value_hvs(); }

private:
    std::shared_ptr<const ItemMemory> memory_;
};

}  // namespace hdlock::hdc
