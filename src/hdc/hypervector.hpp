#pragma once

/// \file hypervector.hpp
/// Hypervector value types and the MAP (Multiply-Add-Permute) algebra.
///
/// Two representations are used, following the paper's Sec. 2:
///  - BinaryHV: a bipolar vector in {+1,-1}^D, stored packed (one bit per
///    element; bit 1 encodes -1 so element-wise multiplication is XOR).
///  - IntHV:    an integer vector in Z^D used for bundling sums (Eq. 2) and
///    non-binary class hypervectors (Eq. 4).
///
/// Similarity metrics follow the paper: normalized Hamming distance between
/// binary hypervectors (Eq. 1), cosine similarity between non-binary ones.

#include <cstdint>
#include <span>
#include <vector>

#include "util/bitvec.hpp"
#include "util/rng.hpp"
#include "util/serialize.hpp"

namespace hdlock::hdc {

using Word = util::bits::Word;

/// Packed bipolar hypervector in {+1,-1}^D.
///
/// Storage comes in two modes.  The default owns its words in a vector; the
/// *view* mode (BinaryHV::view) aliases externally-owned words — e.g. a
/// 64-byte-aligned section of a memory-mapped `.hdlk` bundle — and copies
/// nothing.  Views behave identically through every const operation; any
/// mutating call first detaches into owned storage (copy-on-write), so
/// owner-side edit paths keep working on loaded views.  The aliased storage
/// must outlive the view and every copy made of it (api::DeploymentBundle
/// keeps the mapping alive for exactly this reason).
class BinaryHV {
public:
    /// Empty (dimension zero) hypervector.
    BinaryHV() = default;

    /// All-(+1) hypervector of the given dimension.
    explicit BinaryHV(std::size_t dim);

    /// Non-owning view over `word_count(dim)` packed words (tail bits past
    /// `dim` must be zero, as everywhere else).
    static BinaryHV view(std::size_t dim, const Word* words);

    /// Adopts `word_count(dim)` packed words as owned storage; throws
    /// FormatError on a count mismatch or dirty tail bits (the raw-block
    /// deserialization primitive).
    static BinaryHV from_words(std::size_t dim, std::vector<Word> words);

    /// True when this hypervector aliases external storage.
    bool is_view() const noexcept { return view_data_ != nullptr; }

    /// Copies aliased words into owned storage; no-op when already owning.
    void detach();

    /// I.i.d. uniform random bipolar hypervector. Two independent draws are
    /// quasi-orthogonal: their normalized Hamming distance concentrates
    /// around 0.5 (Eq. 1a).
    static BinaryHV random(std::size_t dim, util::Xoshiro256ss& rng);

    std::size_t dim() const noexcept { return dim_; }
    bool empty() const noexcept { return dim_ == 0; }

    /// Element access in the bipolar domain: returns +1 or -1.
    int get(std::size_t i) const;
    void set(std::size_t i, int value);

    /// Re-shapes to `dim` all-(+1) elements (words zeroed), reusing storage
    /// when possible; the scratch-buffer primitive behind sign_into().
    void reset(std::size_t dim);

    std::span<const Word> words() const noexcept {
        return view_data_ != nullptr ? std::span<const Word>(view_data_, view_words_)
                                     : std::span<const Word>(words_);
    }
    /// Mutable word access detaches views first (copy-on-write).
    std::span<Word> words() {
        detach();
        return words_;
    }

    /// Element-wise bipolar multiplication (the MAP "bind" operator).
    BinaryHV operator*(const BinaryHV& other) const;
    BinaryHV& operator*=(const BinaryHV& other);

    /// The paper's permutation rho_k: rotated(k)[i] = (*this)[(i + k) mod D].
    /// k may exceed D; rho_D is the identity.
    BinaryHV rotated(std::size_t k) const;

    /// Unnormalized Hamming distance (number of differing elements).
    std::size_t hamming(const BinaryHV& other) const;

    /// Hamming distance divided by the dimension, as in Eq. 1.
    double normalized_hamming(const BinaryHV& other) const;

    /// Inner product in the bipolar domain: D - 2 * hamming.
    std::int64_t dot(const BinaryHV& other) const;

    /// Cosine similarity; for bipolar vectors this is dot / D in [-1, 1].
    double cosine(const BinaryHV& other) const;

    /// Content equality: a view compares equal to an owning copy.
    bool operator==(const BinaryHV& other) const;

    /// Reads one v1 `BHV1` record (u64 dim + word vector).  Such records
    /// exist only inside v1 `.hdlk` sections, which nothing writes any more;
    /// the v2+ formats store hypervectors in aligned blocks (below).
    static BinaryHV load_v1(util::BinaryReader& reader);

private:
    std::size_t dim_ = 0;
    std::vector<Word> words_;
    const Word* view_data_ = nullptr;
    std::size_t view_words_ = 0;
};

/// Integer hypervector in Z^D holding bundling sums.  Supports the same
/// non-owning view mode as BinaryHV (see above): mapped model class sums
/// alias the bundle bytes, and any mutation detaches into owned storage.
class IntHV {
public:
    IntHV() = default;

    /// Zero vector of the given dimension.
    explicit IntHV(std::size_t dim) : values_(dim, 0) {}

    explicit IntHV(std::vector<std::int32_t> values) : values_(std::move(values)) {}

    /// Non-owning view over `dim` externally-owned values.
    static IntHV view(std::size_t dim, const std::int32_t* values);

    /// Lifts a bipolar hypervector into Z^D.
    static IntHV from_binary(const BinaryHV& hv);

    bool is_view() const noexcept { return view_data_ != nullptr; }

    /// Copies aliased values into owned storage; no-op when already owning.
    void detach();

    std::size_t dim() const noexcept {
        return view_data_ != nullptr ? view_size_ : values_.size();
    }
    bool empty() const noexcept { return dim() == 0; }

    std::int32_t operator[](std::size_t i) const { return values()[i]; }
    std::int32_t& operator[](std::size_t i) {
        detach();
        return values_[i];
    }
    std::span<const std::int32_t> values() const noexcept {
        return view_data_ != nullptr ? std::span<const std::int32_t>(view_data_, view_size_)
                                     : std::span<const std::int32_t>(values_);
    }
    /// Mutable value access detaches views first (copy-on-write).
    std::span<std::int32_t> values() {
        detach();
        return values_;
    }

    /// Element-wise accumulation of a bipolar hypervector (bundling).
    void add(const BinaryHV& hv);
    void sub(const BinaryHV& hv);
    void add(const IntHV& other);
    void sub(const IntHV& other);

    IntHV operator+(const IntHV& other) const;
    IntHV operator-(const IntHV& other) const;

    /// Re-shapes to `dim` without zeroing (the values are about to be
    /// overwritten wholesale, e.g. by Encoder::encode_into).
    /// A view drops its alias without copying — the contents are doomed.
    void resize(std::size_t dim) {
        view_data_ = nullptr;
        view_size_ = 0;
        values_.resize(dim);
    }

    /// Binarization sign(H) of Eq. 3. Zeros are broken to +1/-1 by the
    /// supplied generator, matching the paper's randomized sign(0).
    BinaryHV sign(util::Xoshiro256ss& tie_rng) const;

    /// Allocation-free sign(): writes into `out` (re-shaped to dim()).
    void sign_into(util::Xoshiro256ss& tie_rng, BinaryHV& out) const;

    /// Number of exactly-zero elements (the sign() ties).
    std::size_t zero_count() const noexcept;

    /// Exact int64 inner product (one row of the dot_scores kernel).
    std::int64_t dot(const IntHV& other) const;
    std::int64_t dot(const BinaryHV& other) const;
    double norm() const;

    /// Cosine similarity used by non-binary inference; 0 when either vector
    /// has zero norm.
    double cosine(const IntHV& other) const;
    double cosine(const BinaryHV& other) const;

    /// Content equality: a view compares equal to an owning copy.
    bool operator==(const IntHV& other) const;

    /// Reads one v1 `IHV1` record (an int32 vector); like BinaryHV::load_v1,
    /// read-only.
    static IntHV load_v1(util::BinaryReader& reader);

private:
    std::vector<std::int32_t> values_;
    const std::int32_t* view_data_ = nullptr;
    std::size_t view_size_ = 0;
};

// ---------------------------------------------------------------------------
// Aligned bulk-block serialization (the `.hdlk` v2 primitives)
// ---------------------------------------------------------------------------
//
// A block is 64-byte alignment padding followed by the hypervectors' raw
// payloads back to back, with no per-vector tags or length prefixes — the
// shape (dim, count) lives in the surrounding section header.  On a
// span-backed (mapped) reader whose buffer is suitably aligned, loading a
// block costs no copy at all: each hypervector comes back as a view aliasing
// the mapping.  Stream readers and unaligned buffers degrade to owned
// copies; the bytes and the results are identical either way.

/// Writes `hvs` (uniform dimension `dim`) as one aligned word block.
void save_hv_block(util::BinaryWriter& writer, std::span<const BinaryHV> hvs, std::size_t dim);

/// Reads `count` packed hypervectors of dimension `dim` from an aligned
/// word block.
std::vector<BinaryHV> load_hv_block(util::BinaryReader& reader, std::size_t dim,
                                    std::size_t count);

/// Writes `hvs` (uniform dimension `dim`) as one aligned int32 block.
void save_int_hv_block(util::BinaryWriter& writer, std::span<const IntHV> hvs, std::size_t dim);

/// Reads `count` integer hypervectors of dimension `dim` from an aligned
/// int32 block.
std::vector<IntHV> load_int_hv_block(util::BinaryReader& reader, std::size_t dim,
                                     std::size_t count);

}  // namespace hdlock::hdc
