#pragma once

/// \file ngram_encoder.hpp
/// N-gram (sequence) encoding — the other classic HDC encoding family.
///
/// The paper's Fig. 8 caption says "record-based encoding" precisely because
/// HDC literature splits encoders into record-based (feature/value binding,
/// Eq. 2) and n-gram-based (position-permuted symbol binding, used for text,
/// voice and DNA workloads such as GenieHD [9]).  The vulnerability of
/// Sec. 3 is a property of the *encoding module* in general, so this module
/// provides the n-gram substrate and core/locked_encoder.hpp's
/// materialize_locked_symbols() locks its symbol memory the HDLock way —
/// demonstrating that the defense generalizes beyond record encoders.
///
/// A sequence s_1 .. s_T over an alphabet of A symbols is encoded as the
/// bundling sum of its n-grams,
///
///     H = sum_{t=1}^{T-n+1}  prod_{g=0}^{n-1} rho^{n-1-g}( Sym_{s_{t+g}} )
///
/// where rho is the rotate-by-one permutation: the permutation depth encodes
/// the position *within* the gram, so "ab" and "ba" bind to quasi-orthogonal
/// hypervectors while sequences sharing most grams stay close.

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "hdc/hypervector.hpp"

namespace hdlock::hdc {

/// Sequence encoder over a fixed symbol memory.
class NGramEncoder {
public:
    /// \param symbols     one hypervector per alphabet symbol (all the same
    ///                    dimension, at least one)
    /// \param gram_size   n; 1 reduces to an order-free bag of symbols
    /// \param tie_seed    sign(0) tie-break seed (as hdc::Encoder)
    NGramEncoder(std::vector<BinaryHV> symbols, std::size_t gram_size, std::uint64_t tie_seed);

    std::size_t dim() const noexcept { return dim_; }
    std::size_t alphabet_size() const noexcept { return symbols_.size(); }
    std::size_t gram_size() const noexcept { return gram_size_; }
    std::uint64_t tie_seed() const noexcept { return tie_seed_; }

    const BinaryHV& symbol_hv(std::size_t symbol) const;

    /// Non-binary sequence encoding (the bundling sum above).  The sequence
    /// must contain at least gram_size() symbols, each in [0, alphabet).
    IntHV encode(std::span<const int> sequence) const;

    /// Binarized encoding with deterministic-per-input tie-breaking.
    BinaryHV encode_binary(std::span<const int> sequence) const;

    /// The bound hypervector of a single n-gram (exposed for tests and for
    /// attack experiments that probe one gram at a time).
    BinaryHV gram_hv(std::span<const int> gram) const;

private:
    /// The binding of a gram's leading positions (at least one): position g
    /// rotated by gram_size() - 1 - g, whatever the count.  Each symbol is
    /// range-checked.
    BinaryHV bind_positions(std::span<const int> positions) const;

    std::vector<BinaryHV> symbols_;
    std::size_t dim_ = 0;
    std::size_t gram_size_ = 0;
    std::uint64_t tie_seed_ = 0;
};

/// Generates A i.i.d. random (quasi-orthogonal) symbol hypervectors — the
/// unprotected symbol memory.
std::vector<BinaryHV> generate_symbol_hvs(std::size_t dim, std::size_t alphabet,
                                          std::uint64_t seed);

}  // namespace hdlock::hdc
