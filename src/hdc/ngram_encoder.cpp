#include "hdc/ngram_encoder.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/kernels.hpp"

namespace hdlock::hdc {

NGramEncoder::NGramEncoder(std::vector<BinaryHV> symbols, std::size_t gram_size,
                           std::uint64_t tie_seed)
    : symbols_(std::move(symbols)), gram_size_(gram_size), tie_seed_(tie_seed) {
    HDLOCK_EXPECTS(!symbols_.empty(), "NGramEncoder: empty symbol memory");
    HDLOCK_EXPECTS(gram_size_ >= 1, "NGramEncoder: gram size must be at least 1");
    dim_ = symbols_.front().dim();
    HDLOCK_EXPECTS(dim_ > 0, "NGramEncoder: zero-dimensional symbols");
    for (const auto& symbol : symbols_) {
        HDLOCK_EXPECTS(symbol.dim() == dim_, "NGramEncoder: inconsistent symbol dimensions");
    }
}

const BinaryHV& NGramEncoder::symbol_hv(std::size_t symbol) const {
    HDLOCK_EXPECTS(symbol < symbols_.size(), "NGramEncoder: symbol out of range");
    return symbols_[symbol];
}

BinaryHV NGramEncoder::bind_positions(std::span<const int> positions) const {
    // Position g (0 = oldest) is rotated by gram_size - 1 - g, so the most
    // recent symbol of a whole gram enters unrotated.  symbol_hv range-checks
    // each symbol (a negative one wraps past the alphabet) before its row is
    // read.
    BinaryHV bound = symbol_hv(static_cast<std::size_t>(positions[0])).rotated(gram_size_ - 1);
    for (std::size_t g = 1; g < positions.size(); ++g) {
        bound *= symbol_hv(static_cast<std::size_t>(positions[g])).rotated(gram_size_ - 1 - g);
    }
    return bound;
}

BinaryHV NGramEncoder::gram_hv(std::span<const int> gram) const {
    HDLOCK_EXPECTS(gram.size() == gram_size_, "NGramEncoder: gram has wrong length");
    return bind_positions(gram);
}

IntHV NGramEncoder::encode(std::span<const int> sequence) const {
    HDLOCK_EXPECTS(sequence.size() >= gram_size_,
                   "NGramEncoder: sequence shorter than one gram");
    // Grams are counted in batches of kBatch through column_counts, so the
    // memory held stays bounded however long the sequence is.  Each gram is
    // one row pair the kernel binds on load: the binding of its older,
    // rotated positions, and its newest symbol, which enters unrotated.  A
    // 1-gram has no older positions; its binding stays the all-zero
    // hypervector, the identity of XOR binding.
    constexpr std::size_t kBatch = 64;
    const std::size_t n_grams = sequence.size() - gram_size_ + 1;
    std::vector<BinaryHV> older(std::min(kBatch, n_grams), BinaryHV(dim_));
    std::vector<const util::bits::Word*> rows_a(older.size());
    std::vector<const util::bits::Word*> rows_b(older.size());
    IntHV sums(dim_);
    const std::span<std::int32_t> counts = sums.values();
    const util::kernels::KernelBackend& kernel = util::kernels::active();
    for (std::size_t first = 0; first < n_grams; first += kBatch) {
        const std::size_t batch = std::min(kBatch, n_grams - first);
        for (std::size_t i = 0; i < batch; ++i) {
            const std::span<const int> gram = sequence.subspan(first + i, gram_size_);
            if (gram_size_ > 1) older[i] = bind_positions(gram.first(gram_size_ - 1));
            rows_a[i] = older[i].words().data();
            rows_b[i] = symbol_hv(static_cast<std::size_t>(gram.back())).words().data();
        }
        kernel.column_counts(rows_a.data(), rows_b.data(), batch, dim_, counts.data());
    }
    // Bit 1 encodes -1, so a column with `count` set bits sums to n - 2*count.
    const auto total = static_cast<std::int32_t>(n_grams);
    for (std::int32_t& sum : counts) sum = total - 2 * sum;
    return sums;
}

BinaryHV NGramEncoder::encode_binary(std::span<const int> sequence) const {
    const IntHV sums = encode(sequence);
    // Mix the tie seed with a cheap sequence hash so ties break randomly but
    // reproducibly per input, mirroring hdc::Encoder::encode_binary.
    std::uint64_t input_hash = 0x9E3779B97F4A7C15ull;
    for (const int symbol : sequence) {
        input_hash = util::hash_mix(input_hash, static_cast<std::uint64_t>(symbol) + 1);
    }
    util::Xoshiro256ss tie_rng(util::hash_mix(tie_seed_, input_hash));
    return sums.sign(tie_rng);
}

std::vector<BinaryHV> generate_symbol_hvs(std::size_t dim, std::size_t alphabet,
                                          std::uint64_t seed) {
    HDLOCK_EXPECTS(dim > 0, "generate_symbol_hvs: dim must be positive");
    HDLOCK_EXPECTS(alphabet > 0, "generate_symbol_hvs: alphabet must be positive");
    util::Xoshiro256ss rng(seed);
    std::vector<BinaryHV> symbols;
    symbols.reserve(alphabet);
    for (std::size_t a = 0; a < alphabet; ++a) symbols.push_back(BinaryHV::random(dim, rng));
    return symbols;
}

}  // namespace hdlock::hdc
