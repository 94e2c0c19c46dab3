#include "hdc/hypervector.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "util/kernels.hpp"

namespace hdlock::hdc {

namespace bits = util::bits;

BinaryHV::BinaryHV(std::size_t dim) : dim_(dim), words_(bits::word_count(dim), 0) {}

BinaryHV BinaryHV::view(std::size_t dim, const Word* words) {
    HDLOCK_EXPECTS(dim == 0 || words != nullptr, "BinaryHV::view: null word storage");
    BinaryHV hv;
    hv.dim_ = dim;
    hv.view_data_ = words;
    hv.view_words_ = bits::word_count(dim);
    return hv;
}

void BinaryHV::detach() {
    if (view_data_ == nullptr) return;
    words_.assign(view_data_, view_data_ + view_words_);
    view_data_ = nullptr;
    view_words_ = 0;
}

BinaryHV BinaryHV::random(std::size_t dim, util::Xoshiro256ss& rng) {
    HDLOCK_EXPECTS(dim > 0, "BinaryHV::random: dimension must be positive");
    BinaryHV hv(dim);
    bits::fill_random(hv.words_, dim, rng);
    return hv;
}

void BinaryHV::reset(std::size_t dim) {
    dim_ = dim;
    view_data_ = nullptr;
    view_words_ = 0;
    words_.assign(bits::word_count(dim), 0);
}

int BinaryHV::get(std::size_t i) const {
    HDLOCK_EXPECTS(i < dim_, "BinaryHV::get: index out of range");
    return bits::get_bit(words(), i) ? -1 : +1;
}

void BinaryHV::set(std::size_t i, int value) {
    HDLOCK_EXPECTS(i < dim_, "BinaryHV::set: index out of range");
    HDLOCK_EXPECTS(value == 1 || value == -1, "BinaryHV::set: value must be +1 or -1");
    detach();
    bits::set_bit(words_, i, value == -1);
}

BinaryHV BinaryHV::operator*(const BinaryHV& other) const {
    HDLOCK_EXPECTS(dim_ == other.dim_, "BinaryHV::operator*: dimension mismatch");
    BinaryHV out(dim_);
    bits::xor_into(out.words_, words(), other.words());
    return out;
}

BinaryHV& BinaryHV::operator*=(const BinaryHV& other) {
    HDLOCK_EXPECTS(dim_ == other.dim_, "BinaryHV::operator*=: dimension mismatch");
    detach();
    bits::xor_into(words_, words_, other.words());
    return *this;
}

BinaryHV BinaryHV::rotated(std::size_t k) const {
    HDLOCK_EXPECTS(dim_ > 0, "BinaryHV::rotated: empty hypervector");
    BinaryHV out(dim_);
    bits::rotate(out.words_, words(), dim_, k);
    return out;
}

std::size_t BinaryHV::hamming(const BinaryHV& other) const {
    HDLOCK_EXPECTS(dim_ == other.dim_, "BinaryHV::hamming: dimension mismatch");
    return bits::hamming(words(), other.words());
}

double BinaryHV::normalized_hamming(const BinaryHV& other) const {
    HDLOCK_EXPECTS(dim_ > 0, "BinaryHV::normalized_hamming: empty hypervector");
    return static_cast<double>(hamming(other)) / static_cast<double>(dim_);
}

std::int64_t BinaryHV::dot(const BinaryHV& other) const {
    return static_cast<std::int64_t>(dim_) - 2 * static_cast<std::int64_t>(hamming(other));
}

double BinaryHV::cosine(const BinaryHV& other) const {
    HDLOCK_EXPECTS(dim_ > 0, "BinaryHV::cosine: empty hypervector");
    return static_cast<double>(dot(other)) / static_cast<double>(dim_);
}

bool BinaryHV::operator==(const BinaryHV& other) const {
    if (dim_ != other.dim_) return false;
    const auto a = words();
    const auto b = other.words();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

BinaryHV BinaryHV::load_v1(util::BinaryReader& reader) {
    reader.expect_tag("BHV1");
    const std::uint64_t dim = reader.read_u64();
    auto words = reader.read_vector<Word>();
    if (words.size() != bits::word_count(static_cast<std::size_t>(dim))) {
        throw FormatError("BinaryHV::load_v1: word count does not match dimension");
    }
    if (!words.empty() && (words.back() & ~bits::tail_mask(static_cast<std::size_t>(dim))) != 0) {
        throw FormatError("BinaryHV::load_v1: dirty tail bits");
    }
    BinaryHV hv;
    hv.dim_ = static_cast<std::size_t>(dim);
    hv.words_ = std::move(words);
    return hv;
}

BinaryHV BinaryHV::from_words(std::size_t dim, std::vector<Word> words) {
    if (words.size() != bits::word_count(dim)) {
        throw FormatError("BinaryHV::from_words: word count does not match dimension");
    }
    if (!words.empty() && (words.back() & ~bits::tail_mask(dim)) != 0) {
        throw FormatError("BinaryHV::from_words: dirty tail bits");
    }
    BinaryHV hv;
    hv.dim_ = dim;
    hv.words_ = std::move(words);
    return hv;
}

IntHV IntHV::view(std::size_t dim, const std::int32_t* values) {
    HDLOCK_EXPECTS(dim == 0 || values != nullptr, "IntHV::view: null value storage");
    IntHV out;
    out.view_data_ = values;
    out.view_size_ = dim;
    return out;
}

void IntHV::detach() {
    if (view_data_ == nullptr) return;
    values_.assign(view_data_, view_data_ + view_size_);
    view_data_ = nullptr;
    view_size_ = 0;
}

IntHV IntHV::from_binary(const BinaryHV& hv) {
    IntHV out(hv.dim());
    out.add(hv);
    return out;
}

void IntHV::add(const BinaryHV& hv) {
    HDLOCK_EXPECTS(dim() == hv.dim(), "IntHV::add: dimension mismatch");
    detach();
    const auto words = hv.words();
    const std::size_t n = dim();
    for (std::size_t w = 0; w < words.size(); ++w) {
        const Word word = words[w];
        const std::size_t base = w * bits::kWordBits;
        const std::size_t limit = std::min(bits::kWordBits, n - base);
        for (std::size_t b = 0; b < limit; ++b) {
            values_[base + b] += ((word >> b) & 1u) != 0 ? -1 : +1;
        }
    }
}

void IntHV::sub(const BinaryHV& hv) {
    HDLOCK_EXPECTS(dim() == hv.dim(), "IntHV::sub: dimension mismatch");
    detach();
    const auto words = hv.words();
    const std::size_t n = dim();
    for (std::size_t w = 0; w < words.size(); ++w) {
        const Word word = words[w];
        const std::size_t base = w * bits::kWordBits;
        const std::size_t limit = std::min(bits::kWordBits, n - base);
        for (std::size_t b = 0; b < limit; ++b) {
            values_[base + b] -= ((word >> b) & 1u) != 0 ? -1 : +1;
        }
    }
}

void IntHV::add(const IntHV& other) {
    HDLOCK_EXPECTS(dim() == other.dim(), "IntHV::add: dimension mismatch");
    detach();
    const auto other_values = other.values();
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] += other_values[i];
}

void IntHV::sub(const IntHV& other) {
    HDLOCK_EXPECTS(dim() == other.dim(), "IntHV::sub: dimension mismatch");
    detach();
    const auto other_values = other.values();
    for (std::size_t i = 0; i < values_.size(); ++i) values_[i] -= other_values[i];
}

IntHV IntHV::operator+(const IntHV& other) const {
    IntHV out = *this;
    out.add(other);
    return out;
}

IntHV IntHV::operator-(const IntHV& other) const {
    IntHV out = *this;
    out.sub(other);
    return out;
}

BinaryHV IntHV::sign(util::Xoshiro256ss& tie_rng) const {
    BinaryHV out;
    sign_into(tie_rng, out);
    return out;
}

void IntHV::sign_into(util::Xoshiro256ss& tie_rng, BinaryHV& out) const {
    HDLOCK_EXPECTS(!empty(), "IntHV::sign: empty hypervector");
    const auto vals = values();
    out.reset(dim());
    auto words = out.words();
    for (std::size_t i = 0; i < vals.size(); ++i) {
        const std::int32_t v = vals[i];
        const bool negative = v < 0 || (v == 0 && tie_rng.next_sign() < 0);
        if (negative) bits::set_bit(words, i, true);
    }
}

std::size_t IntHV::zero_count() const noexcept {
    std::size_t zeros = 0;
    for (const auto v : values()) zeros += v == 0 ? 1u : 0u;
    return zeros;
}

std::int64_t IntHV::dot(const IntHV& other) const {
    HDLOCK_EXPECTS(dim() == other.dim(), "IntHV::dot: dimension mismatch");
    const std::int32_t* row = other.values().data();
    std::int64_t sum = 0;
    util::kernels::active().dot_scores(values().data(), &row, 1, dim(), &sum);
    return sum;
}

std::int64_t IntHV::dot(const BinaryHV& other) const {
    HDLOCK_EXPECTS(dim() == other.dim(), "IntHV::dot: dimension mismatch");
    const auto vals = values();
    const auto words = other.words();
    std::int64_t sum = 0;
    const std::size_t n = dim();
    for (std::size_t w = 0; w < words.size(); ++w) {
        const Word word = words[w];
        const std::size_t base = w * bits::kWordBits;
        const std::size_t limit = std::min(bits::kWordBits, n - base);
        for (std::size_t b = 0; b < limit; ++b) {
            const std::int64_t v = vals[base + b];
            sum += ((word >> b) & 1u) != 0 ? -v : v;
        }
    }
    return sum;
}

double IntHV::norm() const {
    double sum = 0.0;
    for (const auto v : values()) sum += static_cast<double>(v) * v;
    return std::sqrt(sum);
}

double IntHV::cosine(const IntHV& other) const {
    const double denom = norm() * other.norm();
    if (denom == 0.0) return 0.0;
    return static_cast<double>(dot(other)) / denom;
}

double IntHV::cosine(const BinaryHV& other) const {
    HDLOCK_EXPECTS(other.dim() > 0, "IntHV::cosine: empty hypervector");
    const double denom = norm() * std::sqrt(static_cast<double>(other.dim()));
    if (denom == 0.0) return 0.0;
    return static_cast<double>(dot(other)) / denom;
}

bool IntHV::operator==(const IntHV& other) const {
    const auto a = values();
    const auto b = other.values();
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

IntHV IntHV::load_v1(util::BinaryReader& reader) {
    reader.expect_tag("IHV1");
    return IntHV(reader.read_vector<std::int32_t>());
}

// ---------------------------------------------------------------------------
// Aligned bulk blocks
// ---------------------------------------------------------------------------

namespace {

constexpr std::size_t kBlockAlignment = 64;

/// Blocks alias their backing buffer only when the element type's natural
/// alignment holds at the view pointer — always true for mapped files
/// (64-byte-aligned bases + 64-byte-aligned offsets) but not for arbitrary
/// in-memory spans, which silently degrade to the copying path.
template <typename T>
bool can_view(const std::byte* at) {
    return reinterpret_cast<std::uintptr_t>(at) % alignof(T) == 0;
}

}  // namespace

void save_hv_block(util::BinaryWriter& writer, std::span<const BinaryHV> hvs, std::size_t dim) {
    writer.align_to(kBlockAlignment);
    for (const auto& hv : hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "save_hv_block: non-uniform dimension");
        writer.write_bytes(std::as_bytes(hv.words()));
    }
}

std::vector<BinaryHV> load_hv_block(util::BinaryReader& reader, std::size_t dim,
                                    std::size_t count) {
    reader.align_to(kBlockAlignment);
    const std::size_t words_per_hv = bits::word_count(dim);
    std::vector<BinaryHV> hvs;
    // Reserve only once the bytes behind `count` are known to exist; the
    // stream path grows with the records it reads.
    if (reader.mapped()) {
        const std::byte* raw = reader.view_bytes(count * words_per_hv * sizeof(Word));
        hvs.reserve(count);
        if (can_view<Word>(raw)) {
            const auto* words = reinterpret_cast<const Word*>(raw);
            for (std::size_t i = 0; i < count; ++i) {
                const std::span<const Word> span(words + i * words_per_hv, words_per_hv);
                if (!span.empty() && (span.back() & ~bits::tail_mask(dim)) != 0) {
                    throw FormatError("load_hv_block: dirty tail bits");
                }
                hvs.push_back(BinaryHV::view(dim, span.data()));
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                std::vector<Word> words(words_per_hv);
                std::memcpy(words.data(), raw + i * words_per_hv * sizeof(Word),
                            words_per_hv * sizeof(Word));
                hvs.push_back(BinaryHV::from_words(dim, std::move(words)));
            }
        }
        return hvs;
    }
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<Word> words(words_per_hv);
        reader.read_bytes(std::as_writable_bytes(std::span<Word>(words)));
        hvs.push_back(BinaryHV::from_words(dim, std::move(words)));
    }
    return hvs;
}

void save_int_hv_block(util::BinaryWriter& writer, std::span<const IntHV> hvs, std::size_t dim) {
    writer.align_to(kBlockAlignment);
    for (const auto& hv : hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "save_int_hv_block: non-uniform dimension");
        writer.write_bytes(std::as_bytes(hv.values()));
    }
}

std::vector<IntHV> load_int_hv_block(util::BinaryReader& reader, std::size_t dim,
                                     std::size_t count) {
    reader.align_to(kBlockAlignment);
    std::vector<IntHV> hvs;
    if (reader.mapped()) {
        const std::byte* raw = reader.view_bytes(count * dim * sizeof(std::int32_t));
        hvs.reserve(count);
        if (can_view<std::int32_t>(raw)) {
            const auto* values = reinterpret_cast<const std::int32_t*>(raw);
            for (std::size_t i = 0; i < count; ++i) {
                hvs.push_back(IntHV::view(dim, values + i * dim));
            }
        } else {
            for (std::size_t i = 0; i < count; ++i) {
                std::vector<std::int32_t> values(dim);
                std::memcpy(values.data(), raw + i * dim * sizeof(std::int32_t),
                            dim * sizeof(std::int32_t));
                hvs.push_back(IntHV(std::move(values)));
            }
        }
        return hvs;
    }
    for (std::size_t i = 0; i < count; ++i) {
        std::vector<std::int32_t> values(dim);
        reader.read_bytes(std::as_writable_bytes(std::span<std::int32_t>(values)));
        hvs.push_back(IntHV(std::move(values)));
    }
    return hvs;
}

}  // namespace hdlock::hdc
