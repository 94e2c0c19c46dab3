/// \file kernels_avx2.cpp
/// The AVX2 kernel backend.  This translation unit is the only code in the
/// library compiled with -mavx2 (set per-file by CMakeLists.txt), so every
/// definition with external linkage below must be AVX2-clean to call — which
/// is just avx2_backend(), whose body never executes a vector instruction.
/// All actual kernels live behind function pointers that dispatch only after
/// runtime CPUID confirmation (kernels.cpp), and everything else is kept in
/// an anonymous namespace so no inline/template instantiation built with
/// AVX2 codegen can be merged into other translation units by the linker.
///
/// When the toolchain cannot target AVX2 (no -mavx2 support, non-x86) the
/// file degrades to `return nullptr` and dispatch skips the backend.

#include "util/kernels.hpp"

#if defined(__AVX2__)

#include <immintrin.h>

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + w), _mm256_xor_si256(va, vb));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

/// Per-byte popcount via the nibble-lookup (Muła) scheme, folded to four
/// 64-bit partial sums by SAD against zero.
__m256i popcount_bytes_sad(__m256i v) noexcept {
    const __m256i lookup =
        _mm256_setr_epi8(0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
                         0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low_mask = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low_mask);
    const __m256i hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
    const __m256i counts =
        _mm256_add_epi8(_mm256_shuffle_epi8(lookup, lo), _mm256_shuffle_epi8(lookup, hi));
    return _mm256_sad_epu8(counts, _mm256_setzero_si256());
}

std::size_t reduce_epi64(__m256i acc) noexcept {
    const __m128i lo = _mm256_castsi256_si128(acc);
    const __m128i hi = _mm256_extracti128_si256(acc, 1);
    const __m128i sum = _mm_add_epi64(lo, hi);
    return static_cast<std::size_t>(static_cast<std::uint64_t>(_mm_extract_epi64(sum, 0)) +
                                    static_cast<std::uint64_t>(_mm_extract_epi64(sum, 1)));
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + w));
        acc = _mm256_add_epi64(acc, popcount_bytes_sad(v));
    }
    std::size_t total = reduce_epi64(acc);
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    __m256i acc = _mm256_setzero_si256();
    std::size_t w = 0;
    for (; w + 4 <= n; w += 4) {
        const __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + w));
        const __m256i vb = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + w));
        acc = _mm256_add_epi64(acc, popcount_bytes_sad(_mm256_xor_si256(va, vb)));
    }
    std::size_t total = reduce_epi64(acc);
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// sum = a ^ b ^ c.
__m256i csa_sum(__m256i a, __m256i b, __m256i c) noexcept {
    return _mm256_xor_si256(_mm256_xor_si256(a, b), c);
}

/// carry = (a&b) | ((a^b)&c) — the CSA carry of the portable kernels.
__m256i csa_carry(__m256i a, __m256i b, __m256i c) noexcept {
    return _mm256_or_si256(_mm256_and_si256(a, b),
                           _mm256_and_si256(_mm256_xor_si256(a, b), c));
}

/// Row r's words at `w`, bound on load: rows_a[r] ^ rows_b[r].
__m256i load_row(const Word* const* rows_a, const Word* const* rows_b, std::size_t r,
                 std::size_t w) noexcept {
    const __m256i a = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows_a[r] + w));
    const __m256i b = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows_b[r] + w));
    return _mm256_xor_si256(a, b);
}

/// The Harley–Seal block shared by column_counts and fused_hamming_scores:
/// leaves in planes[0, n_planes) the bit-sliced counts of the four words at
/// `w` over the n_rows rows.  Planes past the 16-ymm register file spill to
/// the stack but stay L1-hot — they are touched once per 8 rows.
/// Forced inline with the planes as a 16-element array so the compiler
/// sees the plane bound (see kernels_avx512.cpp).
[[gnu::always_inline]] inline void count_planes(const Word* const* rows_a,
                                                const Word* const* rows_b, std::size_t n_rows,
                                                std::size_t n_planes, std::size_t w,
                                                __m256i (&planes)[16]) noexcept {
    for (std::size_t p = 0; p < n_planes; ++p) planes[p] = _mm256_setzero_si256();
    __m256i ones = _mm256_setzero_si256();
    __m256i twos = _mm256_setzero_si256();
    __m256i fours = _mm256_setzero_si256();
    std::size_t r = 0;
    for (; r + 8 <= n_rows; r += 8) {
        const __m256i x0 = load_row(rows_a, rows_b, r + 0, w);
        const __m256i x1 = load_row(rows_a, rows_b, r + 1, w);
        const __m256i twos_a = csa_carry(ones, x0, x1);
        ones = csa_sum(ones, x0, x1);
        const __m256i x2 = load_row(rows_a, rows_b, r + 2, w);
        const __m256i x3 = load_row(rows_a, rows_b, r + 3, w);
        const __m256i twos_b = csa_carry(ones, x2, x3);
        ones = csa_sum(ones, x2, x3);
        const __m256i fours_a = csa_carry(twos, twos_a, twos_b);
        twos = csa_sum(twos, twos_a, twos_b);
        const __m256i x4 = load_row(rows_a, rows_b, r + 4, w);
        const __m256i x5 = load_row(rows_a, rows_b, r + 5, w);
        const __m256i twos_c = csa_carry(ones, x4, x5);
        ones = csa_sum(ones, x4, x5);
        const __m256i x6 = load_row(rows_a, rows_b, r + 6, w);
        const __m256i x7 = load_row(rows_a, rows_b, r + 7, w);
        const __m256i twos_d = csa_carry(ones, x6, x7);
        ones = csa_sum(ones, x6, x7);
        const __m256i fours_b = csa_carry(twos, twos_c, twos_d);
        twos = csa_sum(twos, twos_c, twos_d);
        __m256i carry = csa_carry(fours, fours_a, fours_b);
        fours = csa_sum(fours, fours_a, fours_b);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const __m256i sum = _mm256_xor_si256(planes[p], carry);
            carry = _mm256_and_si256(planes[p], carry);
            planes[p] = sum;
        }
    }
    for (; r < n_rows; ++r) {
        const __m256i x = load_row(rows_a, rows_b, r, w);
        __m256i carry = _mm256_and_si256(ones, x);
        ones = _mm256_xor_si256(ones, x);
        const __m256i c2 = _mm256_and_si256(twos, carry);
        twos = _mm256_xor_si256(twos, carry);
        carry = _mm256_and_si256(fours, c2);
        fours = _mm256_xor_si256(fours, c2);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const __m256i sum = _mm256_xor_si256(planes[p], carry);
            carry = _mm256_and_si256(planes[p], carry);
            planes[p] = sum;
        }
    }
    const __m256i carries[3] = {ones, twos, fours};
    for (std::size_t start = 0; start < 3; ++start) {
        __m256i carry = carries[start];
        for (std::size_t p = start; p < n_planes; ++p) {
            const __m256i sum = _mm256_xor_si256(planes[p], carry);
            carry = _mm256_and_si256(planes[p], carry);
            planes[p] = sum;
        }
    }
}

/// counts[0, 8) += the eight uint16 lanes of v.
void add_counts8(std::int32_t* counts, __m128i v) noexcept {
    __m256i* slot = reinterpret_cast<__m256i*>(counts);
    _mm256_storeu_si256(slot, _mm256_add_epi32(_mm256_loadu_si256(slot), _mm256_cvtepu16_epi32(v)));
}

/// Adds one block's 256 column counts onto counts[0, 256).  Per 32-column
/// half-word, every plane word spreads to one byte per column (vpshufb of
/// the broadcast, then a per-byte bit test), weighted into a low (planes
/// 0-7) and a high (planes 8-15) byte of the count; interleaving the two
/// bytes yields 16-bit counts, which widen to int32.
[[gnu::always_inline]] inline void add_block_counts(const __m256i (&planes)[16],
                                                   std::size_t n_planes,
                                                   std::int32_t* counts) noexcept {
    alignas(32) Word words[16][4];
    for (std::size_t p = 0; p < n_planes; ++p) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(words[p]), planes[p]);
    }
    // vpshufb is in-lane, but the 32-bit broadcast fills both lanes, so the
    // high lane can pick bytes 2 and 3 just like the low lane picks 0 and 1.
    const __m256i spread = _mm256_setr_epi8(0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1,
                                            2, 2, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 3);
    const __m256i bit = _mm256_set1_epi64x(static_cast<long long>(0x8040201008040201ULL));
    const auto column_bits = [&](Word chunk) noexcept {
        const __m256i x = _mm256_shuffle_epi8(
            _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(chunk))), spread);
        return _mm256_cmpeq_epi8(_mm256_and_si256(x, bit), bit);
    };
    for (std::size_t k = 0; k < 4; ++k) {
        for (std::size_t half = 0; half < 2; ++half) {
            __m256i low = _mm256_setzero_si256();
            __m256i high = _mm256_setzero_si256();
            for (std::size_t p = 0; p < n_planes; ++p) {
                const __m256i weight = _mm256_set1_epi8(static_cast<char>(1u << (p % 8)));
                const __m256i bits =
                    _mm256_and_si256(column_bits(words[p][k] >> (32 * half)), weight);
                if (p < 8) {
                    low = _mm256_or_si256(low, bits);
                } else {
                    high = _mm256_or_si256(high, bits);
                }
            }
            // unpacklo/hi interleave in-lane: columns 0-7 and 16-23, then
            // columns 8-15 and 24-31.
            const __m256i first = _mm256_unpacklo_epi8(low, high);
            const __m256i second = _mm256_unpackhi_epi8(low, high);
            std::int32_t* out = counts + k * 64 + half * 32;
            add_counts8(out, _mm256_castsi256_si128(first));
            add_counts8(out + 8, _mm256_castsi256_si128(second));
            add_counts8(out + 16, _mm256_extracti128_si256(first, 1));
            add_counts8(out + 24, _mm256_extracti128_si256(second, 1));
        }
    }
}

void column_counts(const Word* const* rows_a, const Word* const* rows_b, std::size_t n_rows,
                   std::size_t n_bits, std::int32_t* counts) noexcept {
    if (n_rows == 0) return;
    const auto n_planes = static_cast<std::size_t>(64 - __builtin_clzll(n_rows));
    // Vector blocks cover whole words only; the partial last word, whose
    // columns past n_bits have no count slot, goes through the scalar tail.
    const std::size_t full_words = n_bits / 64;
    std::size_t w = 0;
    for (; w + 4 <= full_words; w += 4) {
        __m256i planes[16];
        count_planes(rows_a, rows_b, n_rows, n_planes, w, planes);
        add_block_counts(planes, n_planes, counts + w * 64);
    }
    detail::column_counts_words(rows_a, rows_b, n_rows, w, n_bits, counts);
}

void fused_hamming_scores(const Word* const* rows_a, const Word* const* rows_b,
                          std::size_t n_rows, const Word* const* class_rows,
                          std::size_t n_classes, std::size_t n_words, TieResolver ties,
                          void* tie_ctx, std::uint64_t* distances) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) distances[c] = 0;
    if (n_rows == 0) return;
    const auto n_planes = static_cast<std::size_t>(64 - __builtin_clzll(n_rows));
    const Word threshold = n_rows / 2;
    const bool can_tie = (n_rows % 2) == 0 && ties != nullptr;
    std::size_t w = 0;
    for (; w + 4 <= n_words; w += 4) {
        __m256i planes[16];
        count_planes(rows_a, rows_b, n_rows, n_planes, w, planes);
        // Bit-sliced count > / == threshold, MSB plane first.
        __m256i gt = _mm256_setzero_si256();
        __m256i eq = _mm256_set1_epi64x(-1);
        for (std::size_t p = n_planes; p-- > 0;) {
            if (((threshold >> p) & 1u) != 0) {
                eq = _mm256_and_si256(eq, planes[p]);
            } else {
                gt = _mm256_or_si256(gt, _mm256_and_si256(eq, planes[p]));
                eq = _mm256_andnot_si256(planes[p], eq);
            }
        }
        __m256i query = gt;
        if (can_tie && _mm256_testz_si256(eq, eq) == 0) {
            alignas(32) Word eq_words[4];
            alignas(32) Word tie_words[4];
            _mm256_store_si256(reinterpret_cast<__m256i*>(eq_words), eq);
            for (std::size_t k = 0; k < 4; ++k) {
                tie_words[k] =
                    eq_words[k] == 0 ? 0 : (ties(tie_ctx, eq_words[k], w + k) & eq_words[k]);
            }
            query = _mm256_or_si256(query,
                                    _mm256_load_si256(reinterpret_cast<const __m256i*>(tie_words)));
        }
        for (std::size_t c = 0; c < n_classes; ++c) {
            const __m256i x = _mm256_xor_si256(
                query, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(class_rows[c] + w)));
            distances[c] += static_cast<std::uint64_t>(reduce_epi64(popcount_bytes_sad(x)));
        }
    }
    detail::fused_hamming_words(rows_a, rows_b, n_rows, class_rows, n_classes, w, n_words, ties,
                                tie_ctx, distances);
}

/// dots[g] = query . rows[g] for G rows in one pass over the query.
/// vpmuldq multiplies the signed low halves of the 64-bit lanes, so each
/// 8-lane step takes the even int32 lanes directly and the odd ones after a
/// 32-bit shift: exact int64 products, summed in wrapping int64 lanes.
template <std::size_t G>
void dot_group(const std::int32_t* query, const std::int32_t* const* rows, std::size_t n,
               std::int64_t* dots) noexcept {
    __m256i even[G];
    __m256i odd[G];
    for (std::size_t g = 0; g < G; ++g) even[g] = odd[g] = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i q = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(query + i));
        const __m256i q_odd = _mm256_srli_epi64(q, 32);
        for (std::size_t g = 0; g < G; ++g) {
            const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows[g] + i));
            even[g] = _mm256_add_epi64(even[g], _mm256_mul_epi32(q, v));
            odd[g] = _mm256_add_epi64(odd[g], _mm256_mul_epi32(q_odd, _mm256_srli_epi64(v, 32)));
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        std::uint64_t sum = reduce_epi64(_mm256_add_epi64(even[g], odd[g]));
        for (std::size_t t = i; t < n; ++t) {
            sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(query[t]) * rows[g][t]);
        }
        dots[g] = static_cast<std::int64_t>(sum);
    }
}

void dot_scores(const std::int32_t* query, const std::int32_t* const* class_rows,
                std::size_t n_classes, std::size_t n, std::int64_t* dots) noexcept {
    std::size_t c = 0;
    for (; c + 4 <= n_classes; c += 4) dot_group<4>(query, class_rows + c, n, dots + c);
    for (; c < n_classes; ++c) dot_group<1>(query, class_rows + c, n, dots + c);
}

constexpr KernelBackend kBackend{
    Backend::avx2, "avx2",         &xor_into,             &popcount,
    &hamming,      &column_counts, &fused_hamming_scores, &dot_scores,
};

}  // namespace

const KernelBackend* avx2_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // !defined(__AVX2__)

namespace hdlock::util::kernels {

const KernelBackend* avx2_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
