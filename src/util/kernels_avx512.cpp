/// \file kernels_avx512.cpp
/// The AVX-512 kernel backend: 512-bit words, vpternlogq for the carry-save
/// sum (A^B^C, imm 0x96) and majority (carry, imm 0xE8) in one instruction
/// each, the native vpopcntq for population counts, AVX-512BW lane masks
/// for the count-plane unpack, and vpmuldq for exact int64 dot products.
///
/// The last, partial block of column_counts and fused_hamming_scores runs
/// through the same Harley–Seal tree as the full ones, under AVX-512 load
/// masks (and masked count stores), so no word goes through the scalar
/// kernels::detail helpers.
///
/// Compiled with -mavx512f -mavx512bw -mavx512vpopcntdq (per-file, see
/// CMakeLists.txt); selected at runtime only when CPUID reports all three
/// features.  Same ODR discipline as kernels_avx2.cpp: everything except the
/// vector-free avx512_backend() accessor has internal linkage.

#include "util/kernels.hpp"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VPOPCNTDQ__)

#include <immintrin.h>

// GCC's avx512fintrin.h implements unmasked intrinsics (srlv & friends) by
// passing _mm512_undefined_epi32() as the masked-out source operand, which
// trips -Wuninitialized/-Wmaybe-uninitialized under -Wall (GCC PR105593).
// The warning is about the header's deliberate "undefined" value, not code
// in this file; suppress it file-wide so the -Werror CI gate stays usable.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i va = _mm512_loadu_si512(a + w);
        const __m512i vb = _mm512_loadu_si512(b + w);
        _mm512_storeu_si512(dst + w, _mm512_xor_si512(va, vb));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(_mm512_loadu_si512(words + w)));
    }
    std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    __m512i acc = _mm512_setzero_si512();
    std::size_t w = 0;
    for (; w + 8 <= n; w += 8) {
        const __m512i x = _mm512_xor_si512(_mm512_loadu_si512(a + w), _mm512_loadu_si512(b + w));
        acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
    }
    std::size_t total = static_cast<std::size_t>(_mm512_reduce_add_epi64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// sum = a ^ b ^ c.
__m512i csa_sum(__m512i a, __m512i b, __m512i c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0x96);
}

/// carry = majority(a, b, c) = (a&b) | (a&c) | (b&c) — exactly the CSA
/// carry (s&x) | ((s^x)&y) of the portable kernels.
__m512i csa_carry(__m512i a, __m512i b, __m512i c) noexcept {
    return _mm512_ternarylogic_epi64(a, b, c, 0xE8);
}

/// The eight words of `row` at `w`.  A masked load reads only the words
/// whose bit is set in `lanes` and zeroes the rest, so a block may run past
/// the end of a row: the kernels' last, partial block.  Full blocks keep
/// the plain load, which the compiler folds into the consuming XOR.
template <bool kMasked>
[[gnu::always_inline]] inline __m512i load_words(const Word* row, std::size_t w,
                                                 [[maybe_unused]] __mmask8 lanes) noexcept {
    if constexpr (kMasked) {
        return _mm512_maskz_loadu_epi64(lanes, row + w);
    } else {
        return _mm512_loadu_si512(row + w);
    }
}

/// Row r's words at `w`, bound on load: rows_a[r] ^ rows_b[r].
template <bool kMasked>
[[gnu::always_inline]] inline __m512i load_row(const Word* const* rows_a,
                                               const Word* const* rows_b, std::size_t r,
                                               std::size_t w, __mmask8 lanes) noexcept {
    return _mm512_xor_si512(load_words<kMasked>(rows_a[r], w, lanes),
                            load_words<kMasked>(rows_b[r], w, lanes));
}

/// The Harley–Seal block shared by column_counts and fused_hamming_scores:
/// leaves in planes[0, n_planes) the bit-sliced counts of the eight words
/// at `w` over the n_rows rows (masked: of the words in `lanes`; the other
/// lanes count zero).  n_planes + ones/twos/fours + CSA temps stay within
/// the 32-register file up to ~1k rows (see DESIGN.md §11).  Forced
/// inline, with the planes passed as a 16-element array: GCC then sees the
/// bound, peels the plane loops completely and keeps the planes in
/// registers.  Through a pointer they stay in memory, which measured ~10%
/// slower on the fused MNIST-shape predict.
template <bool kMasked>
[[gnu::always_inline]] inline void count_planes(const Word* const* rows_a,
                                                const Word* const* rows_b, std::size_t n_rows,
                                                std::size_t n_planes, std::size_t w,
                                                __mmask8 lanes, __m512i (&planes)[16]) noexcept {
    for (std::size_t p = 0; p < n_planes; ++p) planes[p] = _mm512_setzero_si512();
    __m512i ones = _mm512_setzero_si512();
    __m512i twos = _mm512_setzero_si512();
    __m512i fours = _mm512_setzero_si512();
    std::size_t r = 0;
    for (; r + 8 <= n_rows; r += 8) {
        const __m512i x0 = load_row<kMasked>(rows_a, rows_b, r + 0, w, lanes);
        const __m512i x1 = load_row<kMasked>(rows_a, rows_b, r + 1, w, lanes);
        const __m512i twos_a = csa_carry(ones, x0, x1);
        ones = csa_sum(ones, x0, x1);
        const __m512i x2 = load_row<kMasked>(rows_a, rows_b, r + 2, w, lanes);
        const __m512i x3 = load_row<kMasked>(rows_a, rows_b, r + 3, w, lanes);
        const __m512i twos_b = csa_carry(ones, x2, x3);
        ones = csa_sum(ones, x2, x3);
        const __m512i fours_a = csa_carry(twos, twos_a, twos_b);
        twos = csa_sum(twos, twos_a, twos_b);
        const __m512i x4 = load_row<kMasked>(rows_a, rows_b, r + 4, w, lanes);
        const __m512i x5 = load_row<kMasked>(rows_a, rows_b, r + 5, w, lanes);
        const __m512i twos_c = csa_carry(ones, x4, x5);
        ones = csa_sum(ones, x4, x5);
        const __m512i x6 = load_row<kMasked>(rows_a, rows_b, r + 6, w, lanes);
        const __m512i x7 = load_row<kMasked>(rows_a, rows_b, r + 7, w, lanes);
        const __m512i twos_d = csa_carry(ones, x6, x7);
        ones = csa_sum(ones, x6, x7);
        const __m512i fours_b = csa_carry(twos, twos_c, twos_d);
        twos = csa_sum(twos, twos_c, twos_d);
        __m512i carry = csa_carry(fours, fours_a, fours_b);
        fours = csa_sum(fours, fours_a, fours_b);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const __m512i sum = _mm512_xor_si512(planes[p], carry);
            carry = _mm512_and_si512(planes[p], carry);
            planes[p] = sum;
        }
    }
    for (; r < n_rows; ++r) {
        const __m512i x = load_row<kMasked>(rows_a, rows_b, r, w, lanes);
        __m512i carry = _mm512_and_si512(ones, x);
        ones = _mm512_xor_si512(ones, x);
        const __m512i c2 = _mm512_and_si512(twos, carry);
        twos = _mm512_xor_si512(twos, carry);
        carry = _mm512_and_si512(fours, c2);
        fours = _mm512_xor_si512(fours, c2);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const __m512i sum = _mm512_xor_si512(planes[p], carry);
            carry = _mm512_and_si512(planes[p], carry);
            planes[p] = sum;
        }
    }
    const __m512i carries[3] = {ones, twos, fours};
    for (std::size_t start = 0; start < 3; ++start) {
        __m512i carry = carries[start];
        for (std::size_t p = start; p < n_planes; ++p) {
            const __m512i sum = _mm512_xor_si512(planes[p], carry);
            carry = _mm512_and_si512(planes[p], carry);
            planes[p] = sum;
        }
    }
}

/// The lanes of the 16 int32 columns from `first` that lie below `n_columns`.
__mmask16 column_lanes(std::size_t first, std::size_t n_columns) noexcept {
    if (first >= n_columns) return 0;
    const std::size_t n = n_columns - first;
    return n >= 16 ? __mmask16{0xFFFF} : static_cast<__mmask16>((1u << n) - 1);
}

/// Adds one block's column counts onto counts[0, 512) (masked: onto
/// counts[0, n_columns) only; masked loads and stores touch no column at or
/// past n_columns).  Each 32-column half-word of plane p is an AVX-512BW
/// lane mask adding 2^p into 16-bit lanes (counts fit 16 bits, see
/// kMaxFusedRows); the 16-bit sums then widen to int32.
template <bool kMasked>
[[gnu::always_inline]] inline void add_block_counts(const __m512i (&planes)[16],
                                                   std::size_t n_planes,
                                                   std::size_t n_columns,
                                                   std::int32_t* counts) noexcept {
    alignas(64) Word words[16][8];
    for (std::size_t p = 0; p < n_planes; ++p) _mm512_store_si512(words[p], planes[p]);
    for (std::size_t k = 0; k < 8; ++k) {
        for (std::size_t half = 0; half < 2; ++half) {
            const std::size_t first = k * 64 + half * 32;
            if (kMasked && first >= n_columns) return;
            __m512i sum = _mm512_setzero_si512();
            for (std::size_t p = 0; p < n_planes; ++p) {
                const auto lanes = static_cast<__mmask32>(words[p][k] >> (32 * half));
                sum = _mm512_mask_add_epi16(sum, lanes, sum,
                                            _mm512_set1_epi16(static_cast<short>(1u << p)));
            }
            std::int32_t* out = counts + first;
            const __m512i lo = _mm512_cvtepu16_epi32(_mm512_castsi512_si256(sum));
            const __m512i hi = _mm512_cvtepu16_epi32(_mm512_extracti64x4_epi64(sum, 1));
            if constexpr (kMasked) {
                const __mmask16 lo_lanes = column_lanes(first, n_columns);
                const __mmask16 hi_lanes = column_lanes(first + 16, n_columns);
                _mm512_mask_storeu_epi32(
                    out, lo_lanes, _mm512_add_epi32(_mm512_maskz_loadu_epi32(lo_lanes, out), lo));
                _mm512_mask_storeu_epi32(
                    out + 16, hi_lanes,
                    _mm512_add_epi32(_mm512_maskz_loadu_epi32(hi_lanes, out + 16), hi));
            } else {
                _mm512_storeu_si512(out, _mm512_add_epi32(_mm512_loadu_si512(out), lo));
                _mm512_storeu_si512(out + 16,
                                    _mm512_add_epi32(_mm512_loadu_si512(out + 16), hi));
            }
        }
    }
}

/// The lanes of the words [w, n_words) of the last block, which holds
/// between one and eight of them.
__mmask8 tail_lanes(std::size_t w, std::size_t n_words) noexcept {
    return static_cast<__mmask8>((1u << (n_words - w)) - 1);
}

void column_counts(const Word* const* rows_a, const Word* const* rows_b, std::size_t n_rows,
                   std::size_t n_bits, std::int32_t* counts) noexcept {
    if (n_rows == 0) return;
    const auto n_planes = static_cast<std::size_t>(64 - __builtin_clzll(n_rows));
    // Full blocks cover whole words only.  The last block takes the rest,
    // the partial last word included, whose columns past n_bits have no
    // count slot.
    const std::size_t full_words = n_bits / 64;
    const std::size_t n_words = (n_bits + 63) / 64;
    std::size_t w = 0;
    for (; w + 8 <= full_words; w += 8) {
        __m512i planes[16];
        count_planes<false>(rows_a, rows_b, n_rows, n_planes, w, 0xFF, planes);
        add_block_counts<false>(planes, n_planes, 512, counts + w * 64);
    }
    if (w < n_words) {
        __m512i planes[16];
        count_planes<true>(rows_a, rows_b, n_rows, n_planes, w, tail_lanes(w, n_words), planes);
        add_block_counts<true>(planes, n_planes, n_bits - w * 64, counts + w * 64);
    }
}

/// One fused block: counts the words at `w` (masked: the words in `lanes`),
/// binarizes them against n_rows / 2, resolves ties and adds every class's
/// Hamming distance over the block.  A masked-off word counts zero, never
/// above the threshold, its eq lanes are cleared and its class words load
/// as zero, so it adds no distance and no tie call.
template <bool kMasked>
[[gnu::always_inline]] inline void fused_block(const Word* const* rows_a,
                                               const Word* const* rows_b, std::size_t n_rows,
                                               const Word* const* class_rows,
                                               std::size_t n_classes, TieResolver ties,
                                               void* tie_ctx, std::size_t w, __mmask8 lanes,
                                               std::uint64_t* distances) noexcept {
    const auto n_planes = static_cast<std::size_t>(64 - __builtin_clzll(n_rows));
    const Word threshold = n_rows / 2;
    const bool can_tie = (n_rows % 2) == 0 && ties != nullptr;
    __m512i planes[16];
    count_planes<kMasked>(rows_a, rows_b, n_rows, n_planes, w, lanes, planes);
    // Bit-sliced count > / == threshold, MSB plane first.
    __m512i gt = _mm512_setzero_si512();
    __m512i eq = _mm512_set1_epi64(-1);
    for (std::size_t p = n_planes; p-- > 0;) {
        if (((threshold >> p) & 1u) != 0) {
            eq = _mm512_and_si512(eq, planes[p]);
        } else {
            gt = _mm512_or_si512(gt, _mm512_and_si512(eq, planes[p]));
            eq = _mm512_andnot_si512(planes[p], eq);
        }
    }
    if constexpr (kMasked) eq = _mm512_maskz_mov_epi64(lanes, eq);
    __m512i query = gt;
    if (can_tie && _mm512_test_epi64_mask(eq, eq) != 0) {
        alignas(64) Word eq_words[8];
        alignas(64) Word tie_words[8];
        _mm512_store_si512(eq_words, eq);
        for (std::size_t k = 0; k < 8; ++k) {
            tie_words[k] =
                eq_words[k] == 0 ? 0 : (ties(tie_ctx, eq_words[k], w + k) & eq_words[k]);
        }
        query = _mm512_or_si512(query, _mm512_load_si512(tie_words));
    }
    for (std::size_t c = 0; c < n_classes; ++c) {
        const __m512i x = _mm512_xor_si512(query, load_words<kMasked>(class_rows[c], w, lanes));
        distances[c] +=
            static_cast<std::uint64_t>(_mm512_reduce_add_epi64(_mm512_popcnt_epi64(x)));
    }
}

void fused_hamming_scores(const Word* const* rows_a, const Word* const* rows_b,
                          std::size_t n_rows, const Word* const* class_rows,
                          std::size_t n_classes, std::size_t n_words, TieResolver ties,
                          void* tie_ctx, std::uint64_t* distances) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) distances[c] = 0;
    if (n_rows == 0) return;
    std::size_t w = 0;
    for (; w + 8 <= n_words; w += 8) {
        fused_block<false>(rows_a, rows_b, n_rows, class_rows, n_classes, ties, tie_ctx, w, 0xFF,
                           distances);
    }
    if (w < n_words) {
        fused_block<true>(rows_a, rows_b, n_rows, class_rows, n_classes, ties, tie_ctx, w,
                          tail_lanes(w, n_words), distances);
    }
}

/// dots[g] = query . rows[g] for G rows in one pass over the query.  vpmuldq
/// multiplies the signed low halves of the 64-bit lanes, so each 16-lane
/// step takes the even int32 lanes directly and the odd ones after a 32-bit
/// shift: exact int64 products, summed in wrapping int64 lanes.
template <std::size_t G>
void dot_group(const std::int32_t* query, const std::int32_t* const* rows, std::size_t n,
               std::int64_t* dots) noexcept {
    __m512i even[G];
    __m512i odd[G];
    for (std::size_t g = 0; g < G; ++g) even[g] = odd[g] = _mm512_setzero_si512();
    std::size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512i q = _mm512_loadu_si512(query + i);
        const __m512i q_odd = _mm512_srli_epi64(q, 32);
        for (std::size_t g = 0; g < G; ++g) {
            const __m512i v = _mm512_loadu_si512(rows[g] + i);
            even[g] = _mm512_add_epi64(even[g], _mm512_mul_epi32(q, v));
            odd[g] = _mm512_add_epi64(odd[g], _mm512_mul_epi32(q_odd, _mm512_srli_epi64(v, 32)));
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        // Reduced through unsigned lanes: the sum may wrap, and the header's
        // _mm512_reduce_add_epi64 adds signed lanes in C++.
        alignas(64) std::uint64_t lanes[8];
        _mm512_store_si512(lanes, _mm512_add_epi64(even[g], odd[g]));
        std::uint64_t sum = 0;
        for (const std::uint64_t lane : lanes) sum += lane;
        for (std::size_t t = i; t < n; ++t) {
            sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(query[t]) * rows[g][t]);
        }
        dots[g] = static_cast<std::int64_t>(sum);
    }
}

void dot_scores(const std::int32_t* query, const std::int32_t* const* class_rows,
                std::size_t n_classes, std::size_t n, std::int64_t* dots) noexcept {
    std::size_t c = 0;
    for (; c + 8 <= n_classes; c += 8) dot_group<8>(query, class_rows + c, n, dots + c);
    for (; c < n_classes; ++c) dot_group<1>(query, class_rows + c, n, dots + c);
}

constexpr KernelBackend kBackend{
    Backend::avx512, "avx512",       &xor_into,          &popcount,
    &hamming,        &column_counts, &fused_hamming_scores, &dot_scores,
};

}  // namespace

const KernelBackend* avx512_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // missing AVX-512 feature set

namespace hdlock::util::kernels {

const KernelBackend* avx512_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
