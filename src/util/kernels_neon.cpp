/// \file kernels_neon.cpp
/// The ARM NEON (Advanced SIMD) kernel backend: 128-bit words, vcntq_u8 +
/// the vpaddlq widening chain for population counts, veor/vand/vorr for the
/// carry-save steps, vtstq_u8 byte masks for the count-plane unpack, and
/// vmlal_s32 for exact int64 dot products.
///
/// Advanced SIMD is architecturally baseline on AArch64, so unlike the x86
/// TUs this file needs no per-file -m flags — it simply self-gates on
/// __ARM_NEON and compiles to the nullptr stub elsewhere (x86 builds, or
/// 32-bit ARM without NEON).  Same ODR discipline as kernels_avx2.cpp:
/// everything except the vector-free neon_backend() accessor has internal
/// linkage, and scalar tails route through the baseline-compiled
/// kernels::detail helpers.

#include "util/kernels.hpp"

#if defined(__aarch64__) && defined(__ARM_NEON)

#include <arm_neon.h>

namespace hdlock::util::kernels {

namespace {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        vst1q_u64(dst + w, veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w)));
    }
    for (; w < n; ++w) dst[w] = a[w] ^ b[w];
}

/// Per-lane popcount of a 128-bit vector, widened to two u64 partial sums.
uint64x2_t popcount_pairs(uint64x2_t v) noexcept {
    return vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(vcntq_u8(vreinterpretq_u8_u64(v)))));
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        acc = vaddq_u64(acc, popcount_pairs(vld1q_u64(words + w)));
    }
    std::size_t total = static_cast<std::size_t>(vaddvq_u64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    uint64x2_t acc = vdupq_n_u64(0);
    std::size_t w = 0;
    for (; w + 2 <= n; w += 2) {
        acc = vaddq_u64(acc, popcount_pairs(veorq_u64(vld1q_u64(a + w), vld1q_u64(b + w))));
    }
    std::size_t total = static_cast<std::size_t>(vaddvq_u64(acc));
    for (; w < n; ++w) total += static_cast<std::size_t>(__builtin_popcountll(a[w] ^ b[w]));
    return total;
}

/// sum = a ^ b ^ c.
uint64x2_t csa_sum(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
    return veorq_u64(veorq_u64(a, b), c);
}

/// carry = (a&b) | ((a^b)&c) — the CSA carry of the portable kernels.
uint64x2_t csa_carry(uint64x2_t a, uint64x2_t b, uint64x2_t c) noexcept {
    return vorrq_u64(vandq_u64(a, b), vandq_u64(veorq_u64(a, b), c));
}

/// Row r's words at `w`, bound on load: rows_a[r] ^ rows_b[r].
uint64x2_t load_row(const Word* const* rows_a, const Word* const* rows_b, std::size_t r,
                    std::size_t w) noexcept {
    return veorq_u64(vld1q_u64(rows_a[r] + w), vld1q_u64(rows_b[r] + w));
}

/// The Harley–Seal block shared by column_counts and fused_hamming_scores:
/// leaves in planes[0, n_planes) the bit-sliced counts of the two words at
/// `w` over the n_rows rows.  Up to 16 count planes + ones/twos/fours + CSA
/// temps fit the 32-register NEON file.
/// Forced inline with the planes as a 16-element array so the compiler
/// sees the plane bound (see kernels_avx512.cpp).
[[gnu::always_inline]] inline void count_planes(const Word* const* rows_a,
                                                const Word* const* rows_b, std::size_t n_rows,
                                                std::size_t n_planes, std::size_t w,
                                                uint64x2_t (&planes)[16]) noexcept {
    for (std::size_t p = 0; p < n_planes; ++p) planes[p] = vdupq_n_u64(0);
    uint64x2_t ones = vdupq_n_u64(0);
    uint64x2_t twos = vdupq_n_u64(0);
    uint64x2_t fours = vdupq_n_u64(0);
    std::size_t r = 0;
    for (; r + 8 <= n_rows; r += 8) {
        const uint64x2_t x0 = load_row(rows_a, rows_b, r + 0, w);
        const uint64x2_t x1 = load_row(rows_a, rows_b, r + 1, w);
        const uint64x2_t twos_a = csa_carry(ones, x0, x1);
        ones = csa_sum(ones, x0, x1);
        const uint64x2_t x2 = load_row(rows_a, rows_b, r + 2, w);
        const uint64x2_t x3 = load_row(rows_a, rows_b, r + 3, w);
        const uint64x2_t twos_b = csa_carry(ones, x2, x3);
        ones = csa_sum(ones, x2, x3);
        const uint64x2_t fours_a = csa_carry(twos, twos_a, twos_b);
        twos = csa_sum(twos, twos_a, twos_b);
        const uint64x2_t x4 = load_row(rows_a, rows_b, r + 4, w);
        const uint64x2_t x5 = load_row(rows_a, rows_b, r + 5, w);
        const uint64x2_t twos_c = csa_carry(ones, x4, x5);
        ones = csa_sum(ones, x4, x5);
        const uint64x2_t x6 = load_row(rows_a, rows_b, r + 6, w);
        const uint64x2_t x7 = load_row(rows_a, rows_b, r + 7, w);
        const uint64x2_t twos_d = csa_carry(ones, x6, x7);
        ones = csa_sum(ones, x6, x7);
        const uint64x2_t fours_b = csa_carry(twos, twos_c, twos_d);
        twos = csa_sum(twos, twos_c, twos_d);
        uint64x2_t carry = csa_carry(fours, fours_a, fours_b);
        fours = csa_sum(fours, fours_a, fours_b);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const uint64x2_t sum = veorq_u64(planes[p], carry);
            carry = vandq_u64(planes[p], carry);
            planes[p] = sum;
        }
    }
    for (; r < n_rows; ++r) {
        const uint64x2_t x = load_row(rows_a, rows_b, r, w);
        uint64x2_t carry = vandq_u64(ones, x);
        ones = veorq_u64(ones, x);
        const uint64x2_t c2 = vandq_u64(twos, carry);
        twos = veorq_u64(twos, carry);
        carry = vandq_u64(fours, c2);
        fours = veorq_u64(fours, c2);
        for (std::size_t p = 3; p < n_planes; ++p) {
            const uint64x2_t sum = veorq_u64(planes[p], carry);
            carry = vandq_u64(planes[p], carry);
            planes[p] = sum;
        }
    }
    const uint64x2_t carries[3] = {ones, twos, fours};
    for (std::size_t start = 0; start < 3; ++start) {
        uint64x2_t carry = carries[start];
        for (std::size_t p = start; p < n_planes; ++p) {
            const uint64x2_t sum = veorq_u64(planes[p], carry);
            carry = vandq_u64(planes[p], carry);
            planes[p] = sum;
        }
    }
}

/// counts[0, 4) += the four uint32 lanes of v.
void add_counts4(std::int32_t* counts, uint32x4_t v) noexcept {
    vst1q_s32(counts, vaddq_s32(vld1q_s32(counts), vreinterpretq_s32_u32(v)));
}

/// Adds one block's 128 column counts onto counts[0, 128).  Per 16-column
/// chunk, every plane word spreads to one byte per column (two byte
/// broadcasts, then vtst against the per-byte bit), weighted into a low
/// (planes 0-7) and a high (planes 8-15) byte of the count; zipping the two
/// bytes yields 16-bit counts, which widen to int32.
[[gnu::always_inline]] inline void add_block_counts(const uint64x2_t (&planes)[16],
                                                   std::size_t n_planes,
                                                   std::int32_t* counts) noexcept {
    Word words[16][2];
    for (std::size_t p = 0; p < n_planes; ++p) vst1q_u64(words[p], planes[p]);
    static constexpr std::uint8_t kBits[16] = {1, 2, 4, 8, 16, 32, 64, 128,
                                               1, 2, 4, 8, 16, 32, 64, 128};
    const uint8x16_t bit = vld1q_u8(kBits);
    for (std::size_t k = 0; k < 2; ++k) {
        for (std::size_t chunk = 0; chunk < 4; ++chunk) {
            uint8x16_t low = vdupq_n_u8(0);
            uint8x16_t high = vdupq_n_u8(0);
            for (std::size_t p = 0; p < n_planes; ++p) {
                const Word bits16 = words[p][k] >> (16 * chunk);
                const uint8x16_t x = vcombine_u8(vdup_n_u8(static_cast<std::uint8_t>(bits16)),
                                                 vdup_n_u8(static_cast<std::uint8_t>(bits16 >> 8)));
                const uint8x16_t weighted = vandq_u8(
                    vtstq_u8(x, bit), vdupq_n_u8(static_cast<std::uint8_t>(1u << (p % 8))));
                if (p < 8) {
                    low = vorrq_u8(low, weighted);
                } else {
                    high = vorrq_u8(high, weighted);
                }
            }
            const uint16x8_t first = vreinterpretq_u16_u8(vzip1q_u8(low, high));
            const uint16x8_t second = vreinterpretq_u16_u8(vzip2q_u8(low, high));
            std::int32_t* out = counts + k * 64 + chunk * 16;
            add_counts4(out, vmovl_u16(vget_low_u16(first)));
            add_counts4(out + 4, vmovl_u16(vget_high_u16(first)));
            add_counts4(out + 8, vmovl_u16(vget_low_u16(second)));
            add_counts4(out + 12, vmovl_u16(vget_high_u16(second)));
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
    for (; w + 2 <= full_words; w += 2) {
        uint64x2_t planes[16];
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
    for (; w + 2 <= n_words; w += 2) {
        uint64x2_t planes[16];
        count_planes(rows_a, rows_b, n_rows, n_planes, w, planes);
        // Bit-sliced count > / == threshold, MSB plane first.
        uint64x2_t gt = vdupq_n_u64(0);
        uint64x2_t eq = vdupq_n_u64(~Word{0});
        for (std::size_t p = n_planes; p-- > 0;) {
            if (((threshold >> p) & 1u) != 0) {
                eq = vandq_u64(eq, planes[p]);
            } else {
                gt = vorrq_u64(gt, vandq_u64(eq, planes[p]));
                eq = vbicq_u64(eq, planes[p]);
            }
        }
        uint64x2_t query = gt;
        if (can_tie) {
            const Word eq0 = vgetq_lane_u64(eq, 0);
            const Word eq1 = vgetq_lane_u64(eq, 1);
            if ((eq0 | eq1) != 0) {
                const Word tie0 = eq0 == 0 ? 0 : (ties(tie_ctx, eq0, w + 0) & eq0);
                const Word tie1 = eq1 == 0 ? 0 : (ties(tie_ctx, eq1, w + 1) & eq1);
                query = vorrq_u64(query, vcombine_u64(vcreate_u64(tie0), vcreate_u64(tie1)));
            }
        }
        for (std::size_t c = 0; c < n_classes; ++c) {
            const uint64x2_t x = veorq_u64(query, vld1q_u64(class_rows[c] + w));
            distances[c] += static_cast<std::uint64_t>(vaddvq_u64(popcount_pairs(x)));
        }
    }
    detail::fused_hamming_words(rows_a, rows_b, n_rows, class_rows, n_classes, w, n_words, ties,
                                tie_ctx, distances);
}

/// dots[g] = query . rows[g] for G rows in one pass over the query:
/// vmlal_s32 / vmlal_high_s32 multiply-accumulate the low and high int32
/// pairs into exact int64 lanes, summed with wrapping adds.
template <std::size_t G>
void dot_group(const std::int32_t* query, const std::int32_t* const* rows, std::size_t n,
               std::int64_t* dots) noexcept {
    int64x2_t low[G];
    int64x2_t high[G];
    for (std::size_t g = 0; g < G; ++g) low[g] = high[g] = vdupq_n_s64(0);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const int32x4_t q = vld1q_s32(query + i);
        for (std::size_t g = 0; g < G; ++g) {
            const int32x4_t v = vld1q_s32(rows[g] + i);
            low[g] = vmlal_s32(low[g], vget_low_s32(q), vget_low_s32(v));
            high[g] = vmlal_high_s32(high[g], q, v);
        }
    }
    for (std::size_t g = 0; g < G; ++g) {
        // Reduced through unsigned lanes: the sum may wrap.
        std::uint64_t sum = vaddvq_u64(
            vaddq_u64(vreinterpretq_u64_s64(low[g]), vreinterpretq_u64_s64(high[g])));
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
    Backend::neon, "neon",         &xor_into,             &popcount,
    &hamming,      &column_counts, &fused_hamming_scores, &dot_scores,
};

}  // namespace

const KernelBackend* neon_backend() noexcept { return &kBackend; }

}  // namespace hdlock::util::kernels

#else  // not an AArch64 NEON target

namespace hdlock::util::kernels {

const KernelBackend* neon_backend() noexcept { return nullptr; }

}  // namespace hdlock::util::kernels

#endif
