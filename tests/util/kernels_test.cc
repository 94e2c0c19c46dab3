// Cross-backend bit-equality tests for the runtime-dispatched SIMD kernel
// layer (src/util/kernels.*).  Every ISA backend must agree with portable
// and with the naive references on every input — including odd tail lengths
// (word counts that are not a multiple of the vector width) and row counts
// up to and past the per-call cap — and the selection machinery (parse /
// choose / set / scoped restore) must behave.  The column-count tests check
// column_counts against the naive reference of src/util/bitslice.*, with
// row pairs (bound on load, the only form the kernels take) split over calls
// that accumulate into one count buffer the way Encoder::encode_into splits
// feature counts above kMaxFusedRows; a test that needs the counts of plain
// rows pairs each with an all-zero row.  (The ColumnCounter suite names
// predate column_counts; they name that path.)
// Backends the host cannot run are skipped cleanly, so the suite is green on
// any machine.

#include "util/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iterator>
#include <limits>
#include <span>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "util/bitslice.hpp"
#include "util/bitvec.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace kernels = hdlock::util::kernels;
namespace bits = hdlock::util::bits;
using hdlock::ConfigError;
using hdlock::ContractViolation;
using hdlock::util::Xoshiro256ss;
using kernels::Backend;
using kernels::KernelBackend;
using Word = kernels::Word;

namespace {

/// The ISA backends runnable on this host (excludes portable).
std::vector<const KernelBackend*> simd_backends() {
    std::vector<const KernelBackend*> backends;
    if (kernels::available(Backend::neon)) backends.push_back(kernels::neon_backend());
    if (kernels::available(Backend::avx2)) backends.push_back(kernels::avx2_backend());
    if (kernels::available(Backend::avx512)) backends.push_back(kernels::avx512_backend());
    return backends;
}

/// Every backend runnable on this host, portable first.
std::vector<const KernelBackend*> all_available() {
    std::vector<const KernelBackend*> backends{&kernels::portable_backend()};
    for (const KernelBackend* backend : simd_backends()) backends.push_back(backend);
    return backends;
}

std::vector<Word> random_words(std::size_t n, Xoshiro256ss& rng) {
    std::vector<Word> words(n);
    for (auto& word : words) word = rng();
    return words;
}

// Word counts around every vector-width boundary: scalar-only, exactly one
// AVX2 vector (4), one AVX-512 vector (8), multiples, and odd tails.
const std::size_t kWordCounts[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17, 31, 157};

}  // namespace

TEST(Kernels, ParseAndNames) {
    EXPECT_EQ(kernels::parse_backend("portable"), Backend::portable);
    EXPECT_EQ(kernels::parse_backend("neon"), Backend::neon);
    EXPECT_EQ(kernels::parse_backend("avx2"), Backend::avx2);
    EXPECT_EQ(kernels::parse_backend("avx512"), Backend::avx512);
    EXPECT_EQ(kernels::parse_backend("AVX2"), std::nullopt);
    EXPECT_EQ(kernels::parse_backend(""), std::nullopt);
    for (const Backend kind : kernels::all_backends()) {
        EXPECT_EQ(kernels::parse_backend(kernels::backend_name(kind)), kind);
    }
}

TEST(Kernels, AllBackendsRosterAndCompiled) {
    const auto all = kernels::all_backends();
    EXPECT_EQ(all.size(), 4u);
    EXPECT_TRUE(kernels::compiled(Backend::portable));
    // available == compiled into this binary AND runnable on this CPU.
    for (const Backend kind : kernels::available_backends()) {
        EXPECT_TRUE(kernels::compiled(kind)) << kernels::backend_name(kind);
        EXPECT_TRUE(kernels::cpu_supports(kind)) << kernels::backend_name(kind);
    }
#if defined(__aarch64__) && defined(__ARM_NEON)
    EXPECT_TRUE(kernels::compiled(Backend::neon));
    EXPECT_TRUE(kernels::available(Backend::neon));
#else
    EXPECT_FALSE(kernels::compiled(Backend::neon));
    EXPECT_FALSE(kernels::available(Backend::neon));
#endif
}

TEST(Kernels, PortableAlwaysAvailable) {
    EXPECT_TRUE(kernels::available(Backend::portable));
    ASSERT_FALSE(kernels::available_backends().empty());
    EXPECT_EQ(kernels::available_backends().front(), Backend::portable);
}

TEST(Kernels, ChooseBackendHonorsRequestAndDegrades) {
    const Backend best = kernels::available_backends().back();
    // Unset / unknown values degrade to the best available, never throw.
    EXPECT_EQ(kernels::choose_backend(""), best);
    EXPECT_EQ(kernels::choose_backend("bogus"), best);
    // An available explicit request is honored.
    EXPECT_EQ(kernels::choose_backend("portable"), Backend::portable);
    for (const Backend kind : kernels::available_backends()) {
        EXPECT_EQ(kernels::choose_backend(kernels::backend_name(kind)), kind);
    }
    // An unavailable explicit request degrades instead of failing startup.
    if (!kernels::available(Backend::avx512)) {
        EXPECT_EQ(kernels::choose_backend("avx512"), best);
    }
}

TEST(Kernels, SetBackendPinsAndRestores) {
    const Backend original = kernels::active_kind();
    {
        kernels::ScopedBackend pin(Backend::portable);
        EXPECT_EQ(kernels::active_kind(), Backend::portable);
        EXPECT_STREQ(kernels::active_name(), "portable");
    }
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, ScopedBackendReleaseDismissesRestore) {
    const Backend original = kernels::active_kind();
    Backend restore_to = original;
    {
        kernels::ScopedBackend pin(Backend::portable);
        restore_to = pin.release();
        EXPECT_EQ(restore_to, original);
    }
    // release() dismissed the destructor's restore: the pin outlives scope.
    EXPECT_EQ(kernels::active_kind(), Backend::portable);
    kernels::set_backend(restore_to);
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, SetBackendReturnsActualPreviousWhenNested) {
    const Backend original = kernels::active_kind();
    {
        kernels::ScopedBackend outer(Backend::portable);
        const Backend best = kernels::available_backends().back();
        {
            kernels::ScopedBackend inner(best);
            EXPECT_EQ(kernels::active_kind(), best);
        }
        // The inner pin's exchange saw the *outer* pin, not a stale default.
        EXPECT_EQ(kernels::active_kind(), Backend::portable);
    }
    EXPECT_EQ(kernels::active_kind(), original);
}

TEST(Kernels, SetBackendRejectsUnavailable) {
    bool tested = false;
    for (const Backend kind : {Backend::neon, Backend::avx2, Backend::avx512}) {
        if (kernels::available(kind)) continue;
        EXPECT_THROW(kernels::set_backend(kind), ConfigError) << kernels::backend_name(kind);
        tested = true;
    }
    if (!tested) {
        GTEST_SKIP() << "every backend available on this host; rejection untestable";
    }
}

TEST(Kernels, XorPopcountHammingAgreeAcrossBackends) {
    const auto backends = simd_backends();
    if (backends.empty()) GTEST_SKIP() << "no SIMD backend available on this host";
    const KernelBackend& portable = kernels::portable_backend();
    Xoshiro256ss rng(42);
    for (const std::size_t n : kWordCounts) {
        const auto a = random_words(n, rng);
        const auto b = random_words(n, rng);
        std::vector<Word> expected(n, 0);
        portable.xor_into(expected.data(), a.data(), b.data(), n);
        const std::size_t expected_pop = portable.popcount(a.data(), n);
        const std::size_t expected_ham = portable.hamming(a.data(), b.data(), n);
        for (const KernelBackend* backend : backends) {
            std::vector<Word> actual(n, 0);
            backend->xor_into(actual.data(), a.data(), b.data(), n);
            EXPECT_EQ(actual, expected) << backend->name << " n=" << n;
            EXPECT_EQ(backend->popcount(a.data(), n), expected_pop)
                << backend->name << " n=" << n;
            EXPECT_EQ(backend->hamming(a.data(), b.data(), n), expected_ham)
                << backend->name << " n=" << n;
        }
    }
}

namespace {

using Rows = std::vector<std::vector<Word>>;
using RowTable = std::vector<const Word*>;

/// n_rows random rows of n_bits bits with clean tails.
Rows random_rows(std::size_t n_rows, std::size_t n_bits, Xoshiro256ss& rng) {
    Rows rows(n_rows, std::vector<Word>(bits::word_count(n_bits)));
    for (auto& row : rows) bits::fill_random(row, n_bits, rng);
    return rows;
}

RowTable pointers(const Rows& rows) {
    RowTable out;
    for (const auto& row : rows) out.push_back(row.data());
    return out;
}

std::vector<std::int32_t> naive_counts(const Rows& rows, std::size_t n_bits) {
    std::vector<std::int32_t> counts(n_bits, 0);
    for (const auto& row : rows) hdlock::util::naive_accumulate(row, n_bits, counts);
    return counts;
}

/// Adds the column counts of the bound pairs rows_a[r] ^ rows_b[r] onto
/// `counts` through `backend`, in calls of at most `per_call` rows.
void count_columns(const KernelBackend& backend, const RowTable& rows_a, const RowTable& rows_b,
                   std::size_t per_call, std::size_t n_bits, std::vector<std::int32_t>& counts) {
    for (std::size_t first = 0; first < rows_a.size(); first += per_call) {
        const std::size_t n = std::min(per_call, rows_a.size() - first);
        backend.column_counts(rows_a.data() + first, rows_b.data() + first, n, n_bits,
                              counts.data());
    }
}

/// count_columns for plain rows: each row is paired with the all-zero row,
/// the identity of XOR binding, so the counts are those of the rows alone.
void count_plain(const KernelBackend& backend, const RowTable& rows, std::size_t per_call,
                 std::size_t n_bits, std::vector<std::int32_t>& counts) {
    const std::vector<Word> zero(bits::word_count(n_bits), 0);
    count_columns(backend, rows, RowTable(rows.size(), zero.data()), per_call, n_bits, counts);
}

/// Rows laid out in one table whose stride is longer than a row: every
/// row, the last one included, is followed by kGapWords non-zero random
/// words.  A kernel that reads past a row's end (a wrong tail mask) then
/// changes its result, while the read stays inside the table, where ASan
/// would not see it.  kGapWords covers the longest overread of one
/// AVX-512 block.
struct StridedRows {
    static constexpr std::size_t kGapWords = 8;
    std::size_t n_words;
    std::size_t stride;
    std::vector<Word> table;

    /// n_rows random rows of n_bits bits.  A clean row has its bits past
    /// n_bits clear (the fused kernel's contract); a dirty one sets bit 63
    /// of a partial last word plus random others past n_bits, which
    /// column_counts must not count.
    StridedRows(std::size_t n_rows, std::size_t n_bits, Xoshiro256ss& rng, bool dirty_tails = false)
        : n_words(bits::word_count(n_bits)), stride(n_words + kGapWords), table(n_rows * stride) {
        const Word unused = ~bits::tail_mask(n_bits);
        for (std::size_t r = 0; r < n_rows; ++r) {
            const std::span<Word> words = std::span<Word>(table).subspan(r * stride, n_words);
            bits::fill_random(words, n_bits, rng);
            if (dirty_tails && unused != 0) words.back() |= unused & (rng() | Word{1} << 63);
            for (std::size_t g = n_words; g < stride; ++g) table[r * stride + g] = rng() | 1u;
        }
    }

    std::size_t size() const { return table.size() / stride; }
    std::span<const Word> row(std::size_t r) const { return {table.data() + r * stride, n_words}; }
    RowTable pointers() const {
        RowTable out;
        for (std::size_t r = 0; r < size(); ++r) out.push_back(row(r).data());
        return out;
    }
};

/// A table of n_rows row pairs drawn from at most kPoolRows distinct random
/// pairs (row r uses pair r % kPoolRows): every table up to kPoolRows rows
/// is all-distinct, and larger ones, past kMaxFusedRows, stay cheap to check
/// because the naive counts are taken once per pair and scaled by how often
/// the table repeats it.  The pairs have dirty tails.
struct PooledRows {
    static constexpr std::size_t kPoolRows = 256;
    StridedRows pool_a, pool_b;
    RowTable rows_a, rows_b;

    PooledRows(std::size_t n_rows, std::size_t n_bits, Xoshiro256ss& rng)
        : pool_a(std::min(n_rows, kPoolRows), n_bits, rng, true),
          pool_b(pool_a.size(), n_bits, rng, true) {
        for (std::size_t r = 0; r < n_rows; ++r) {
            rows_a.push_back(pool_a.row(r % kPoolRows).data());
            rows_b.push_back(pool_b.row(r % kPoolRows).data());
        }
    }

    /// The naive counts of rows_a bound to rows_b.
    std::vector<std::int32_t> expected(std::size_t n_bits) const {
        std::vector<std::int32_t> counts(n_bits, 0);
        std::vector<Word> product(bits::word_count(n_bits));
        for (std::size_t i = 0; i < pool_a.size(); ++i) {
            bits::xor_into(product, pool_a.row(i), pool_b.row(i));
            std::vector<std::int32_t> once(n_bits, 0);
            hdlock::util::naive_accumulate(product, n_bits, once);
            const auto repeats =
                static_cast<std::int32_t>((rows_a.size() - i + kPoolRows - 1) / kPoolRows);
            for (std::size_t j = 0; j < n_bits; ++j) counts[j] += once[j] * repeats;
        }
        return counts;
    }
};

/// Count-buffer guard: column_counts gets kGuardColumns sentinel entries
/// after n_bits, which it must leave alone.  That is a whole AVX-512 block,
/// the furthest a wrong store mask could write; ASan does not instrument
/// masked stores.
constexpr std::size_t kGuardColumns = 512;
constexpr std::int32_t kSentinel = -0x5A5A5A5B;

const std::size_t kDims[] = {1, 63, 64, 65, 513, 10000};

}  // namespace

// (n_bits, n_planes, n_rows).  The row pairs go through column_counts in
// calls of 2^n_planes - 1 rows, the count capacity of n_planes bit planes, so
// every full call fills its planes to capacity and the calls accumulate;
// against the naive counts of the bound rows rows_a ^ rows_b on every
// backend.
class ColumnCounterTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, std::size_t>> {};

TEST_P(ColumnCounterTest, MatchesNaiveAccumulation) {
    const auto [n_bits, n_planes, n_rows] = GetParam();
    Xoshiro256ss rng(991);
    const PooledRows rows(n_rows, n_bits, rng);
    const std::size_t per_call = (std::size_t{1} << n_planes) - 1;
    const auto expected = rows.expected(n_bits);
    for (const KernelBackend* backend : all_available()) {
        std::vector<std::int32_t> counts(n_bits + kGuardColumns, kSentinel);
        std::fill_n(counts.begin(), n_bits, 0);
        count_columns(*backend, rows.rows_a, rows.rows_b, per_call, n_bits, counts);
        const auto columns_end = counts.begin() + static_cast<std::ptrdiff_t>(n_bits);
        EXPECT_TRUE(std::equal(counts.begin(), columns_end, expected.begin(), expected.end()))
            << backend->name;
        EXPECT_TRUE(std::all_of(columns_end, counts.end(),
                                [](std::int32_t guard) { return guard == kSentinel; }))
            << backend->name << " wrote past column " << n_bits;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ColumnCounterTest,
    ::testing::Combine(::testing::Values<std::size_t>(1, 64, 65, 1000, 10000),
                       // Calls of 1, 7, 15, 63 and 255 rows.
                       ::testing::Values<std::size_t>(1, 3, 4, 6, 8),
                       // Around call and 8-row group boundaries for every
                       // call size:
                       ::testing::Values<std::size_t>(0, 1, 2, 7, 8, 9, 15, 16, 17, 62, 63, 64,
                                                      127, 200)));

// Every length of the AVX-512 last block past a full one: 9–15 words, each
// with a full and with a partial last word (Sweep's D = 1000 is 16 words
// with a partial last word).
INSTANTIATE_TEST_SUITE_P(
    Tails, ColumnCounterTest,
    ::testing::Combine(::testing::Values<std::size_t>(576, 555, 640, 619, 704, 683, 768, 747, 832,
                                                      811, 896, 875, 960, 939),
                       ::testing::Values<std::size_t>(4, 8),
                       ::testing::Values<std::size_t>(1, 8, 17, 200)));

// The encoder's split: calls of kMaxFusedRows rows (16 planes), at
// dimensions with and without tail words, row counts around the 8-row
// groups, the ISOLET feature count and one past the per-call cap.
static_assert((std::size_t{1} << 16) - 1 == kernels::kMaxFusedRows);
INSTANTIATE_TEST_SUITE_P(
    EncoderShapes, ColumnCounterTest,
    ::testing::Combine(::testing::ValuesIn(kDims), ::testing::Values<std::size_t>(16),
                       ::testing::Values<std::size_t>(1, 7, 8, 9, 617,
                                                      kernels::kMaxFusedRows + 1)));

TEST(ColumnCounter, AddXorMatchesMaterializedXor) {
    // The encoder form: counting (a, b) pairs must be exactly counting the
    // materialized products a ^ b, for widths with a partial tail word.
    for (const std::size_t n_bits : {std::size_t{1}, std::size_t{64}, std::size_t{65},
                                     std::size_t{1000}, std::size_t{4096}}) {
        Xoshiro256ss rng(1234 + n_bits);
        const Rows a = random_rows(130, n_bits, rng);
        const Rows b = random_rows(130, n_bits, rng);
        Rows products = a;
        for (std::size_t r = 0; r < products.size(); ++r) bits::xor_into(products[r], a[r], b[r]);
        const auto naive = naive_counts(products, n_bits);
        for (const KernelBackend* backend : all_available()) {
            std::vector<std::int32_t> fused(n_bits, 0);
            std::vector<std::int32_t> materialized(n_bits, 0);
            count_columns(*backend, pointers(a), pointers(b), 130, n_bits, fused);
            count_plain(*backend, pointers(products), 130, n_bits, materialized);
            EXPECT_EQ(fused, materialized) << backend->name << " n_bits=" << n_bits;
            EXPECT_EQ(fused, naive) << backend->name << " n_bits=" << n_bits;
        }
    }
}

TEST(ColumnCounter, UsableAfterCountsInto) {
    // column_counts adds onto the caller's buffer: reading the counts after
    // some rows and then counting more continues the same accumulation.
    const std::size_t n_bits = 300;
    Xoshiro256ss rng(5);
    const Rows first = random_rows(10, n_bits, rng);
    const Rows second = random_rows(75, n_bits, rng);
    Rows all = first;
    all.insert(all.end(), second.begin(), second.end());
    for (const KernelBackend* backend : all_available()) {
        std::vector<std::int32_t> counts(n_bits, 0);
        count_plain(*backend, pointers(first), first.size(), n_bits, counts);
        EXPECT_EQ(counts, naive_counts(first, n_bits)) << backend->name;
        count_plain(*backend, pointers(second), second.size(), n_bits, counts);
        EXPECT_EQ(counts, naive_counts(all, n_bits)) << backend->name;
    }
}

TEST(ColumnCounter, AllOnesAndAllZeros) {
    const std::size_t n_bits = 100;
    std::vector<Word> ones(bits::word_count(n_bits), ~Word{0});
    ones.back() &= bits::tail_mask(n_bits);
    const std::vector<Word> zeros(bits::word_count(n_bits), 0);
    Rows rows(130, ones);
    rows.insert(rows.end(), 5, zeros);
    for (const KernelBackend* backend : all_available()) {
        std::vector<std::int32_t> counts(n_bits, 0);
        count_plain(*backend, pointers(rows), 63, n_bits, counts);  // crosses call boundaries
        for (const auto c : counts) EXPECT_EQ(c, 130) << backend->name;
    }
}

TEST(ColumnCounter, ContractViolations) {
    // The reference refuses a count buffer that does not match n_bits.
    const std::vector<Word> row(bits::word_count(100), 0);
    std::vector<std::int32_t> wrong_counts(50, 0);
    EXPECT_THROW(hdlock::util::naive_accumulate(row, 100, wrong_counts), ContractViolation);
}

// A full-capacity call counts 65535 into every column: the top of the
// 16-bit lanes the SIMD unpacks widen from.
TEST(Kernels, ColumnCountsReachTheRowCap) {
    for (const std::size_t n_bits : kDims) {
        std::vector<Word> ones(bits::word_count(n_bits), ~Word{0});
        ones.back() &= bits::tail_mask(n_bits);
        const RowTable rows(kernels::kMaxFusedRows + 1, ones.data());
        for (const KernelBackend* backend : all_available()) {
            std::vector<std::int32_t> counts(n_bits, 0);
            count_plain(*backend, rows, kernels::kMaxFusedRows, n_bits, counts);
            EXPECT_EQ(counts, std::vector<std::int32_t>(
                                  n_bits, static_cast<std::int32_t>(kernels::kMaxFusedRows + 1)))
                << backend->name << " D=" << n_bits;
        }
    }
}

// End-to-end through dispatch: column_counts reached via set_backend must
// produce identical counts on every backend, over odd tail lengths (D not a
// multiple of 256/512) and calls of several sizes accumulating into one
// buffer.
TEST(Kernels, ColumnCounterBitIdenticalAcrossBackends) {
    const auto available = kernels::available_backends();
    if (available.size() < 2) GTEST_SKIP() << "only portable available on this host";

    for (const std::size_t n_bits : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                     std::size_t{65}, std::size_t{200}, std::size_t{257},
                                     std::size_t{300}, std::size_t{511}, std::size_t{513},
                                     std::size_t{1000}}) {
        for (const std::size_t per_call : {std::size_t{1}, std::size_t{7}, std::size_t{8},
                                           std::size_t{9}, std::size_t{15}, std::size_t{37}}) {
            std::vector<std::vector<Word>> rows;
            Xoshiro256ss rng(1000 + n_bits * 31 + per_call);
            const std::size_t n_words = bits::word_count(n_bits);
            for (std::size_t r = 0; r < 37; ++r) {
                auto row = random_words(n_words, rng);
                if (!row.empty()) row.back() &= bits::tail_mask(n_bits);
                rows.push_back(std::move(row));
            }
            std::vector<const Word*> ptrs_a, ptrs_b;
            for (std::size_t r = 0; r < rows.size(); ++r) {
                ptrs_a.push_back(rows[r].data());
                ptrs_b.push_back(rows[(r + 1) % rows.size()].data());
            }

            std::vector<std::int32_t> reference;
            for (const Backend kind : available) {
                kernels::ScopedBackend pin(kind);
                std::vector<std::int32_t> counts(n_bits, 0);
                for (std::size_t first = 0; first < rows.size(); first += per_call) {
                    const std::size_t n = std::min(per_call, rows.size() - first);
                    kernels::active().column_counts(ptrs_a.data() + first, ptrs_b.data() + first,
                                                    n, n_bits, counts.data());
                }
                if (kind == Backend::portable) {
                    reference = counts;
                } else {
                    EXPECT_EQ(counts, reference) << kernels::backend_name(kind) << " D=" << n_bits
                                                 << " per_call=" << per_call;
                }
            }
        }
    }
}

namespace {

/// Deterministic TieResolver: a fixed per-word pattern, so every backend
/// (and the reference below) resolves identical ties identically without
/// shared state.
Word pattern_ties(void* /*ctx*/, Word eq_mask, std::size_t word_index) noexcept {
    return eq_mask & (Word{0x9E3779B97F4A7C15ULL} * static_cast<Word>(word_index + 3));
}

/// Stateful TieResolver drawing one Xoshiro sign per tied column (the
/// production resolver's shape).  Cross-backend distance equality with this
/// resolver proves every backend calls it in the identical (word-ascending,
/// at-most-once-per-word) order with identical eq masks.
Word rng_ties(void* ctx, Word eq_mask, std::size_t /*word_index*/) noexcept {
    auto& rng = *static_cast<Xoshiro256ss*>(ctx);
    Word negatives = 0;
    while (eq_mask != 0) {
        const auto bit = static_cast<std::size_t>(std::countr_zero(eq_mask));
        if (rng.next_sign() < 0) negatives |= Word{1} << bit;
        eq_mask &= eq_mask - 1;
    }
    return negatives;
}

/// The resolver calls of one kernel run, in call order.
using TieLog = std::vector<std::pair<std::size_t, Word>>;

/// pattern_ties that also logs each call's (word index, eq mask) into the
/// TieLog at `ctx`: two runs with equal logs made the same calls in the
/// same order.
Word logged_ties(void* ctx, Word eq_mask, std::size_t word_index) noexcept {
    static_cast<TieLog*>(ctx)->emplace_back(word_index, eq_mask);
    return pattern_ties(nullptr, eq_mask, word_index);
}

/// Independent scalar re-implementation of the fused contract: majority of
/// the per-column counts of the bound rows rows_a ^ rows_b (ties at exactly
/// n/2 for even n resolved by `ties`, once per word with ties, in ascending
/// word order), then per-class Hamming against the implied query.
std::vector<std::uint64_t> fused_reference(const StridedRows& rows_a, const StridedRows& rows_b,
                                           const StridedRows& classes, kernels::TieResolver ties,
                                           void* tie_ctx) {
    const std::size_t n = rows_a.size();
    std::vector<std::uint64_t> distances(classes.size(), 0);
    for (std::size_t w = 0; w < rows_a.n_words; ++w) {
        Word query = 0;
        Word eq = 0;
        for (std::size_t bit = 0; bit < 64; ++bit) {
            std::size_t count = 0;
            for (std::size_t r = 0; r < n; ++r) {
                count += ((rows_a.row(r)[w] ^ rows_b.row(r)[w]) >> bit) & 1u;
            }
            if (count > n / 2) {
                query |= Word{1} << bit;
            } else if (n % 2 == 0 && count == n / 2) {
                eq |= Word{1} << bit;
            }
        }
        if (eq != 0 && ties != nullptr) query |= ties(tie_ctx, eq, w) & eq;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            distances[c] += static_cast<std::uint64_t>(std::popcount(query ^ classes.row(c)[w]));
        }
    }
    return distances;
}

}  // namespace

// The fused encode→distance kernel vs the scalar reference on every
// backend: row counts spanning the 8-row groups and every leftover shape;
// 1–17 words, so every length of the AVX-512 last block (1–7 words past a
// multiple of 8, or none), each with a full and with a partial, clean-tailed
// last word; rows and class rows in strided tables whose gap words are
// non-zero.  With a resolver, every backend must make exactly the
// reference's calls: same word indices and eq masks, ascending, at most
// one per word.
TEST(Kernels, FusedHammingScoresMatchesReferenceAcrossBackends) {
    Xoshiro256ss rng(83);
    const std::size_t n_classes = 3;
    for (const std::size_t n_rows : {std::size_t{1}, std::size_t{2}, std::size_t{3},
                                     std::size_t{7}, std::size_t{8}, std::size_t{9},
                                     std::size_t{16}, std::size_t{17}, std::size_t{33}}) {
        for (std::size_t n_words = 1; n_words <= 17; ++n_words) {
            for (const std::size_t unused_bits : {std::size_t{0}, std::size_t{37}}) {
                const std::size_t n_bits = n_words * 64 - unused_bits;
                const StridedRows rows_a(n_rows, n_bits, rng);
                const StridedRows rows_b(n_rows, n_bits, rng);
                const StridedRows classes(n_classes, n_bits, rng);
                const RowTable ptrs_a = rows_a.pointers();
                const RowTable ptrs_b = rows_b.pointers();
                const RowTable class_ptrs = classes.pointers();
                for (const bool with_ties : {true, false}) {
                    const kernels::TieResolver ties = with_ties ? &logged_ties : nullptr;
                    TieLog expected_calls;
                    const auto expected =
                        fused_reference(rows_a, rows_b, classes, ties, &expected_calls);
                    for (const KernelBackend* backend : all_available()) {
                        TieLog calls;
                        std::vector<std::uint64_t> actual(n_classes, ~std::uint64_t{0});
                        backend->fused_hamming_scores(ptrs_a.data(), ptrs_b.data(), n_rows,
                                                      class_ptrs.data(), n_classes, n_words, ties,
                                                      &calls, actual.data());
                        EXPECT_EQ(actual, expected)
                            << backend->name << " rows=" << n_rows << " bits=" << n_bits
                            << " ties=" << with_ties;
                        EXPECT_EQ(calls, expected_calls)
                            << backend->name << " rows=" << n_rows << " bits=" << n_bits;
                    }
                }
            }
        }
    }
}

// The production tie resolver is stateful (one PRNG draw per tied column),
// so identical distances across backends require identical resolver call
// order and identical eq masks — this is the RNG-parity contract the
// encoder's fused path relies on.
TEST(Kernels, FusedHammingScoresDrawsStatefulTiesIdentically) {
    Xoshiro256ss rng(97);
    const std::size_t n_rows = 8;  // even: ~27% tie probability per column
    const std::size_t n_words = 11;
    const std::size_t n_classes = 4;
    std::vector<std::vector<Word>> rows_a, rows_b, classes;
    std::vector<const Word*> ptrs_a, ptrs_b, class_ptrs;
    for (std::size_t r = 0; r < n_rows; ++r) {
        rows_a.push_back(random_words(n_words, rng));
        rows_b.push_back(random_words(n_words, rng));
        ptrs_a.push_back(rows_a.back().data());
        ptrs_b.push_back(rows_b.back().data());
    }
    for (std::size_t c = 0; c < n_classes; ++c) {
        classes.push_back(random_words(n_words, rng));
        class_ptrs.push_back(classes.back().data());
    }

    Xoshiro256ss reference_rng(1234);
    std::vector<std::uint64_t> expected(n_classes, 0);
    kernels::portable_backend().fused_hamming_scores(ptrs_a.data(), ptrs_b.data(), n_rows,
                                                     class_ptrs.data(), n_classes, n_words,
                                                     &rng_ties, &reference_rng, expected.data());
    for (const KernelBackend* backend : simd_backends()) {
        Xoshiro256ss backend_rng(1234);
        std::vector<std::uint64_t> actual(n_classes, 0);
        backend->fused_hamming_scores(ptrs_a.data(), ptrs_b.data(), n_rows, class_ptrs.data(),
                                      n_classes, n_words, &rng_ties, &backend_rng, actual.data());
        EXPECT_EQ(actual, expected) << backend->name;
    }
}

TEST(Kernels, FusedHammingScoresZeroRowsZeroesDistances) {
    Xoshiro256ss rng(11);
    const auto cls = random_words(5, rng);
    const Word* class_ptrs[] = {cls.data()};
    std::vector<std::uint64_t> distances(1, ~std::uint64_t{0});
    kernels::active().fused_hamming_scores(nullptr, nullptr, 0, class_ptrs, 1, 5, nullptr,
                                           nullptr, distances.data());
    EXPECT_EQ(distances[0], 0u);
}

// One column_counts call over a table of row pairs must count exactly like
// one call per pair, on every backend, at odd dimensions (tail words) and
// after a few single-pair calls.
TEST(Kernels, ColumnCounterAddRowsMatchesSequentialAdds) {
    for (const KernelBackend* backend : all_available()) {
        for (const std::size_t n_bits :
             {std::size_t{63}, std::size_t{65}, std::size_t{513}, std::size_t{777},
              std::size_t{1000}}) {
            for (const std::size_t misalign : {std::size_t{0}, std::size_t{3}}) {
                Xoshiro256ss rng(500 + n_bits + misalign);
                const std::size_t n_words = bits::word_count(n_bits);
                std::vector<std::vector<Word>> rows;
                for (std::size_t r = 0; r < 2 * 37; ++r) {
                    auto row = random_words(n_words, rng);
                    row.back() &= bits::tail_mask(n_bits);
                    rows.push_back(std::move(row));
                }
                std::vector<const Word*> ptrs_a, ptrs_b;
                for (std::size_t r = 0; r < 37; ++r) {
                    ptrs_a.push_back(rows[2 * r].data());
                    ptrs_b.push_back(rows[2 * r + 1].data());
                }

                std::vector<std::int32_t> sequential(n_bits, 0), batched(n_bits, 0);
                for (std::size_t r = 0; r < ptrs_a.size(); ++r) {
                    backend->column_counts(&ptrs_a[r], &ptrs_b[r], 1, n_bits, sequential.data());
                }
                for (std::size_t r = 0; r < misalign; ++r) {
                    backend->column_counts(&ptrs_a[r], &ptrs_b[r], 1, n_bits, batched.data());
                }
                backend->column_counts(ptrs_a.data() + misalign, ptrs_b.data() + misalign,
                                       ptrs_a.size() - misalign, n_bits, batched.data());
                EXPECT_EQ(batched, sequential)
                    << backend->name << " D=" << n_bits << " misalign=" << misalign;
            }
        }
    }
}

namespace {

/// The scalar int64 dot loop the kernel must reproduce: exact products,
/// summed modulo 2^64.
std::int64_t scalar_dot(const std::vector<std::int32_t>& a, const std::vector<std::int32_t>& b) {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i]) * b[i]);
    }
    return static_cast<std::int64_t>(sum);
}

/// Runs dot_scores for `query` against `classes` on `backend` and checks
/// every dot, and the query's sum of squares (the one-row call against the
/// query itself, as HdcModel::predict takes it), against scalar_dot.
void expect_dot_scores(const KernelBackend& backend, const std::vector<std::int32_t>& query,
                       const std::vector<std::vector<std::int32_t>>& classes) {
    std::vector<const std::int32_t*> rows;
    for (const auto& row : classes) rows.push_back(row.data());
    std::vector<std::int64_t> dots(classes.size(), 0);
    backend.dot_scores(query.data(), rows.data(), rows.size(), query.size(), dots.data());
    const std::int32_t* self = query.data();
    std::int64_t query_sq = 0;
    backend.dot_scores(query.data(), &self, 1, query.size(), &query_sq);
    EXPECT_EQ(query_sq, scalar_dot(query, query))
        << backend.name << " n=" << query.size() << " classes=" << classes.size();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        EXPECT_EQ(dots[c], scalar_dot(query, classes[c]))
            << backend.name << " n=" << query.size() << " class " << c << " of "
            << classes.size();
    }
}

}  // namespace

// dot_scores against the scalar loop on every backend, at the encoder
// dimensions and class counts below, at and around every class-group size.
TEST(Kernels, DotScoresMatchScalarLoop) {
    Xoshiro256ss rng(307);
    const auto draw = [&rng](std::size_t n) {
        std::vector<std::int32_t> values(n);
        for (auto& v : values) v = static_cast<std::int32_t>(rng.next_below(1u << 21)) - (1 << 20);
        return values;
    };
    for (const std::size_t n : kDims) {
        for (const std::size_t n_classes :
             {std::size_t{1}, std::size_t{3}, std::size_t{26}, std::size_t{64}}) {
            const auto query = draw(n);
            std::vector<std::vector<std::int32_t>> classes;
            for (std::size_t c = 0; c < n_classes; ++c) classes.push_back(draw(n));
            for (const KernelBackend* backend : all_available()) {
                expect_dot_scores(*backend, query, classes);
            }
        }
    }
}

// Products of int32 extremes need all 64 bits (INT32_MIN^2 = 2^62): a
// backend with a 32-bit intermediate anywhere would disagree with the
// scalar loop.  Sums that leave int64 wrap identically everywhere.
TEST(Kernels, DotScoresExactAtInt32Extremes) {
    constexpr std::int32_t kMin = std::numeric_limits<std::int32_t>::min();
    constexpr std::int32_t kMax = std::numeric_limits<std::int32_t>::max();
    const std::int32_t palette[] = {kMin, kMax, kMin + 1, -1, 0, 1, kMax - 1};
    Xoshiro256ss rng(401);
    const auto draw = [&](std::size_t n) {
        std::vector<std::int32_t> values(n);
        for (auto& v : values) v = palette[rng.next_below(std::size(palette))];
        return values;
    };
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{4},
                                std::size_t{7}, std::size_t{8}, std::size_t{9}, std::size_t{15},
                                std::size_t{16}, std::size_t{17}, std::size_t{33}, std::size_t{65},
                                std::size_t{513}}) {
        const auto query = draw(n);
        std::vector<std::vector<std::int32_t>> classes{std::vector<std::int32_t>(n, kMin),
                                                       std::vector<std::int32_t>(n, kMax)};
        for (std::size_t c = 0; c < 7; ++c) classes.push_back(draw(n));
        for (const KernelBackend* backend : all_available()) {
            expect_dot_scores(*backend, query, classes);
        }
    }
    // One extreme product alone, at every lane position: exact, no wrap.
    for (std::size_t at = 0; at < 17; ++at) {
        std::vector<std::int32_t> query(17, 0);
        query[at] = kMin;
        const std::vector<std::vector<std::int32_t>> classes{std::vector<std::int32_t>(17, kMin)};
        for (const KernelBackend* backend : all_available()) {
            std::int64_t dot = 0;
            const std::int32_t* row = classes[0].data();
            backend->dot_scores(query.data(), &row, 1, 17, &dot);
            EXPECT_EQ(dot, std::int64_t{1} << 62) << backend->name << " at " << at;
        }
    }
}

// TSan coverage for the process-global dispatch slot: reader threads hammer
// active() + a kernel call while writer threads churn ScopedBackend pins.
// set_backend is a single atomic exchange, so the slot is never torn, every
// reader always sees *some* fully-formed backend, and — because all backends
// are bit-identical — every kernel result is the same no matter which pin
// won.  (The old read-then-store set_backend let a racing pin restore a
// stale snapshot; the per-thread nested-pin chain below plus this churn runs
// under the tsan-serving-core CI job.)
TEST(KernelsBackendConcurrency, SetBackendVsActiveIsRaceFree) {
    const Backend original = kernels::active_kind();
    const auto kinds = kernels::available_backends();

    Xoshiro256ss rng(23);
    const auto words = random_words(157, rng);
    const std::size_t expected_pop = kernels::portable_backend().popcount(words.data(),
                                                                          words.size());

    std::atomic<bool> stop{false};
    std::vector<hdlock::util::Thread> readers;
    for (int r = 0; r < 2; ++r) {
        readers.emplace_back(hdlock::util::Thread([&] {
            while (!stop.load(std::memory_order_relaxed)) {
                const KernelBackend& backend = kernels::active();
                ASSERT_NE(backend.name, nullptr);
                ASSERT_EQ(backend.popcount(words.data(), words.size()), expected_pop)
                    << backend.name;
            }
        }));
    }

    std::vector<hdlock::util::Thread> writers;
    for (std::size_t w = 0; w < 2; ++w) {
        writers.emplace_back(hdlock::util::Thread([&kinds, w] {
            for (int i = 0; i < 500; ++i) {
                kernels::ScopedBackend outer(kinds[(w + i) % kinds.size()]);
                kernels::ScopedBackend inner(kinds[i % kinds.size()]);
            }
        }));
    }
    for (auto& writer : writers) writer.join();
    stop.store(true, std::memory_order_relaxed);
    for (auto& reader : readers) reader.join();

    // Concurrent pins unwind in an arbitrary global order, so re-pin
    // explicitly rather than asserting which racer's restore landed last.
    kernels::set_backend(original);
    EXPECT_EQ(kernels::active_kind(), original);
}

// The bitvec span wrappers dispatch to whatever backend is pinned.
TEST(Kernels, BitvecRoutesThroughActiveBackend) {
    Xoshiro256ss rng(5);
    const std::size_t n_bits = 777;  // odd tail
    std::vector<Word> a(bits::word_count(n_bits));
    std::vector<Word> b(bits::word_count(n_bits));
    bits::fill_random(a, n_bits, rng);
    bits::fill_random(b, n_bits, rng);

    std::size_t expected_pop = 0;
    std::size_t expected_ham = 0;
    std::vector<Word> expected_xor(a.size());
    {
        kernels::ScopedBackend pin(Backend::portable);
        expected_pop = bits::popcount(a);
        expected_ham = bits::hamming(a, b);
        bits::xor_into(expected_xor, a, b);
    }
    for (const Backend kind : kernels::available_backends()) {
        kernels::ScopedBackend pin(kind);
        EXPECT_EQ(bits::popcount(a), expected_pop) << kernels::backend_name(kind);
        EXPECT_EQ(bits::hamming(a, b), expected_ham) << kernels::backend_name(kind);
        std::vector<Word> actual(a.size());
        bits::xor_into(actual, a, b);
        EXPECT_EQ(actual, expected_xor) << kernels::backend_name(kind);
    }
}
