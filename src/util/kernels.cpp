#include "util/kernels.hpp"

#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>

#include "util/error.hpp"

namespace hdlock::util::kernels {

// ---------------------------------------------------------------------------
// Portable backend: the reference loops.  GCC/Clang auto-vectorize the
// simple ones at the build's baseline ISA; the explicit backends exist
// because the baseline is usually SSE2-era.
// ---------------------------------------------------------------------------

namespace portable {

void xor_into(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept {
    for (std::size_t w = 0; w < n; ++w) dst[w] = a[w] ^ b[w];
}

std::size_t popcount(const Word* words, std::size_t n) noexcept {
    std::size_t total = 0;
    for (std::size_t w = 0; w < n; ++w) total += static_cast<std::size_t>(std::popcount(words[w]));
    return total;
}

std::size_t hamming(const Word* a, const Word* b, std::size_t n) noexcept {
    std::size_t total = 0;
    for (std::size_t w = 0; w < n; ++w) {
        total += static_cast<std::size_t>(std::popcount(a[w] ^ b[w]));
    }
    return total;
}

void column_counts(const Word* const* rows_a, const Word* const* rows_b, std::size_t n_rows,
                   std::size_t n_bits, std::int32_t* counts) noexcept {
    detail::column_counts_words(rows_a, rows_b, n_rows, 0, n_bits, counts);
}

void fused_hamming_scores(const Word* const* rows_a, const Word* const* rows_b,
                          std::size_t n_rows, const Word* const* class_rows,
                          std::size_t n_classes, std::size_t n_words, TieResolver ties,
                          void* tie_ctx, std::uint64_t* distances) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) distances[c] = 0;
    detail::fused_hamming_words(rows_a, rows_b, n_rows, class_rows, n_classes, 0, n_words, ties,
                                tie_ctx, distances);
}

/// The scalar reference dot loop.  Each product is exact in int64; the sum
/// wraps modulo 2^64 like the vector backends' lane adds, so the result is
/// defined (and backend-identical) even when it does not fit.
std::int64_t dot(const std::int32_t* a, const std::int32_t* b, std::size_t n) noexcept {
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
        sum += static_cast<std::uint64_t>(static_cast<std::int64_t>(a[i]) * b[i]);
    }
    return static_cast<std::int64_t>(sum);
}

void dot_scores(const std::int32_t* query, const std::int32_t* const* class_rows,
                std::size_t n_classes, std::size_t n, std::int64_t* dots) noexcept {
    for (std::size_t c = 0; c < n_classes; ++c) dots[c] = dot(query, class_rows[c], n);
}

}  // namespace portable

namespace {

/// Ripples a carry word of weight 2^start into the bit-sliced count planes.
/// The chain always dies before plane n_planes: column counts never exceed
/// n_rows < 2^n_planes.
inline void ripple(Word* planes, std::size_t n_planes, std::size_t start, Word carry) noexcept {
    for (std::size_t p = start; p < n_planes && carry != 0; ++p) {
        const Word sum = planes[p] ^ carry;
        carry &= planes[p];
        planes[p] = sum;
    }
}

/// The scalar Harley–Seal block shared by column_counts_words and
/// fused_hamming_words: leaves in planes[0, n_planes) the bit-sliced count
/// of word `w` over the n_rows bound rows rows_a[r] ^ rows_b[r].  The SIMD
/// backends run the same tree on 2/4/8-word blocks.
void count_planes(const Word* const* rows_a, const Word* const* rows_b, std::size_t n_rows,
                  std::size_t n_planes, std::size_t w, Word* planes) noexcept {
    for (std::size_t p = 0; p < n_planes; ++p) planes[p] = 0;
    Word ones = 0;
    Word twos = 0;
    Word fours = 0;
    std::size_t r = 0;
    for (; r + 8 <= n_rows; r += 8) {
        Word x[8];
        for (std::size_t k = 0; k < 8; ++k) {
            x[k] = rows_a[r + k][w] ^ rows_b[r + k][w];
        }
        // CSA(carry, sum, a, b): u = sum^a; carry = (sum&a)|(u&b); sum = u^b
        // folds rows pairwise through ones, pairs through twos, quads
        // through fours, so only one weight-8 carry per 8 rows reaches the
        // planes.
        Word u = ones ^ x[0];
        const Word twos_a = (ones & x[0]) | (u & x[1]);
        ones = u ^ x[1];
        u = ones ^ x[2];
        const Word twos_b = (ones & x[2]) | (u & x[3]);
        ones = u ^ x[3];
        Word u2 = twos ^ twos_a;
        const Word fours_a = (twos & twos_a) | (u2 & twos_b);
        twos = u2 ^ twos_b;
        u = ones ^ x[4];
        const Word twos_c = (ones & x[4]) | (u & x[5]);
        ones = u ^ x[5];
        u = ones ^ x[6];
        const Word twos_d = (ones & x[6]) | (u & x[7]);
        ones = u ^ x[7];
        u2 = twos ^ twos_c;
        const Word fours_b = (twos & twos_c) | (u2 & twos_d);
        twos = u2 ^ twos_d;
        const Word u3 = fours ^ fours_a;
        const Word carry = (fours & fours_a) | (u3 & fours_b);
        fours = u3 ^ fours_b;
        ripple(planes, n_planes, 3, carry);
    }
    for (; r < n_rows; ++r) {
        const Word x = rows_a[r][w] ^ rows_b[r][w];
        const Word c1 = ones & x;
        ones ^= x;
        const Word c2 = twos & c1;
        twos ^= c1;
        const Word c3 = fours & c2;
        fours ^= c2;
        ripple(planes, n_planes, 3, c3);
    }
    ripple(planes, n_planes, 0, ones);
    ripple(planes, n_planes, 1, twos);
    ripple(planes, n_planes, 2, fours);
}

}  // namespace

namespace detail {

void column_counts_words(const Word* const* rows_a, const Word* const* rows_b,
                         std::size_t n_rows, std::size_t word_begin, std::size_t n_bits,
                         std::int32_t* counts) noexcept {
    if (n_rows == 0) return;
    const auto n_planes = static_cast<std::size_t>(std::bit_width(n_rows));
    const std::size_t n_words = (n_bits + 63) / 64;
    Word planes[16];  // kMaxFusedRows caps counts at 16 bits
    for (std::size_t w = word_begin; w < n_words; ++w) {
        count_planes(rows_a, rows_b, n_rows, n_planes, w, planes);
        const std::size_t base = w * 64;
        const std::size_t limit = n_bits - base < 64 ? n_bits - base : 64;
        const Word in_range = limit == 64 ? ~Word{0} : (Word{1} << limit) - 1;
        for (std::size_t p = 0; p < n_planes; ++p) {
            const auto weight = static_cast<std::int32_t>(1u << p);
            for (Word word = planes[p] & in_range; word != 0; word &= word - 1) {
                counts[base + static_cast<std::size_t>(std::countr_zero(word))] += weight;
            }
        }
    }
}

void fused_hamming_words(const Word* const* rows_a, const Word* const* rows_b,
                         std::size_t n_rows, const Word* const* class_rows,
                         std::size_t n_classes, std::size_t word_begin, std::size_t word_end,
                         TieResolver ties, void* tie_ctx, std::uint64_t* distances) noexcept {
    if (word_begin >= word_end || n_rows == 0) return;
    const auto n_planes = static_cast<std::size_t>(std::bit_width(n_rows));
    const Word threshold = n_rows / 2;
    const bool can_tie = (n_rows % 2) == 0 && ties != nullptr;
    Word planes[16];  // kMaxFusedRows caps counts at 16 bits
    for (std::size_t w = word_begin; w < word_end; ++w) {
        count_planes(rows_a, rows_b, n_rows, n_planes, w, planes);
        // Binarize without unpacking: a bit-sliced lexicographic compare of
        // the per-column counts against the threshold, MSB plane first.  A
        // set query bit means count > n_rows/2, i.e. a negative bipolar sum.
        Word gt = 0;
        Word eq = ~Word{0};
        for (std::size_t p = n_planes; p-- > 0;) {
            const Word t = ((threshold >> p) & 1u) != 0 ? ~Word{0} : Word{0};
            gt |= eq & planes[p] & ~t;
            eq &= ~(planes[p] ^ t);
        }
        Word query = gt;
        if (can_tie && eq != 0) query |= ties(tie_ctx, eq, w) & eq;
        for (std::size_t c = 0; c < n_classes; ++c) {
            distances[c] += static_cast<std::uint64_t>(std::popcount(query ^ class_rows[c][w]));
        }
    }
}

}  // namespace detail

const KernelBackend& portable_backend() noexcept {
    static constexpr KernelBackend backend{
        Backend::portable,
        "portable",
        &portable::xor_into,
        &portable::popcount,
        &portable::hamming,
        &portable::column_counts,
        &portable::fused_hamming_scores,
        &portable::dot_scores,
    };
    return backend;
}

// ---------------------------------------------------------------------------
// Detection and dispatch.
// ---------------------------------------------------------------------------

bool cpu_supports(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return true;
        case Backend::neon:
#if defined(__aarch64__) && defined(__ARM_NEON)
            // Advanced SIMD is architecturally baseline on AArch64.
            return true;
#else
            return false;
#endif
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
        case Backend::avx2:
            return __builtin_cpu_supports("avx2") != 0;
        case Backend::avx512:
            // Exactly the features kernels_avx512.cpp is compiled with.
            return __builtin_cpu_supports("avx512f") != 0 &&
                   __builtin_cpu_supports("avx512bw") != 0 &&
                   __builtin_cpu_supports("avx512vpopcntdq") != 0;
#else
        case Backend::avx2:
        case Backend::avx512:
            return false;
#endif
    }
    return false;
}

namespace {

const KernelBackend* compiled_backend(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return &portable_backend();
        case Backend::neon:
            return neon_backend();
        case Backend::avx2:
            return avx2_backend();
        case Backend::avx512:
            return avx512_backend();
    }
    return nullptr;
}

const KernelBackend* resolve(Backend kind) noexcept {
    return available(kind) ? compiled_backend(kind) : nullptr;
}

const KernelBackend* best_available() noexcept {
    for (const Backend kind : {Backend::avx512, Backend::avx2, Backend::neon}) {
        if (const KernelBackend* backend = resolve(kind)) return backend;
    }
    return &portable_backend();
}

std::atomic<const KernelBackend*>& active_slot() noexcept {
    static std::atomic<const KernelBackend*> slot{nullptr};
    return slot;
}

/// What active() resolves on first use: the HDLOCK_KERNEL_BACKEND override
/// when set and available, otherwise the best backend this host offers.
/// An unusable override degrades (a deployment artifact must not crash on a
/// typo'd env var) but no longer degrades *silently*: one stderr warning
/// names the accepted values and what the process actually runs.
const KernelBackend* default_backend() noexcept {
    const char* env = std::getenv("HDLOCK_KERNEL_BACKEND");
    const std::string_view value = env == nullptr ? std::string_view{} : std::string_view{env};
    const Backend chosen = choose_backend(value);
    if (!value.empty()) {
        const auto requested = parse_backend(value);
        if (!requested.has_value() || *requested != chosen) {
            static std::atomic<bool> warned{false};
            if (!warned.exchange(true, std::memory_order_relaxed)) {
                std::string roster;
                for (const Backend kind : available_backends()) {
                    if (!roster.empty()) roster += ", ";
                    roster += backend_name(kind);
                }
                std::fprintf(stderr,
                             "hdlock: ignoring HDLOCK_KERNEL_BACKEND='%s' (%s); accepted values: "
                             "portable, neon, avx2, avx512; available here: %s; using '%s'\n",
                             env, requested.has_value() ? "not available on this host"
                                                        : "unknown backend",
                             roster.c_str(), backend_name(chosen));
            }
        }
    }
    return compiled_backend(chosen);
}

}  // namespace

bool compiled(Backend kind) noexcept { return compiled_backend(kind) != nullptr; }

bool available(Backend kind) noexcept {
    return compiled_backend(kind) != nullptr && cpu_supports(kind);
}

std::optional<Backend> parse_backend(std::string_view name) noexcept {
    if (name == "portable") return Backend::portable;
    if (name == "neon") return Backend::neon;
    if (name == "avx2") return Backend::avx2;
    if (name == "avx512") return Backend::avx512;
    return std::nullopt;
}

const char* backend_name(Backend kind) noexcept {
    switch (kind) {
        case Backend::portable:
            return "portable";
        case Backend::neon:
            return "neon";
        case Backend::avx2:
            return "avx2";
        case Backend::avx512:
            return "avx512";
    }
    return "unknown";
}

std::vector<Backend> all_backends() {
    return {Backend::portable, Backend::neon, Backend::avx2, Backend::avx512};
}

std::vector<Backend> available_backends() {
    std::vector<Backend> kinds;
    for (const Backend kind : all_backends()) {
        if (available(kind)) kinds.push_back(kind);
    }
    return kinds;
}

Backend choose_backend(std::string_view env_value) noexcept {
    if (const auto requested = parse_backend(env_value)) {
        if (const KernelBackend* backend = resolve(*requested)) return backend->kind;
    }
    // Unset, unknown, or unavailable on this host: degrade to the best the
    // hardware offers rather than failing startup.
    return best_available()->kind;
}

const KernelBackend& active() noexcept {
    const KernelBackend* backend = active_slot().load(std::memory_order_acquire);
    if (backend == nullptr) {
        backend = default_backend();
        // First resolution wins on a race; both racers compute the same value.
        active_slot().store(backend, std::memory_order_release);
    }
    return *backend;
}

Backend active_kind() noexcept { return active().kind; }

Backend set_backend(Backend kind) {
    const KernelBackend* backend = compiled_backend(kind);
    if (backend == nullptr) {
        throw ConfigError(std::string("kernel backend '") + backend_name(kind) +
                          "' is not compiled into this build");
    }
    if (!cpu_supports(kind)) {
        throw ConfigError(std::string("kernel backend '") + backend_name(kind) +
                          "' is not supported by this CPU");
    }
    // Swap-and-read-previous must be one atomic step.  The old shape — read
    // active().kind, then store — could interleave with a concurrent
    // set_backend between the two, so a ScopedBackend pair racing on two
    // threads could "restore" a snapshot the other pin had already replaced
    // (and active() itself would publish a resolved default between the
    // racers' reads).  exchange() leaves no such window.
    const KernelBackend* previous = active_slot().exchange(backend, std::memory_order_acq_rel);
    if (previous == nullptr) {
        // The slot was never resolved: report what active() would have
        // picked, so restoring the returned value reproduces the default.
        previous = default_backend();
    }
    return previous->kind;
}

std::string cpu_feature_string() {
    std::string features;
    const auto append = [&features](const char* name) {
        if (!features.empty()) features += ' ';
        features += name;
    };
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
    if (__builtin_cpu_supports("avx2")) append("avx2");
    if (__builtin_cpu_supports("avx512f")) append("avx512f");
    if (__builtin_cpu_supports("avx512bw")) append("avx512bw");
    if (__builtin_cpu_supports("avx512vpopcntdq")) append("avx512vpopcntdq");
#elif defined(__aarch64__)
    if (cpu_supports(Backend::neon)) append("asimd");
#endif
    return features;
}

}  // namespace hdlock::util::kernels
