#pragma once

/// \file kernels.hpp
/// Runtime-dispatched SIMD backends for the bit-packed word kernels.
///
/// Everything hot in this codebase bottoms out in a handful of loops over
/// packed uint64 words and int32 hypervectors: XOR binds, population counts,
/// Hamming distances, the Harley–Seal column count behind every bundling sum,
/// the fused encode→distance scorer, and the exact int64 dot products of
/// non-binary scoring.  This header gives those loops a vtable
/// (KernelBackend) with four implementations:
///
///   portable  the plain C++ loops (always available, the reference);
///   neon      128-bit ARM NEON intrinsics (kernels_neon.cpp; Advanced SIMD
///             is baseline on aarch64, so no extra -m flags — the TU
///             self-gates on __ARM_NEON);
///   avx2      256-bit AVX2 intrinsics (compiled only into kernels_avx2.cpp
///             with -mavx2; selected only when CPUID reports AVX2);
///   avx512    512-bit AVX-512 intrinsics (compiled with -mavx512f/-bw/
///             -vpopcntdq; selected only when CPUID reports all three).
///
/// Dispatch is process-global and resolved once at first use: the best
/// compiled-in backend the CPU supports, overridable by the environment
/// variable HDLOCK_KERNEL_BACKEND=portable|neon|avx2|avx512 (an unavailable
/// or unknown value warns once on stderr and falls back to auto-detection —
/// a deployment artifact must degrade, not crash) and by set_backend() /
/// ScopedBackend for tests and tools that must pin a specific
/// implementation (hdlock_eval --backend calls set_backend()).
///
/// Contract: every backend is bit-identical to portable on every input.
/// All kernels are exact integer arithmetic with order-independent
/// reductions, so vector width never changes a result — the byte-identical
/// JSON determinism contract of the eval:: harness holds across backends,
/// and tests/util/kernels_test.cc asserts agreement on randomized inputs
/// including odd tail lengths.
///
/// Why dispatch sits at the word-kernel layer (and not per-encoder): see
/// DESIGN.md §5.  In short, every encoder variant (record, locked, sealed),
/// the model scoring and the attack sweeps share these same six loops; one
/// dispatch point under util:: accelerates all of them at once and keeps the
/// ISA-specific surface small enough to exhaustively test for bit-equality.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hdlock::util::kernels {

using Word = std::uint64_t;

/// Backend identity, in ascending preference order (auto-detection picks the
/// highest available value).  Never serialized — reports store the name
/// string — so reordering to slot neon in is safe.
enum class Backend : std::uint8_t { portable = 0, neon = 1, avx2 = 2, avx512 = 3 };

/// Row-count ceiling of one column_counts / fused_hamming_scores call: the
/// per-column counts live in at most 16 bit-sliced planes (and the SIMD
/// unpacks widen 16-bit lanes), so counts must fit 16 bits.  Callers with
/// more rows split them into calls of at most this many.
inline constexpr std::size_t kMaxFusedRows = 65535;

/// Tie-break callback for fused_hamming_scores.  `eq_mask` flags the columns
/// of word `word_index` whose accumulated count landed exactly on
/// n_rows / 2 (a zero bipolar sum — only possible for even n_rows); the
/// resolver returns the subset that binarize negative (bit set in the query).
/// The kernel invokes it at most once per word, in ascending word order, and
/// only when eq_mask != 0 — so a resolver drawing one RNG sign per set bit in
/// ascending bit order consumes the stream exactly like IntHV::sign_into.
/// Kept as a raw function pointer for the same ODR reason as the vtable: the
/// RNG lives outside the ISA translation units.
using TieResolver = Word (*)(void* ctx, Word eq_mask, std::size_t word_index) noexcept;

/// The word-kernel vtable.  Raw pointers + lengths on purpose: the ISA
/// translation units must not instantiate inline std templates under
/// -mavx2/-mavx512 (an inline function compiled twice with different ISAs is
/// an ODR hazard — the linker keeps one copy, which may then execute illegal
/// instructions on a lesser host).
struct KernelBackend {
    Backend kind = Backend::portable;
    const char* name = "portable";

    /// dst[i] = a[i] ^ b[i]; dst may alias a or b.
    void (*xor_into)(Word* dst, const Word* a, const Word* b, std::size_t n) noexcept;

    /// Total set bits over words[0..n).
    std::size_t (*popcount)(const Word* words, std::size_t n) noexcept;

    /// Total set bits of a[i] ^ b[i] over [0..n) (unnormalized Hamming).
    std::size_t (*hamming)(const Word* a, const Word* b, std::size_t n) noexcept;

    /// The bundling column count: for every column j < n_bits,
    ///   counts[j] += #{ r < n_rows : bit j of (rows_a[r] ^ rows_b[r]) }
    /// rows_a and rows_b are tables of n_rows rows each; every pair is
    /// bound (XORed) on load.  Per word block the Harley–Seal count planes
    /// stay in registers/L1, exactly as in fused_hamming_scores, and are
    /// unpacked in registers into the int32 counts; the bound products are
    /// never written to memory.  Adds onto `counts`, so a caller with more
    /// than kMaxFusedRows rows accumulates several calls.  Writes only
    /// columns [0, n_bits); rows hold word_count(n_bits) words.
    /// Requirement: n_rows <= kMaxFusedRows.
    void (*column_counts)(const Word* const* rows_a, const Word* const* rows_b,
                          std::size_t n_rows, std::size_t n_bits,
                          std::int32_t* counts) noexcept;

    /// The fused encode→distance kernel: accumulates the n_rows bound rows
    /// rows_a[r] ^ rows_b[r] (two tables of n_rows rows, XORed on load as in
    /// column_counts), binarizes the per-column counts against n_rows / 2,
    /// and scores the never-materialized query against n_classes class
    /// hypervectors:
    ///   distances[c] = Hamming(sign(sum of bound rows), class_rows[c])
    /// Per word block the Harley–Seal count planes live in registers/L1; the
    /// query bits come from a bit-sliced lexicographic compare of the planes
    /// against the threshold, ties (count == n_rows/2, even n_rows only) go
    /// through `ties` (see TieResolver; may be nullptr when n_rows is odd).
    /// Requirements: 1 <= n_rows <= kMaxFusedRows; rows carry clean tails
    /// (tail columns count 0 and can never tie, so the query tail stays
    /// clean and class tails must be clean too, as BinaryHV guarantees).
    /// Bit-identical to encode_binary_into + per-class hamming() on every
    /// backend, including the RNG draw order of tie breaks.
    void (*fused_hamming_scores)(const Word* const* rows_a, const Word* const* rows_b,
                                 std::size_t n_rows, const Word* const* class_rows,
                                 std::size_t n_classes, std::size_t n_words, TieResolver ties,
                                 void* tie_ctx, std::uint64_t* distances) noexcept;

    /// Exact non-binary scoring: for every class c < n_classes,
    ///   dots[c] = sum over i < n of int64(query[i]) * class_rows[c][i],
    /// with every product a signed 32x32->64 multiply (no 32-bit
    /// intermediate).  Sums accumulate modulo 2^64, identically on every
    /// backend, so a result is exact whenever the true value fits in int64.
    /// A query's own sum of squares is the one-row call with class_rows
    /// pointing at the query.
    void (*dot_scores)(const std::int32_t* query, const std::int32_t* const* class_rows,
                       std::size_t n_classes, std::size_t n, std::int64_t* dots) noexcept;
};

/// The reference backend (always available).
const KernelBackend& portable_backend() noexcept;

/// Compiled-in ISA backends; nullptr when the toolchain could not build them
/// (missing -m flags support or the wrong target arch).  Availability at
/// *run* time additionally requires cpu_supports(kind).
const KernelBackend* neon_backend() noexcept;
const KernelBackend* avx2_backend() noexcept;
const KernelBackend* avx512_backend() noexcept;

/// True when the running CPU can execute the given backend (portable: always).
bool cpu_supports(Backend kind) noexcept;

/// True when the backend is compiled into this binary (portable: always).
bool compiled(Backend kind) noexcept;

/// True when the backend is compiled in AND the CPU supports it.
bool available(Backend kind) noexcept;

/// Parses "portable" / "neon" / "avx2" / "avx512"; nullopt for anything else.
std::optional<Backend> parse_backend(std::string_view name) noexcept;

/// The backend's canonical name ("portable", "neon", "avx2", "avx512").
const char* backend_name(Backend kind) noexcept;

/// Every backend this build knows of, ascending (portable first) — including
/// ones not compiled in or not runnable here; pair with compiled()/
/// available() for roster listings.
std::vector<Backend> all_backends();

/// Every backend available on this host, ascending (portable first).
std::vector<Backend> available_backends();

/// The backend auto-detection would pick for `env_value` (the content of
/// HDLOCK_KERNEL_BACKEND, empty/unknown/unavailable = best available) —
/// split out pure so the env contract is unit-testable without setenv.
Backend choose_backend(std::string_view env_value) noexcept;

/// The active backend.  First call resolves it: HDLOCK_KERNEL_BACKEND if set
/// and available, otherwise the best available.  Hot paths cache the pointer
/// per call site, so set_backend() mid-computation affects the *next*
/// operation, not one in flight.
const KernelBackend& active() noexcept;

/// The active backend's identity/name (for reports and logs).
Backend active_kind() noexcept;
inline const char* active_name() noexcept { return backend_name(active_kind()); }

/// Pins the process-global backend.  Throws hdlock::ConfigError when the
/// backend is not compiled in or the CPU lacks the ISA.  Returns the
/// previously active backend so tests can restore it.
Backend set_backend(Backend kind);

/// Space-separated SIMD feature list of the running CPU relevant to the
/// compiled backends (e.g. "avx2 avx512f avx512bw avx512vpopcntdq" on x86,
/// "asimd" on aarch64); empty on hosts with none.  Recorded in the eval::
/// JSON context.
std::string cpu_feature_string();

/// RAII pin for tests: set_backend(kind) now, restore the previous backend
/// on destruction (unless release()d).
class ScopedBackend {
public:
    explicit ScopedBackend(Backend kind) : previous_(set_backend(kind)) {}
    ~ScopedBackend() {
        if (armed_) set_backend(previous_);
    }
    ScopedBackend(const ScopedBackend&) = delete;
    ScopedBackend& operator=(const ScopedBackend&) = delete;

    /// Dismisses the pin: the pinned backend stays active past destruction.
    /// Returns the backend the destructor would have restored, so a caller
    /// taking over ownership of the restore can still perform it.
    Backend release() noexcept {
        armed_ = false;
        return previous_;
    }

private:
    Backend previous_;
    bool armed_ = true;
};

namespace detail {

/// Scalar word-range loops: the portable kernels, and the tail words of the
/// AVX2 and NEON backends (AVX-512 runs its tail as one masked vector
/// block).  Non-inline on purpose (compiled once, in kernels.cpp, at the
/// baseline ISA) so the -m flagged translation units can call them without
/// the ODR hazard of instantiating common code under a higher ISA.

/// column_counts over words [word_begin, word_count(n_bits)).
void column_counts_words(const Word* const* rows_a, const Word* const* rows_b,
                         std::size_t n_rows, std::size_t word_begin, std::size_t n_bits,
                         std::int32_t* counts) noexcept;

/// fused_hamming_scores over words [word_begin, word_end), accumulating into
/// distances (the caller zeroes them once up front).
void fused_hamming_words(const Word* const* rows_a, const Word* const* rows_b,
                         std::size_t n_rows, const Word* const* class_rows,
                         std::size_t n_classes, std::size_t word_begin, std::size_t word_end,
                         TieResolver ties, void* tie_ctx, std::uint64_t* distances) noexcept;

}  // namespace detail

}  // namespace hdlock::util::kernels
