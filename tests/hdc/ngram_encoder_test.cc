// Tests for the n-gram sequence encoder (src/hdc/ngram_encoder.*): gram
// binding semantics, encode() against the per-gram sum, order sensitivity,
// bag-of-symbols degeneration, locked symbol memories, and a small
// sequence-classification round trip.

#include "hdc/ngram_encoder.hpp"

#include <gtest/gtest.h>

#include "core/locked_encoder.hpp"
#include "hdc/model.hpp"
#include "util/error.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace hdlock;
using hdc::NGramEncoder;

constexpr std::size_t kDim = 4096;

NGramEncoder make_encoder(std::size_t alphabet, std::size_t gram, std::uint64_t seed = 5) {
    return NGramEncoder(hdc::generate_symbol_hvs(kDim, alphabet, seed), gram, /*tie_seed=*/77);
}

/// A noisy Markov-ish sequence generator: class c prefers transitions
/// (s -> s + c + 1 mod A), which n >= 2 grams can capture but bags cannot.
std::vector<int> class_sequence(int cls, std::size_t length, std::size_t alphabet,
                                util::Xoshiro256ss& rng) {
    std::vector<int> sequence(length);
    sequence[0] = static_cast<int>(rng.next_below(alphabet));
    for (std::size_t t = 1; t < length; ++t) {
        if (rng.next_double() < 0.85) {
            sequence[t] = static_cast<int>(
                (static_cast<std::size_t>(sequence[t - 1]) + static_cast<std::size_t>(cls) + 1) %
                alphabet);
        } else {
            sequence[t] = static_cast<int>(rng.next_below(alphabet));
        }
    }
    return sequence;
}

}  // namespace

TEST(NGramEncoder, RejectsInvalidConstruction) {
    EXPECT_THROW(NGramEncoder({}, 2, 1), ContractViolation);
    EXPECT_THROW(NGramEncoder(hdc::generate_symbol_hvs(kDim, 4, 1), 0, 1), ContractViolation);
    auto mixed = hdc::generate_symbol_hvs(kDim, 2, 1);
    mixed.push_back(hdc::BinaryHV(kDim / 2));
    EXPECT_THROW(NGramEncoder(std::move(mixed), 2, 1), ContractViolation);
}

TEST(NGramEncoder, RejectsBadSequences) {
    const auto encoder = make_encoder(4, 3);
    EXPECT_THROW((void)encoder.encode(std::vector<int>{0, 1}), ContractViolation);  // too short
    EXPECT_THROW((void)encoder.encode(std::vector<int>{0, 1, 9}), ContractViolation);
    EXPECT_THROW((void)encoder.encode(std::vector<int>{0, 1, -1}), ContractViolation);
}

TEST(NGramEncoder, SingleGramIsTheBoundProduct) {
    const auto encoder = make_encoder(4, 2);
    const std::vector<int> gram{1, 3};
    // One gram: the non-binary sums are exactly the bipolar gram vector.
    const auto sums = encoder.encode(gram);
    const auto bound = encoder.gram_hv(gram);
    for (std::size_t j = 0; j < kDim; ++j) ASSERT_EQ(sums[j], bound.get(j)) << "column " << j;
    EXPECT_EQ(sums.zero_count(), 0u);
}

// encode() feeds the kernel each gram as a pair it binds on load: the
// binding of the older, rotated positions (all-zero for a 1-gram) and the
// newest symbol.  The result must be the column-wise sum of gram_hv over
// every gram, for gram sizes 1-3, at gram counts on both sides of encode's
// 64-gram batches, at a dimension with a tail word, on every backend.
TEST(NGramEncoder, EncodeIsTheSumOfEveryGramVector) {
    constexpr std::size_t kTailDim = 1000;
    constexpr std::size_t kAlphabet = 5;
    util::Xoshiro256ss rng(404);
    for (const std::size_t gram_size : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
        const NGramEncoder encoder(hdc::generate_symbol_hvs(kTailDim, kAlphabet, 6), gram_size,
                                   /*tie_seed=*/77);
        for (const std::size_t n_grams :
             {std::size_t{1}, std::size_t{64}, std::size_t{65}, std::size_t{130}}) {
            std::vector<int> sequence(n_grams + gram_size - 1);
            for (auto& symbol : sequence) symbol = static_cast<int>(rng.next_below(kAlphabet));
            const std::span<const int> grams(sequence);
            hdc::IntHV expected(kTailDim);
            for (std::size_t t = 0; t < n_grams; ++t) {
                expected.add(encoder.gram_hv(grams.subspan(t, gram_size)));
            }
            for (const auto kind : util::kernels::available_backends()) {
                const util::kernels::ScopedBackend pin(kind);
                const hdc::IntHV actual = encoder.encode(sequence);
                ASSERT_EQ(actual.dim(), kTailDim);
                for (std::size_t j = 0; j < kTailDim; ++j) {
                    ASSERT_EQ(actual[j], expected[j])
                        << util::kernels::backend_name(kind) << " gram size " << gram_size
                        << ", " << n_grams << " grams, column " << j;
                }
            }
        }
    }
}

TEST(NGramEncoder, GramBindingUsesPositionPermutation) {
    const auto encoder = make_encoder(4, 2);
    const auto ab = encoder.gram_hv(std::vector<int>{0, 1});
    const auto manual = encoder.symbol_hv(0).rotated(1) * encoder.symbol_hv(1);
    EXPECT_EQ(ab, manual);
}

TEST(NGramEncoder, OrderMatters) {
    const auto encoder = make_encoder(4, 2);
    const auto ab = encoder.gram_hv(std::vector<int>{0, 1});
    const auto ba = encoder.gram_hv(std::vector<int>{1, 0});
    EXPECT_NEAR(ab.normalized_hamming(ba), 0.5, 0.05);
}

TEST(NGramEncoder, BagOfSymbolsIsOrderFree) {
    const auto encoder = make_encoder(5, 1);
    const std::vector<int> forward{0, 1, 2, 3, 4, 2, 1};
    std::vector<int> backward(forward.rbegin(), forward.rend());
    EXPECT_EQ(encoder.encode(forward), encoder.encode(backward));
}

TEST(NGramEncoder, SharedGramsKeepSequencesClose) {
    const auto encoder = make_encoder(6, 3);
    util::Xoshiro256ss rng(9);
    std::vector<int> base(64);
    for (auto& symbol : base) symbol = static_cast<int>(rng.next_below(6));
    std::vector<int> perturbed = base;
    perturbed[30] = (perturbed[30] + 1) % 6;  // disturbs only 3 grams of 62

    std::vector<int> unrelated(64);
    for (auto& symbol : unrelated) symbol = static_cast<int>(rng.next_below(6));

    const auto h_base = encoder.encode_binary(base);
    const double near = h_base.normalized_hamming(encoder.encode_binary(perturbed));
    const double far = h_base.normalized_hamming(encoder.encode_binary(unrelated));
    EXPECT_LT(near, 0.2);
    EXPECT_GT(far, 0.4);
}

TEST(NGramEncoder, BinaryEncodingIsDeterministicPerInput) {
    const auto encoder = make_encoder(4, 2);
    const std::vector<int> sequence{0, 1, 2, 3, 2, 1, 0, 2};
    EXPECT_EQ(encoder.encode_binary(sequence), encoder.encode_binary(sequence));
}

TEST(NGramEncoder, LockedSymbolMemoryIsOrthogonalAndKeyDependent) {
    PublicStoreConfig store_config;
    store_config.dim = kDim;
    store_config.pool_size = 16;
    store_config.n_levels = 2;
    store_config.seed = 21;
    ValueMapping unused;
    const auto store = PublicStore::generate(store_config, unused);

    const auto key_a = LockKey::random(/*n_features=*/8, /*n_layers=*/2, 16, kDim, /*seed=*/1);
    const auto key_b = LockKey::random(8, 2, 16, kDim, /*seed=*/2);
    const auto symbols_a = materialize_locked_symbols(store, key_a);
    const auto symbols_b = materialize_locked_symbols(store, key_b);

    ASSERT_EQ(symbols_a.size(), 8u);
    for (std::size_t x = 0; x < symbols_a.size(); ++x) {
        for (std::size_t y = x + 1; y < symbols_a.size(); ++y) {
            EXPECT_NEAR(symbols_a[x].normalized_hamming(symbols_a[y]), 0.5, 0.06);
        }
        // A different key materializes a different alphabet.
        EXPECT_NEAR(symbols_a[x].normalized_hamming(symbols_b[x]), 0.5, 0.06);
    }
}

TEST(NGramEncoder, SequenceClassificationWorksPlainAndLocked) {
    // End to end: 3-class Markov sequences, bigram encoding, HdcModel on
    // top.  The locked symbol memory must classify exactly as well as an
    // unprotected one — Fig. 8's claim carried over to the n-gram family.
    constexpr std::size_t kAlphabet = 8;
    constexpr int kClasses = 3;
    constexpr std::size_t kTrainPerClass = 30;
    constexpr std::size_t kTestPerClass = 15;

    PublicStoreConfig store_config;
    store_config.dim = kDim;
    store_config.pool_size = kAlphabet;
    store_config.n_levels = 2;
    store_config.seed = 33;
    ValueMapping unused;
    const auto store = PublicStore::generate(store_config, unused);
    const auto key = LockKey::random(kAlphabet, 2, kAlphabet, kDim, /*seed=*/4);

    const NGramEncoder plain(hdc::generate_symbol_hvs(kDim, kAlphabet, 5), 2, 77);
    const NGramEncoder locked(materialize_locked_symbols(store, key), 2, 77);

    for (const auto* encoder : {&plain, &locked}) {
        util::Xoshiro256ss rng(1234);
        hdc::EncodedBatch train_batch;
        for (std::size_t s = 0; s < kTrainPerClass * kClasses; ++s) {
            const int cls = static_cast<int>(s % kClasses);
            const auto sequence = class_sequence(cls, 48, kAlphabet, rng);
            train_batch.non_binary.push_back(encoder->encode(sequence));
            train_batch.binary.push_back(encoder->encode_binary(sequence));
            train_batch.labels.push_back(cls);
        }
        hdc::TrainConfig train_config;
        train_config.kind = hdc::ModelKind::binary;
        train_config.retrain_epochs = 5;
        const auto model = hdc::HdcModel::train(train_batch, kClasses, train_config);

        hdc::EncodedBatch test_batch;
        for (std::size_t s = 0; s < kTestPerClass * kClasses; ++s) {
            const int cls = static_cast<int>(s % kClasses);
            const auto sequence = class_sequence(cls, 48, kAlphabet, rng);
            test_batch.non_binary.push_back(encoder->encode(sequence));
            test_batch.binary.push_back(encoder->encode_binary(sequence));
            test_batch.labels.push_back(cls);
        }
        EXPECT_GT(model.evaluate(test_batch), 0.85)
            << (encoder == &plain ? "plain" : "locked");
    }
}
