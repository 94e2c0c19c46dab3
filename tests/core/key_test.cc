// Tests for the HDLock key (src/core/key.*).

#include "core/key.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <sstream>
#include <type_traits>
#include <utility>

using hdlock::ContractViolation;
using hdlock::FormatError;
using hdlock::LockKey;
using hdlock::SubKeyEntry;

TEST(LockKey, RandomKeyShapeAndRanges) {
    const auto key = LockKey::random(/*n_features=*/50, /*n_layers=*/3, /*pool_size=*/16,
                                     /*dim=*/1000, /*seed=*/1);
    EXPECT_EQ(key.n_features(), 50u);
    EXPECT_EQ(key.n_layers(), 3u);
    EXPECT_EQ(key.entries_per_feature(), 3u);
    EXPECT_FALSE(key.is_plain());
    for (std::size_t i = 0; i < key.n_features(); ++i) {
        for (const SubKeyEntry& entry : key.sub_key(i)) {
            EXPECT_LT(entry.base_index, 16u);
            EXPECT_LT(entry.rotation, 1000u);
        }
    }
}

TEST(LockKey, RandomKeySubKeysAreDistinct) {
    // Duplicate sub-keys would make two features share one FeaHV; the
    // generator must reject them even in a deliberately tight space.
    const auto key = LockKey::random(100, 1, 4, 64, 7);  // space = 256 >> 100
    std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
    for (std::size_t i = 0; i < key.n_features(); ++i) {
        const auto& entry = key.entry(i, 0);
        EXPECT_TRUE(seen.insert({entry.base_index, entry.rotation}).second)
            << "duplicate sub-key at feature " << i;
    }
}

TEST(LockKey, RandomKeyDeterministicPerSeed) {
    const auto a = LockKey::random(20, 2, 10, 100, 5);
    const auto b = LockKey::random(20, 2, 10, 100, 5);
    const auto c = LockKey::random(20, 2, 10, 100, 6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(LockKey, PlainKeyMapsDirectly) {
    const auto key = LockKey::plain({4, 2, 0});
    EXPECT_TRUE(key.is_plain());
    EXPECT_EQ(key.n_layers(), 0u);
    EXPECT_EQ(key.entries_per_feature(), 1u);
    EXPECT_EQ(key.entry(0, 0).base_index, 4u);
    EXPECT_EQ(key.entry(1, 0).base_index, 2u);
    EXPECT_EQ(key.entry(2, 0).base_index, 0u);
    EXPECT_EQ(key.entry(2, 0).rotation, 0u);
}

TEST(LockKey, PlainKeyRequiresInjectiveMapping) {
    EXPECT_THROW(LockKey::plain({1, 1}), ContractViolation);
    EXPECT_THROW(LockKey::plain({}), ContractViolation);
}

TEST(LockKey, PlainRandomIsInjectivePermutation) {
    const auto key = LockKey::plain_random(30, 30, 9);
    std::set<std::uint32_t> seen;
    for (std::size_t i = 0; i < 30; ++i) {
        const auto& entry = key.entry(i, 0);
        EXPECT_LT(entry.base_index, 30u);
        EXPECT_EQ(entry.rotation, 0u);
        EXPECT_TRUE(seen.insert(entry.base_index).second);
    }
    EXPECT_THROW(LockKey::plain_random(10, 9, 1), ContractViolation);
}

TEST(LockKey, WithEntryReplacesOneEntry) {
    const auto key = LockKey::random(5, 2, 8, 64, 11);
    const SubKeyEntry replacement{7, 63};
    const auto modified = key.with_entry(3, 1, replacement);
    EXPECT_EQ(modified.entry(3, 1), replacement);
    EXPECT_EQ(modified.entry(3, 0), key.entry(3, 0));
    EXPECT_EQ(modified.entry(2, 1), key.entry(2, 1));
    EXPECT_NE(modified, key);
    EXPECT_THROW(key.with_entry(5, 0, replacement), ContractViolation);
    EXPECT_THROW(key.with_entry(0, 2, replacement), ContractViolation);
}

TEST(LockKey, WithEntryOnPlainKeyForbidsRotation) {
    const auto key = LockKey::plain({0, 1, 2});
    EXPECT_NO_THROW(key.with_entry(0, 0, SubKeyEntry{2, 0}));
    EXPECT_THROW(key.with_entry(0, 0, SubKeyEntry{2, 5}), ContractViolation);
}

TEST(LockKey, StorageBitsMatchPaperConfigs) {
    // MNIST with L = 2, P = 784, D = 10000: 784 features x 2 layers x
    // (ceil(log2 784) + ceil(log2 10000)) = 784 * 2 * (10 + 14) bits.
    const auto key = LockKey::random(784, 2, 784, 10000, 3);
    EXPECT_EQ(key.storage_bits(784, 10000), 784ull * 2 * (10 + 14));

    // The plain key stores only pool indices.
    const auto plain = LockKey::plain_random(784, 784, 3);
    EXPECT_EQ(plain.storage_bits(784, 10000), 784ull * 10);
}

TEST(LockKey, RandomRejectsBadArguments) {
    EXPECT_THROW(LockKey::random(0, 1, 4, 64, 1), ContractViolation);
    EXPECT_THROW(LockKey::random(10, 0, 4, 64, 1), ContractViolation);
    EXPECT_THROW(LockKey::random(10, 1, 0, 64, 1), ContractViolation);
    EXPECT_THROW(LockKey::random(10, 1, 4, 0, 1), ContractViolation);
    // Sub-key space too small for distinct sub-keys: 2 * 2 < 2 * 10.
    EXPECT_THROW(LockKey::random(10, 1, 2, 2, 1), ContractViolation);
}

TEST(LockKey, AccessorsBoundsChecked) {
    const auto key = LockKey::random(5, 2, 8, 64, 13);
    EXPECT_THROW(key.entry(5, 0), ContractViolation);
    EXPECT_THROW(key.entry(0, 2), ContractViolation);
    EXPECT_THROW(key.sub_key(5), ContractViolation);
}

TEST(LockKey, SerializationRoundTrip) {
    const auto key = LockKey::random(17, 3, 12, 256, 15);
    std::stringstream stream;
    hdlock::util::BinaryWriter writer(stream);
    key.save(writer);
    hdlock::util::BinaryReader reader(stream);
    EXPECT_EQ(LockKey::load(reader), key);
}

TEST(LockKey, PlainSerializationRoundTrip) {
    const auto key = LockKey::plain({3, 1, 4, 0});
    std::stringstream stream;
    hdlock::util::BinaryWriter writer(stream);
    key.save(writer);
    hdlock::util::BinaryReader reader(stream);
    const auto loaded = LockKey::load(reader);
    EXPECT_EQ(loaded, key);
    EXPECT_TRUE(loaded.is_plain());
}

TEST(LockKey, LoadRejectsInconsistentShape) {
    const auto load = [](std::uint64_t n_features, std::uint64_t n_layers,
                         std::uint64_t n_entries, int entries_present) {
        std::stringstream stream;
        hdlock::util::BinaryWriter writer(stream);
        writer.write_tag("LKEY");
        writer.write_u64(n_features);
        writer.write_u64(n_layers);
        writer.write_u64(n_entries);
        for (int i = 0; i < entries_present; ++i) {
            writer.write_u32(0);
            writer.write_u32(0);
        }
        hdlock::util::BinaryReader reader(stream);
        return LockKey::load(reader);
    };
    // 4 features x 2 layers expects 8 entries, but only 3 are claimed.
    EXPECT_THROW(load(4, 2, 3, 3), FormatError);
    // 2^63 x 2 wraps to 0 entries: must not load as a key with an empty
    // entry table (sub_key(0) would then read past it).
    EXPECT_THROW(load(1ULL << 63, 2, 0, 0), FormatError);
    // A self-consistent but absurd shape must be refused before anything
    // is allocated for it.
    EXPECT_THROW(load(1ULL << 32, 2, 1ULL << 33, 1), FormatError);
    EXPECT_NO_THROW(load(4, 2, 8, 8));
}

// ---------------------------------------------------------------------------
// Confinement surface: LockKey is move-only, duplication is the explicit
// clone(), and dead keys scrub their entry storage (PR: key-confinement
// static analysis; see DESIGN.md §7 and util/secure_mem.hpp).
// ---------------------------------------------------------------------------

static_assert(!std::is_copy_constructible_v<LockKey>,
              "LockKey must not be copyable; use the explicit clone()");
static_assert(!std::is_copy_assignable_v<LockKey>,
              "LockKey must not be copy-assignable; use the explicit clone()");
static_assert(std::is_nothrow_move_constructible_v<LockKey>);
static_assert(std::is_nothrow_move_assignable_v<LockKey>);

TEST(LockKeyConfinement, CloneIsEqualButIndependent) {
    const auto key = LockKey::random(8, 2, 16, 256, /*seed=*/11);
    LockKey copy = key.clone();
    EXPECT_EQ(copy, key);
    copy = copy.with_entry(0, 0, SubKeyEntry{1, 2});
    EXPECT_EQ(key.n_features(), 8u);  // original untouched
}

TEST(LockKeyConfinement, MoveEmptiesTheSource) {
    LockKey key = LockKey::random(8, 2, 16, 256, /*seed=*/12);
    const LockKey moved = std::move(key);
    EXPECT_EQ(moved.n_features(), 8u);
    // NOLINTNEXTLINE(bugprone-use-after-move): the post-move state is the API
    EXPECT_EQ(key.n_features(), 0u);
    EXPECT_EQ(key, LockKey{});
}

TEST(LockKeyConfinement, ScrubEmptiesTheKey) {
    LockKey key = LockKey::random(8, 2, 16, 256, /*seed=*/13);
    key.scrub();
    EXPECT_EQ(key.n_features(), 0u);
    EXPECT_EQ(key.n_layers(), 0u);
    EXPECT_EQ(key, LockKey{});
}

TEST(LockKeyConfinement, DestructionZeroesEntryStorage) {
    // SecureVector::clear() retains the allocation, so scrubbing is legally
    // observable: hold the entry storage across scrub() and read back zeros.
    LockKey key = LockKey::random(16, 3, 32, 512, /*seed=*/14);
    const SubKeyEntry* storage = key.sub_key(0).data();
    ASSERT_NE(storage, nullptr);
    bool any_nonzero = false;
    for (std::size_t i = 0; i < 16 * 3; ++i) {
        any_nonzero |= storage[i].base_index != 0 || storage[i].rotation != 0;
    }
    ASSERT_TRUE(any_nonzero) << "a random key with live entries";

    key.scrub();  // same scrub path the destructor takes
    for (std::size_t i = 0; i < 16 * 3; ++i) {
        EXPECT_EQ(storage[i].base_index, 0u);
        EXPECT_EQ(storage[i].rotation, 0u);
    }
}
