#include "core/key.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <set>
#include <utility>

namespace hdlock {

namespace {

std::uint64_t ceil_log2(std::uint64_t value) {
    if (value <= 1) return 0;
    return static_cast<std::uint64_t>(std::bit_width(value - 1));
}

}  // namespace

LockKey::LockKey(LockKey&& other) noexcept
    : n_features_(std::exchange(other.n_features_, 0)),
      n_layers_(std::exchange(other.n_layers_, 0)),
      entries_(std::move(other.entries_)) {}

LockKey& LockKey::operator=(LockKey&& other) noexcept {
    if (this != &other) {
        entries_ = std::move(other.entries_);  // scrubs the overwritten entries
        n_features_ = std::exchange(other.n_features_, 0);
        n_layers_ = std::exchange(other.n_layers_, 0);
    }
    return *this;
}

LockKey LockKey::clone() const {
    LockKey copy;
    copy.n_features_ = n_features_;
    copy.n_layers_ = n_layers_;
    copy.entries_ = entries_;
    return copy;
}

void LockKey::scrub() noexcept {
    entries_.clear();  // secure_zero over every live entry
    n_features_ = 0;
    n_layers_ = 0;
}

LockKey LockKey::random(std::size_t n_features, std::size_t n_layers, std::size_t pool_size,
                        std::size_t dim, std::uint64_t seed) {
    HDLOCK_EXPECTS(n_features > 0, "LockKey::random: n_features must be positive");
    HDLOCK_EXPECTS(n_layers >= 1, "LockKey::random: use plain()/plain_random() for L = 0");
    HDLOCK_EXPECTS(pool_size > 0, "LockKey::random: empty base pool");
    HDLOCK_EXPECTS(dim > 0, "LockKey::random: dim must be positive");
    // Distinctness must be achievable: the sub-key space (P*D)^L has to
    // exceed the feature count comfortably (true for every practical config).
    HDLOCK_EXPECTS(static_cast<double>(pool_size) * static_cast<double>(dim) >=
                       2.0 * static_cast<double>(n_features),
                   "LockKey::random: sub-key space too small for distinct sub-keys");

    util::Xoshiro256ss rng(seed);
    LockKey key;
    key.n_features_ = n_features;
    key.n_layers_ = n_layers;
    key.entries_.resize(n_features * n_layers);

    std::set<std::vector<std::uint64_t>> seen;
    for (std::size_t i = 0; i < n_features; ++i) {
        std::vector<std::uint64_t> fingerprint(n_layers);
        do {
            for (std::size_t l = 0; l < n_layers; ++l) {
                SubKeyEntry& entry = key.entries_[i * n_layers + l];
                entry.base_index = static_cast<std::uint32_t>(rng.next_below(pool_size));
                entry.rotation = static_cast<std::uint32_t>(rng.next_below(dim));
                fingerprint[l] =
                    (static_cast<std::uint64_t>(entry.base_index) << 32) | entry.rotation;
            }
        } while (!seen.insert(fingerprint).second);
    }
    return key;
}

LockKey LockKey::plain(std::vector<std::uint32_t> permutation) {
    HDLOCK_EXPECTS(!permutation.empty(), "LockKey::plain: empty mapping");
    std::set<std::uint32_t> unique(permutation.begin(), permutation.end());
    HDLOCK_EXPECTS(unique.size() == permutation.size(),
                   "LockKey::plain: mapping must be injective");

    LockKey key;
    key.n_features_ = permutation.size();
    key.n_layers_ = 0;
    key.entries_.reserve(permutation.size());
    for (const std::uint32_t index : permutation) {
        key.entries_.push_back(SubKeyEntry{index, 0});
    }
    return key;
}

LockKey LockKey::plain_random(std::size_t n_features, std::size_t pool_size,
                              std::uint64_t seed) {
    HDLOCK_EXPECTS(n_features > 0, "LockKey::plain_random: n_features must be positive");
    HDLOCK_EXPECTS(pool_size >= n_features,
                   "LockKey::plain_random: pool must hold at least one HV per feature");
    std::vector<std::uint32_t> slots(pool_size);
    std::iota(slots.begin(), slots.end(), 0u);
    util::Xoshiro256ss rng(seed);
    rng.shuffle(std::span<std::uint32_t>(slots));
    slots.resize(n_features);
    return plain(std::move(slots));
}

const SubKeyEntry& LockKey::entry(std::size_t feature, std::size_t layer) const {
    HDLOCK_EXPECTS(feature < n_features_, "LockKey::entry: feature out of range");
    HDLOCK_EXPECTS(layer < entries_per_feature(), "LockKey::entry: layer out of range");
    return entries_[feature * entries_per_feature() + layer];
}

std::span<const SubKeyEntry> LockKey::sub_key(std::size_t feature) const {
    HDLOCK_EXPECTS(feature < n_features_, "LockKey::sub_key: feature out of range");
    return std::span<const SubKeyEntry>(entries_.data(), entries_.size())
        .subspan(feature * entries_per_feature(), entries_per_feature());
}

LockKey LockKey::with_entry(std::size_t feature, std::size_t layer, SubKeyEntry entry) const {
    HDLOCK_EXPECTS(feature < n_features_, "LockKey::with_entry: feature out of range");
    HDLOCK_EXPECTS(layer < entries_per_feature(), "LockKey::with_entry: layer out of range");
    HDLOCK_EXPECTS(!is_plain() || entry.rotation == 0,
                   "LockKey::with_entry: plain keys cannot carry rotations");
    LockKey copy = clone();
    copy.entries_[feature * entries_per_feature() + layer] = entry;
    return copy;
}

std::uint64_t LockKey::storage_bits(std::size_t pool_size, std::size_t dim) const {
    const std::uint64_t index_bits = ceil_log2(pool_size);
    const std::uint64_t rotation_bits = is_plain() ? 0 : ceil_log2(dim);
    return static_cast<std::uint64_t>(n_features_) * entries_per_feature() *
           (index_bits + rotation_bits);
}

void LockKey::save(util::BinaryWriter& writer) const {
    writer.write_tag("LKEY");
    writer.write_u64(n_features_);
    writer.write_u64(n_layers_);
    writer.write_u64(entries_.size());
    for (const auto& entry : entries_) {
        writer.write_u32(entry.base_index);
        writer.write_u32(entry.rotation);
    }
}

LockKey LockKey::load(util::BinaryReader& reader) {
    reader.expect_tag("LKEY");
    LockKey key;
    const std::uint64_t n_features = reader.read_u64();
    const std::uint64_t n_layers = reader.read_u64();
    const std::uint64_t n_entries = reader.read_u64();
    // Bound both factors before multiplying: an unbounded product wraps,
    // and a wrapped shape would load a key whose entry table is too short.
    if (n_features > (1ULL << 24) || n_layers > (1ULL << 24)) {
        throw FormatError("LockKey::load: unreasonable key shape");
    }
    key.n_features_ = static_cast<std::size_t>(n_features);
    key.n_layers_ = static_cast<std::size_t>(n_layers);
    if (n_entries != key.n_features_ * key.entries_per_feature()) {
        throw FormatError("LockKey::load: entry count does not match shape");
    }
    // No reserve: the table grows with the entries actually read.
    for (std::uint64_t i = 0; i < n_entries; ++i) {
        SubKeyEntry entry;
        entry.base_index = reader.read_u32();
        entry.rotation = reader.read_u32();
        key.entries_.push_back(entry);
    }
    return key;
}

}  // namespace hdlock
