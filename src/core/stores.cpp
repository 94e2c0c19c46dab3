#include "core/stores.hpp"

#include <numeric>

namespace hdlock {

PublicStore PublicStore::generate(const PublicStoreConfig& config, ValueMapping& value_mapping) {
    HDLOCK_EXPECTS(config.dim > 0, "PublicStore: dim must be positive");
    HDLOCK_EXPECTS(config.pool_size > 0, "PublicStore: pool_size must be positive");
    HDLOCK_EXPECTS(config.n_levels >= 2, "PublicStore: need at least two value levels");

    PublicStore store;
    store.dim_ = config.dim;

    util::Xoshiro256ss base_rng(util::hash_mix(config.seed, 0xBA5E));
    store.bases_.reserve(config.pool_size);
    for (std::size_t p = 0; p < config.pool_size; ++p) {
        store.bases_.push_back(hdc::BinaryHV::random(config.dim, base_rng));
    }

    // Ordered level hypervectors (Eq. 1b), then a secret shuffle of their
    // storage slots: the raw vectors are public, the level order is not.
    const auto ordered =
        hdc::ItemMemory::generate_level_hvs(config.dim, config.n_levels,
                                            util::hash_mix(config.seed, 0x1E7E));
    value_mapping.assign(config.n_levels, 0);
    std::iota(value_mapping.begin(), value_mapping.end(), 0u);
    util::Xoshiro256ss shuffle_rng(util::hash_mix(config.seed, 0x5ECE));
    shuffle_rng.shuffle(std::span<std::uint32_t>(value_mapping));

    store.value_hvs_.assign(config.n_levels, hdc::BinaryHV());
    for (std::size_t level = 0; level < config.n_levels; ++level) {
        store.value_hvs_[value_mapping[level]] = ordered[level];
    }
    return store;
}

const hdc::BinaryHV& PublicStore::base(std::size_t index) const {
    HDLOCK_EXPECTS(index < bases_.size(), "PublicStore::base: index out of range");
    return bases_[index];
}

const hdc::BinaryHV& PublicStore::value_slot(std::size_t slot) const {
    HDLOCK_EXPECTS(slot < value_hvs_.size(), "PublicStore::value_slot: slot out of range");
    return value_hvs_[slot];
}

namespace {

// The caps every store reader applies to its shape before reading a word.
void check_dim(std::uint64_t dim) {
    if (dim == 0 || dim > (1ULL << 28)) throw FormatError("PublicStore: unreasonable dimension");
}

void check_count(std::uint64_t count) {
    if (count > (1ULL << 24)) throw FormatError("PublicStore: unreasonable hypervector count");
}

}  // namespace

void PublicStore::save(util::BinaryWriter& writer) const {
    writer.write_tag("PUB2");
    writer.write_u64(dim_);
    writer.write_u64(bases_.size());
    writer.write_u64(value_hvs_.size());
    hdc::save_hv_block(writer, bases_, dim_);
    hdc::save_hv_block(writer, value_hvs_, dim_);
}

PublicStore PublicStore::load(util::BinaryReader& reader) {
    reader.expect_tag("PUB2");
    PublicStore store;
    const std::uint64_t dim = reader.read_u64();
    const std::uint64_t n_bases = reader.read_u64();
    const std::uint64_t n_values = reader.read_u64();
    check_dim(dim);
    check_count(n_bases);
    check_count(n_values);
    store.dim_ = static_cast<std::size_t>(dim);
    store.bases_ = hdc::load_hv_block(reader, store.dim_, static_cast<std::size_t>(n_bases));
    store.value_hvs_ = hdc::load_hv_block(reader, store.dim_, static_cast<std::size_t>(n_values));
    return store;
}

PublicStore PublicStore::load_v1(util::BinaryReader& reader) {
    reader.expect_tag("PUBS");
    PublicStore store;
    const std::uint64_t dim = reader.read_u64();
    const std::uint64_t n_bases = reader.read_u64();
    check_dim(dim);
    check_count(n_bases);
    store.dim_ = static_cast<std::size_t>(dim);
    // No reserve: the vectors grow with the records actually read, never
    // with what the counts claim.
    for (std::uint64_t i = 0; i < n_bases; ++i) {
        store.bases_.push_back(hdc::BinaryHV::load_v1(reader));
    }
    const std::uint64_t n_values = reader.read_u64();
    check_count(n_values);
    for (std::uint64_t i = 0; i < n_values; ++i) {
        store.value_hvs_.push_back(hdc::BinaryHV::load_v1(reader));
    }
    for (const auto& hv : store.bases_) {
        if (hv.dim() != store.dim_) throw FormatError("PublicStore::load_v1: dimension mismatch");
    }
    for (const auto& hv : store.value_hvs_) {
        if (hv.dim() != store.dim_) throw FormatError("PublicStore::load_v1: dimension mismatch");
    }
    return store;
}

SecureStore::SecureStore(LockKey key, ValueMapping value_mapping)
    : key_(std::move(key)), value_mapping_(std::move(value_mapping)) {
    HDLOCK_EXPECTS(key_.n_features() > 0, "SecureStore: empty key");
    HDLOCK_EXPECTS(!value_mapping_.empty(), "SecureStore: empty value mapping");
}

const LockKey& SecureStore::key() const {
    if (sealed_) throw AccessDenied("SecureStore: key read attempted after seal()");
    return key_;
}

const ValueMapping& SecureStore::value_mapping() const {
    if (sealed_) throw AccessDenied("SecureStore: value mapping read attempted after seal()");
    return value_mapping_;
}

std::uint64_t SecureStore::storage_bits(std::size_t pool_size, std::size_t dim) const {
    // Value mapping: M slots of ceil(log2 M) bits each.
    std::uint64_t level_bits = 0;
    std::uint64_t levels = value_mapping_.size();
    while ((1ull << level_bits) < levels) ++level_bits;
    return key_.storage_bits(pool_size, dim) +
           static_cast<std::uint64_t>(value_mapping_.size()) * level_bits;
}

}  // namespace hdlock
