#pragma once

/// \file stores.hpp
/// The two memories of the paper's threat model (Sec. 3.1).
///
/// PublicStore models the non-secured hypervector memory: the attacker can
/// read every base hypervector and every value hypervector, but sees them
/// *unindexed* — the store keeps value hypervectors in a secret shuffled
/// order and base hypervectors carry no feature association at all.
///
/// SecureStore models the tamper-proof memory [15] holding the index mapping
/// (the "key"): the HDLock key of Eq. 9 plus the level->slot mapping of the
/// value hypervectors.  After seal(), reads throw AccessDenied — this is the
/// software simulation of the trust boundary, chosen per DESIGN.md §2
/// because the security argument only needs the boundary, not the silicon.
///
/// Because SecureStore carries the key, this is a secret header
/// (hdlock-lint: secret-header): device translation units must never reach
/// it — they receive the PublicStore through the bundle loader and the
/// materialized encoder state instead (tools/lint/hdlock_lint enforces it).

#include <cstdint>
#include <memory>
#include <vector>

#include "core/key.hpp"
#include "hdc/item_memory.hpp"
#include "util/confinement.hpp"

namespace hdlock {

/// Read attempted on sealed secure memory.
class AccessDenied : public Error {
public:
    using Error::Error;
};

/// Secret mapping from semantic value level (0..M-1) to the slot of the
/// corresponding ValHV inside the public store.
using ValueMapping = std::vector<std::uint32_t>;

struct PublicStoreConfig {
    std::size_t dim = 10000;    ///< hypervector dimensionality D
    std::size_t pool_size = 0;  ///< number of base hypervectors P
    std::size_t n_levels = 2;   ///< number of value hypervectors M
    std::uint64_t seed = 1;
};

/// Attacker-readable hypervector memory: P orthogonal base hypervectors and
/// M value hypervectors stored in a secret order.
class PublicStore {
public:
    PublicStore() = default;

    /// Generates the store contents and returns the secret level->slot value
    /// mapping through `value_mapping` (which belongs in a SecureStore).
    static PublicStore generate(const PublicStoreConfig& config, ValueMapping& value_mapping);

    std::size_t dim() const noexcept { return dim_; }
    std::size_t pool_size() const noexcept { return bases_.size(); }
    std::size_t n_levels() const noexcept { return value_hvs_.size(); }

    const hdc::BinaryHV& base(std::size_t index) const;
    const std::vector<hdc::BinaryHV>& bases() const noexcept { return bases_; }

    /// Value hypervector by *storage slot* (not by level — the level order is
    /// exactly what the attacker does not know).
    const hdc::BinaryHV& value_slot(std::size_t slot) const;
    const std::vector<hdc::BinaryHV>& value_slots() const noexcept { return value_hvs_; }

    /// The store section of a v2+ `.hdlk` ("PUB2"): shape header + two
    /// 64-byte-aligned contiguous word blocks.  A mapped load aliases every
    /// hypervector into the backing buffer (no copy); stream loads copy and
    /// are byte-wise interchangeable.
    void save(util::BinaryWriter& writer) const;
    static PublicStore load(util::BinaryReader& reader);

    /// Reads the v1 store section ("PUBS": per-hypervector `BHV1` records).
    /// Read-only: nothing writes this format any more.
    static PublicStore load_v1(util::BinaryReader& reader);

private:
    std::size_t dim_ = 0;
    std::vector<hdc::BinaryHV> bases_;
    std::vector<hdc::BinaryHV> value_hvs_;
};

/// Simulated tamper-proof key memory. Owner code reads the secrets while the
/// store is unsealed (provisioning time); seal() flips the device into its
/// deployed state where every read throws AccessDenied.
class HDLOCK_SECRET SecureStore {
public:
    SecureStore(LockKey key, ValueMapping value_mapping);

    HDLOCK_SECRET const LockKey& key() const;
    HDLOCK_SECRET const ValueMapping& value_mapping() const;

    void seal() noexcept { sealed_ = true; }
    bool sealed() const noexcept { return sealed_; }

    /// Secure-memory footprint in bits: what the tamper-proof memory must
    /// hold (key entries + value mapping), per the threat-model argument that
    /// secure memory is far too small for the full model.
    std::uint64_t storage_bits(std::size_t pool_size, std::size_t dim) const;

private:
    LockKey key_;
    ValueMapping value_mapping_;
    bool sealed_ = false;
};

}  // namespace hdlock
