#pragma once

/// \file bundle.hpp
/// The `.hdlk` deployment artifact: one versioned file per deployment.
///
/// Replaces the five loose files (store.bin, key.bin, mapping.bin,
/// model.hdc, disc.bin) the tooling used to hand-wire.  A bundle comes in
/// two variants mirroring the paper's trust boundary (Sec. 3.1):
///
///   owner   public store + SECRET section (LockKey + ValueMapping)
///           [+ discretizer] [+ model]           -- stays with the owner
///   device  public store + MATERIALIZED encoder state (FeaHVs + level-
///           ordered ValHVs) [+ discretizer] [+ model] -- ships to the field
///
/// export_device() strips the SECRET section and replaces it with the
/// materialized Eq. 9 products, so a device artifact is *physically*
/// incapable of leaking the key: the bytes are simply not in the file.
///
/// On-disk layout (util/serialize.hpp primitives, little-endian).  Version 3
/// is the only write format.  Version 1 and 2 layouts are read-only: no
/// writer for them remains, their epoch defaults to 0 (pre-rotation
/// artifacts are epoch zero by definition), and the files an old build
/// wrote are pinned as golden fixtures under tests/api/fixtures/.
///
///   "HDLK"  u32 version  u8 kind(0=owner,1=device)  u64 tie_seed  u8 flags
///   v3+: u64 epoch   (key rotation generation; see api::Owner::rotate)
///   v2+: "PUB2" store shape + 64-byte-aligned word blocks
///   v1:  "PUBS" PublicStore (per-HV tagged)
///   owner:  "SECR" LockKey  "VMAP" u32 count, u32 slots...
///   device v2+: "SEN2" u64 n_features, u64 n_levels, u64 dim
///               + aligned FeaHV word block + aligned ValHV word block
///   device v1:  "SENC" u64 n_features {BinaryHV...} u64 n_levels {BinaryHV...}
///   flags bit0: "DSC1" MinMaxDiscretizer        (fitted discretizer)
///   flags bit1: "MDL2" (v2+) / "MDL1" (v1)      (trained model)
///   "HEND"
///
/// The trailing HEND tag makes truncation detectable even when the optional
/// sections happen to parse.
///
/// The v2 alignment rule: every bulk array (store bases/values, materialized
/// FeaHVs/ValHVs, model class HVs) starts at a 64-byte file offset, padded
/// with zero bytes that the reader verifies.  That is what lets
/// open_mapped() hand the stores and the model *views into the mapping*
/// (util::MappedFile) instead of copied vectors: device startup touches the
/// header and shape metadata, and the megabytes of hypervector words fault
/// in lazily as they are served.  A bundle loaded this way keeps the
/// mapping alive through `backing`.

#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "core/locked_encoder.hpp"
#include "core/stores.hpp"
#include "hdc/discretize.hpp"
#include "hdc/model.hpp"
#include "util/confinement.hpp"
#include "util/mapped_file.hpp"

namespace hdlock::api {

struct BundleSnapshot;  // api/inference_session.hpp

enum class BundleKind : std::uint8_t {
    owner = 0,  ///< carries the key; never leaves the owner's infrastructure
    device = 1  ///< key stripped; holds materialized encoder state instead
};

struct DeploymentBundle {
    static constexpr std::uint32_t kFormatVersion = 3;

    BundleKind kind = BundleKind::owner;
    std::uint64_t tie_seed = 0;
    /// Key-rotation generation: 0 for a fresh provision (and for every
    /// v1/v2 artifact), bumped by api::Owner::rotate.  Serving stamps it
    /// into Response::epoch so a hot swap is observable per request.
    std::uint64_t epoch = 0;
    std::shared_ptr<const PublicStore> store;

    /// Owner-only secret section; never populated for device bundles.
    /// A bundle holding one is move-only (LockKey forbids copies) — the
    /// copy_without_secrets() helper below is the deliberate escape hatch.
    HDLOCK_SECRET std::optional<LockKey> key;
    HDLOCK_SECRET std::optional<ValueMapping> value_mapping;

    /// Device-only materialized encoder state (Eq. 9 products and the
    /// level-ordered ValHVs); empty for owner bundles.
    std::vector<hdc::BinaryHV> feature_hvs;
    std::vector<hdc::BinaryHV> value_hvs;

    std::optional<hdc::MinMaxDiscretizer> discretizer;
    std::optional<hdc::HdcModel> model;

    /// Keeps the mmap alive when this bundle was produced by open_mapped():
    /// store/model/encoder-state hypervectors are then *views* into these
    /// bytes.  Null for stream-loaded bundles (everything owned).
    std::shared_ptr<const util::MappedFile> backing;

    bool has_key() const noexcept { return key.has_value(); }
    bool is_mapped() const noexcept { return backing != nullptr; }
    bool has_discretizer() const noexcept { return discretizer.has_value(); }
    bool has_model() const noexcept { return model.has_value(); }

    /// Assembles an owner bundle from a provisioned deployment (reads the
    /// SecureStore, which must be unsealed).
    static DeploymentBundle from_deployment(const Deployment& deployment);

    void save(util::BinaryWriter& writer) const;
    static DeploymentBundle load(util::BinaryReader& reader);

    /// Crash-safe persistence (util::atomic_file_write): serialize to a
    /// sibling temp, fsync, rename over `path`, fsync the directory.  A
    /// failure at any step — including the injected short-write / fsync /
    /// rename failpoints — leaves the previous file intact and no torn
    /// bytes at `path`.
    void save_atomic(const std::filesystem::path& path) const;

    /// The serving-facing view of this bundle for
    /// InferenceSession::swap_bundle / ShardRouter::swap_all: epoch +
    /// reconstructed encoder + discretizer/model copies + the mmap anchor.
    /// The owner-side types stay out of the serving layer; only this
    /// snapshot crosses.
    BundleSnapshot make_snapshot() const;

    /// Zero-copy startup: maps `path` (util::MappedFile, with its portable
    /// read fallback) and loads from the mapping, aliasing every v2 bulk
    /// section instead of copying it.  The returned bundle keeps the
    /// mapping alive through `backing`; v1 files load correctly but copy.
    /// `advice` forwards to MappedFile::open — Advice::willneed starts
    /// kernel readahead for the whole artifact at map time, trading a
    /// little I/O eagerness for no demand-fault stalls on the first served
    /// batch (serving bundles are read in full almost immediately).
    static DeploymentBundle open_mapped(
        const std::filesystem::path& path,
        util::MappedFile::Advice advice = util::MappedFile::Advice::none);

    /// Owner-side persistence; throws ContractViolation when called on a
    /// bundle without a key (a device bundle cannot be promoted to owner).
    void save_owner(const std::filesystem::path& path) const;
    static DeploymentBundle load_owner(const std::filesystem::path& path);

    /// Device bundle, as produced by export_device(). Throws FormatError
    /// when the file is an owner bundle: device-side code must never even
    /// transit key bytes through its address space.
    static DeploymentBundle load_device(const std::filesystem::path& path);

    /// The key-free field artifact: public store + materialized encoder
    /// state + whatever discretizer/model this bundle carries.
    DeploymentBundle export_device() const;
    void export_device(const std::filesystem::path& path) const;

    /// Duplicates everything except the secret section (key/value mapping
    /// stay empty).  The only sanctioned way to copy a bundle — bundles are
    /// move-only because the secret section is.
    DeploymentBundle copy_without_secrets() const;

    /// Builds a device bundle from an already-materialized encoder (no
    /// Eq. 9 re-computation); the single source of the device-bundle shape,
    /// shared by export_device() and api::Owner.
    static DeploymentBundle device_from_materialized(
        const LockedEncoder& encoder, std::shared_ptr<const PublicStore> store,
        std::optional<hdc::MinMaxDiscretizer> discretizer, std::optional<hdc::HdcModel> model);

    /// Reconstructs the encoder this bundle describes: a LockedEncoder for
    /// owner bundles (rebuilt from the key), a SealedEncoder for device
    /// bundles (from the materialized state).
    std::shared_ptr<const hdc::Encoder> make_encoder() const;

    /// Size of the serialized artifact in bytes (serializes to memory; used
    /// for deployment-cost reporting).
    std::uint64_t serialized_bytes() const;
};

}  // namespace hdlock::api
