#pragma once

/// \file facades.hpp
/// The paper's two roles as types: api::Owner and api::Device.
///
/// HDLock's entire argument (Sec. 3-4) is a privilege split — the owner
/// holds the key in tamper-proof memory, the device/attacker sees only the
/// public store and encoding outputs.  These facades make that split a
/// *type-level* boundary instead of a calling convention:
///
///   Owner   provision / train / audit / rotate the key / export bundles.
///           Privileged accessors (key(), value_mapping()) exist here and
///           only here.
///   Device  what ships to the field: a SealedEncoder (materialized
///           hypervectors, no key member), the public store, and optionally
///           a discretizer + model for serving.  There is no method on
///           Device that can return key material — red-team code handed a
///           Device cannot reach the key by construction.
///
/// Both sides serve batches through api::InferenceSession.  The older free
/// functions (provision(), HdcClassifier::fit, ...) remain as the layer
/// underneath and keep working for one more release; new code should start
/// here.

#include <filesystem>
#include <optional>

#include "api/bundle.hpp"
#include "api/inference_session.hpp"
#include "api/sealed_encoder.hpp"
#include "api/shard_router.hpp"
#include "core/key_tools.hpp"
#include "core/locked_encoder.hpp"
#include "data/dataset.hpp"
#include "hdc/classifier.hpp"
#include "util/confinement.hpp"

namespace hdlock::api {

struct TrainOptions {
    hdc::ModelKind kind = hdc::ModelKind::binary;
    int retrain_epochs = 10;
    hdc::DiscretizerMode discretizer_mode = hdc::DiscretizerMode::global;
    std::uint64_t seed = 1;
};

/// Knobs for Owner::rotate — the full key rotation pipeline (rotate_key()
/// underneath is the key-only primitive).
struct RotateOptions {
    /// Seed for the fresh sub-keys (core/key_tools.hpp rekey).
    std::uint64_t seed = 1;
    /// How to retrain the model against the rotated encoder.
    TrainOptions train{};
};

/// What one Owner::rotate call did, for logs and the CLI.
struct RotationReport {
    std::uint64_t previous_epoch = 0;
    /// The new generation: previous_epoch + 1.  Every bundle the owner
    /// produces from here on carries it.
    std::uint64_t epoch = 0;
    /// Training-set accuracy of the retrained model.
    double train_accuracy = 0.0;
};

class Device;

/// The privileged side of a deployment.
class HDLOCK_OWNER_ONLY Owner {
public:
    /// Provisions a fresh deployment (public store, key, locked encoder).
    static Owner provision(const DeploymentConfig& config);

    /// Restores an owner from an owner `.hdlk` bundle; throws FormatError
    /// on device bundles (their key was stripped — nothing to own).
    static Owner load(const std::filesystem::path& path);
    void save(const std::filesystem::path& path) const;

    /// Crash-safe save (DeploymentBundle::save_atomic): serialize → sibling
    /// temp → fsync → rename.  A failure at any step — power loss included —
    /// leaves whatever was previously at `path` intact and readable.
    void save_atomic(const std::filesystem::path& path) const;

    /// Fits discretizer + HDC model through the locked encoder; returns the
    /// training-set accuracy. Replaces any previously trained model.
    double train(const data::Dataset& train_set, const TrainOptions& options = {});
    bool trained() const noexcept { return model_.has_value(); }

    /// Accuracy on a labeled dataset (requires a trained model).
    double evaluate(const data::Dataset& dataset) const;
    /// Single-row / batched predict, following the predict-surface
    /// convention in inference_session.hpp (predict() mints a session per
    /// call, like evaluate(); open a session for repeated batches).
    int predict_row(std::span<const float> row) const;
    std::vector<int> predict(const util::Matrix<float>& rows) const;

    /// Pre-seal key hygiene: bounds + feature-aliasing + entropy report.
    KeyAuditReport audit() const;

    /// Replaces the key after a suspected leak (core/key_tools.hpp rekey):
    /// fresh sub-keys sharing no layer pair with the old key, encoder
    /// re-materialized, epoch bumped.  The trained model is discarded — it
    /// was fitted against the old feature hypervectors; retrain before
    /// serving (or use rotate(), which does both).
    void rotate_key(std::uint64_t seed);

    /// The full zero-downtime rotation pipeline: rekey + retrain on
    /// `train_set` + epoch bump, all-or-nothing.  On success the owner is
    /// the next generation — persist with save_atomic / export_device_atomic
    /// and push to live serving via InferenceSession::swap_bundle or
    /// ShardRouter::swap_all.  On failure throws RotationError and leaves
    /// this owner byte-for-byte unchanged (old key, old model, old epoch).
    RotationReport rotate(const data::Dataset& train_set, const RotateOptions& options = {});

    /// Key-rotation generation stamped into every bundle this owner
    /// produces: 0 for a fresh provision, bumped by rotate()/rotate_key().
    std::uint64_t epoch() const noexcept { return epoch_; }

    /// The key-free field artifact / in-memory device.
    void export_device(const std::filesystem::path& path) const;
    /// Crash-safe flavour of export_device (same guarantee as save_atomic):
    /// the rotation runbook overwrites the live device artifact in place,
    /// and a torn write there would brick every device that restarts.
    void export_device_atomic(const std::filesystem::path& path) const;
    Device make_device() const;

    /// Owner-side batched serving (e.g. scoring a validation set).
    InferenceSession open_session(SessionOptions options = {}) const;

    /// Owner-side shard router — the same fleet shape production devices
    /// run, e.g. for stress-testing a deployment's SLOs before export.
    ShardRouter open_router(RouterOptions options = {}) const;

    // Privileged accessors — these exist only on the Owner facade.
    HDLOCK_SECRET const LockKey& key() const { return deployment_.secure->key(); }
    HDLOCK_SECRET const ValueMapping& value_mapping() const {
        return deployment_.secure->value_mapping();
    }
    const PublicStore& store() const noexcept { return *deployment_.store; }
    std::shared_ptr<const LockedEncoder> encoder() const noexcept { return deployment_.encoder; }
    const hdc::HdcModel& model() const;
    const hdc::MinMaxDiscretizer& discretizer() const;

    /// Bridge to the pre-api surface (attack replays and legacy tooling
    /// take a Deployment). The SecureStore is the owner's — still unsealed.
    const Deployment& deployment() const noexcept { return deployment_; }

    /// Snapshot as a bundle value (mostly for size reporting / tests).
    DeploymentBundle to_bundle() const;

    /// The device bundle built from the encoder's already-materialized
    /// hypervectors (no Eq. 9 re-computation); what export_device() writes.
    DeploymentBundle to_device_bundle() const;

private:
    Owner() = default;

    Deployment deployment_;
    std::optional<hdc::MinMaxDiscretizer> discretizer_;
    std::optional<hdc::HdcModel> model_;
    std::uint64_t epoch_ = 0;
};

/// The untrusted side: what actually ships. Holds no key, in memory or on
/// disk, and exposes no API that could derive one.
class Device {
public:
    /// Loads a device `.hdlk`; refuses owner bundles so key bytes never
    /// transit device-side code.
    static Device load(const std::filesystem::path& path);

    /// Zero-copy startup: memory-maps a v2 device `.hdlk` and serves
    /// straight out of the mapping (the store, materialized encoder state
    /// and model class HVs are views; see DeploymentBundle::open_mapped).
    /// Same owner-bundle refusal as load(); v1 files work but copy.
    /// Advice::willneed asks the kernel to read the whole artifact ahead at
    /// map time, so cold-start serving does not stall on demand faults.
    static Device open_mapped(
        const std::filesystem::path& path,
        util::MappedFile::Advice advice = util::MappedFile::Advice::none);

    /// Builds a device directly from a device bundle (e.g. Owner::make_device).
    explicit Device(DeploymentBundle bundle);

    /// Single-row / batched predict, following the predict-surface
    /// convention in inference_session.hpp (span of raw features in, typed
    /// labels out; these reuse one session built at load time).
    int predict_row(std::span<const float> row) const;
    std::vector<int> predict(const util::Matrix<float>& rows) const;
    double evaluate(const data::Dataset& dataset) const;
    InferenceSession open_session(SessionOptions options = {}) const;
    /// The serving fleet: N sessions over this device's (possibly mapped)
    /// encoder — shards share the mmap, so memory stays ~1x the bundle.
    ShardRouter open_router(RouterOptions options = {}) const;
    bool can_serve() const noexcept { return discretizer_.has_value() && model_.has_value(); }

    /// The sealed encoder, as the base interface: no key, no store handle.
    const hdc::Encoder& encoder() const noexcept { return *encoder_; }
    std::shared_ptr<const hdc::Encoder> encoder_ptr() const noexcept { return encoder_; }

    /// The attacker-visible public memory (it ships with the device).
    const PublicStore& store() const noexcept { return *store_; }
    const hdc::HdcModel& model() const;
    const hdc::MinMaxDiscretizer& discretizer() const;

    /// Key-rotation generation of the loaded bundle (0 for pre-rotation
    /// v1/v2 artifacts); sessions and routers opened here stamp it into
    /// Response::epoch.
    std::uint64_t epoch() const noexcept { return epoch_; }

private:
    std::shared_ptr<const PublicStore> store_;
    std::shared_ptr<const SealedEncoder> encoder_;
    /// Keeps the mmap alive for devices built from a mapped bundle (their
    /// hypervectors are views into these bytes); null otherwise.
    std::shared_ptr<const util::MappedFile> backing_;
    std::optional<hdc::MinMaxDiscretizer> discretizer_;
    std::optional<hdc::HdcModel> model_;
    std::uint64_t epoch_ = 0;
    /// Built once at construction when the bundle can serve, so the predict
    /// conveniences don't copy the model per call (rows_served() accumulates
    /// across them); open_session() still mints fresh sessions on demand.
    std::optional<InferenceSession> session_;
};

}  // namespace hdlock::api
