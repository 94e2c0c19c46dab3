#include "api/bundle.hpp"

#include <sstream>

#include "api/inference_session.hpp"
#include "api/sealed_encoder.hpp"
#include "util/fault_inject.hpp"
#include "util/serialize.hpp"

namespace hdlock::api {

namespace {

constexpr std::uint8_t kFlagDiscretizer = 1u << 0;
constexpr std::uint8_t kFlagModel = 1u << 1;

void save_value_mapping(util::BinaryWriter& writer, const ValueMapping& mapping) {
    writer.write_tag("VMAP");
    writer.write_u32(static_cast<std::uint32_t>(mapping.size()));
    for (const auto slot : mapping) writer.write_u32(slot);
}

ValueMapping load_value_mapping(util::BinaryReader& reader) {
    reader.expect_tag("VMAP");
    const std::uint32_t count = reader.read_u32();
    if (count > (1u << 24)) {
        throw FormatError("DeploymentBundle: unreasonable value mapping size");
    }
    ValueMapping mapping(count);
    for (auto& slot : mapping) slot = reader.read_u32();
    return mapping;
}

std::vector<hdc::BinaryHV> load_hv_array(util::BinaryReader& reader) {
    const std::uint64_t n = reader.read_u64();
    if (n > (1ULL << 24)) throw FormatError("DeploymentBundle: unreasonable hypervector count");
    // No reserve: the vector grows with the records actually read, never
    // with what the count claims.
    std::vector<hdc::BinaryHV> hvs;
    for (std::uint64_t i = 0; i < n; ++i) hvs.push_back(hdc::BinaryHV::load_v1(reader));
    return hvs;
}

}  // namespace

DeploymentBundle DeploymentBundle::from_deployment(const Deployment& deployment) {
    HDLOCK_EXPECTS(deployment.store != nullptr, "DeploymentBundle: deployment has no store");
    HDLOCK_EXPECTS(deployment.secure != nullptr && deployment.encoder != nullptr,
                   "DeploymentBundle: incomplete deployment");
    DeploymentBundle bundle;
    bundle.kind = BundleKind::owner;
    bundle.tie_seed = deployment.encoder->tie_seed();
    bundle.store = deployment.store;
    bundle.key = deployment.secure->key().clone();
    bundle.value_mapping = deployment.secure->value_mapping();
    return bundle;
}

namespace {

void check_saveable(const DeploymentBundle& bundle) {
    HDLOCK_EXPECTS(bundle.store != nullptr, "DeploymentBundle::save: no public store");
    if (bundle.kind == BundleKind::owner) {
        HDLOCK_EXPECTS(bundle.key.has_value() && bundle.value_mapping.has_value(),
                       "DeploymentBundle::save: owner bundle without secrets");
    } else {
        HDLOCK_EXPECTS(!bundle.key.has_value() && !bundle.value_mapping.has_value(),
                       "DeploymentBundle::save: device bundle must not carry the key");
        HDLOCK_EXPECTS(!bundle.feature_hvs.empty() && !bundle.value_hvs.empty(),
                       "DeploymentBundle::save: device bundle without materialized state");
    }
}

}  // namespace

void DeploymentBundle::save(util::BinaryWriter& writer) const {
    check_saveable(*this);
    writer.write_tag("HDLK");
    writer.write_u32(kFormatVersion);
    writer.write_u8(static_cast<std::uint8_t>(kind));
    writer.write_u64(tie_seed);
    std::uint8_t flags = 0;
    if (discretizer) flags |= kFlagDiscretizer;
    if (model) flags |= kFlagModel;
    writer.write_u8(flags);
    writer.write_u64(epoch);

    store->save(writer);
    if (kind == BundleKind::owner) {
        writer.write_tag("SECR");
        key->save(writer);
        save_value_mapping(writer, *value_mapping);
    } else {
        // hdlock-lint: device-begin (SEN2 writer: the bytes that ship; the
        // confinement taint scan proves no secret identifier is in reach)
        writer.write_tag("SEN2");
        writer.write_u64(feature_hvs.size());
        writer.write_u64(value_hvs.size());
        writer.write_u64(store->dim());
        hdc::save_hv_block(writer, feature_hvs, store->dim());
        hdc::save_hv_block(writer, value_hvs, store->dim());
        // hdlock-lint: device-end
    }
    if (discretizer) discretizer->save(writer);
    if (model) model->save(writer);
    writer.write_tag("HEND");
}

DeploymentBundle DeploymentBundle::load(util::BinaryReader& reader) {
    reader.expect_tag("HDLK");
    const std::uint32_t version = reader.read_u32();
    if (version == 0 || version > kFormatVersion) {
        throw FormatError("DeploymentBundle: unsupported format version " +
                          std::to_string(version));
    }
    DeploymentBundle bundle;
    const std::uint8_t kind = reader.read_u8();
    if (kind > 1) throw FormatError("DeploymentBundle: bad bundle kind");
    bundle.kind = static_cast<BundleKind>(kind);
    bundle.tie_seed = reader.read_u64();
    const std::uint8_t flags = reader.read_u8();
    if (flags & ~(kFlagDiscretizer | kFlagModel)) {
        throw FormatError("DeploymentBundle: unknown section flags");
    }
    // v1/v2 artifacts predate key rotation: they are epoch 0 by definition.
    bundle.epoch = version >= 3 ? reader.read_u64() : 0;
    if (util::fault::should_fail(util::fault::kBundleCorruptHeader)) {
        throw FormatError("DeploymentBundle: corrupt header (fault injected)");
    }

    bundle.store = std::make_shared<const PublicStore>(
        version >= 2 ? PublicStore::load(reader) : PublicStore::load_v1(reader));
    if (bundle.kind == BundleKind::owner) {
        reader.expect_tag("SECR");
        bundle.key = LockKey::load(reader);
        bundle.value_mapping = load_value_mapping(reader);
        if (bundle.value_mapping->size() != bundle.store->n_levels()) {
            throw FormatError("DeploymentBundle: value mapping does not match store levels");
        }
    } else if (version >= 2) {
        // hdlock-lint: device-begin (SEN2/SENC load: runs on the device)
        reader.expect_tag("SEN2");
        const std::uint64_t n_features = reader.read_u64();
        const std::uint64_t n_levels = reader.read_u64();
        const std::uint64_t dim = reader.read_u64();
        if (n_features == 0 || n_levels == 0) {
            throw FormatError("DeploymentBundle: device bundle without encoder state");
        }
        if (n_features > (1ULL << 24) || n_levels > (1ULL << 24)) {
            throw FormatError("DeploymentBundle: unreasonable hypervector count");
        }
        // The materialized state must agree with the embedded store's shape
        // — a corrupt or hand-edited artifact fails here with the mismatch
        // named, not deep inside encode (or worse, serving garbage).
        if (dim != bundle.store->dim()) {
            throw FormatError("DeploymentBundle: encoder state has dim " + std::to_string(dim) +
                              " but the store dim is " + std::to_string(bundle.store->dim()));
        }
        if (n_levels != bundle.store->n_levels()) {
            throw FormatError("DeploymentBundle: device bundle has " + std::to_string(n_levels) +
                              " value hypervectors but the store holds " +
                              std::to_string(bundle.store->n_levels()) + " levels");
        }
        bundle.feature_hvs = hdc::load_hv_block(reader, static_cast<std::size_t>(dim),
                                                static_cast<std::size_t>(n_features));
        bundle.value_hvs = hdc::load_hv_block(reader, static_cast<std::size_t>(dim),
                                              static_cast<std::size_t>(n_levels));
    } else {
        reader.expect_tag("SENC");
        bundle.feature_hvs = load_hv_array(reader);
        bundle.value_hvs = load_hv_array(reader);
        if (bundle.feature_hvs.empty() || bundle.value_hvs.empty()) {
            throw FormatError("DeploymentBundle: device bundle without encoder state");
        }
        // A corrupt or hand-edited artifact must fail here with the mismatch
        // named, not deep inside encode (or worse, serve garbage): the
        // materialized state has to agree with the embedded store's shape.
        if (bundle.value_hvs.size() != bundle.store->n_levels()) {
            throw FormatError("DeploymentBundle: device bundle has " +
                              std::to_string(bundle.value_hvs.size()) +
                              " value hypervectors but the store holds " +
                              std::to_string(bundle.store->n_levels()) + " levels");
        }
        for (std::size_t i = 0; i < bundle.feature_hvs.size(); ++i) {
            if (bundle.feature_hvs[i].dim() != bundle.store->dim()) {
                throw FormatError("DeploymentBundle: feature hypervector " + std::to_string(i) +
                                  " has dim " + std::to_string(bundle.feature_hvs[i].dim()) +
                                  " but the store dim is " + std::to_string(bundle.store->dim()));
            }
        }
        for (std::size_t i = 0; i < bundle.value_hvs.size(); ++i) {
            if (bundle.value_hvs[i].dim() != bundle.store->dim()) {
                throw FormatError("DeploymentBundle: value hypervector " + std::to_string(i) +
                                  " has dim " + std::to_string(bundle.value_hvs[i].dim()) +
                                  " but the store dim is " + std::to_string(bundle.store->dim()));
            }
        }
        // hdlock-lint: device-end
    }
    if (flags & kFlagDiscretizer) bundle.discretizer = hdc::MinMaxDiscretizer::load(reader);
    if (flags & kFlagModel) {
        bundle.model = version >= 2 ? hdc::HdcModel::load(reader) : hdc::HdcModel::load_v1(reader);
    }
    reader.expect_tag("HEND");

    // The store carries no feature count, but a per-feature discretizer
    // does: its range count must match the encoder's feature count (the key
    // for owner bundles, the materialized FeaHV array for device bundles) —
    // a truncated feature section must not load and then serve garbage.
    if (bundle.discretizer.has_value() &&
        bundle.discretizer->mode() == hdc::DiscretizerMode::per_feature) {
        const std::size_t n_features = bundle.kind == BundleKind::owner
                                           ? bundle.key->n_features()
                                           : bundle.feature_hvs.size();
        if (bundle.discretizer->n_ranges() != n_features) {
            throw FormatError("DeploymentBundle: per-feature discretizer tracks " +
                              std::to_string(bundle.discretizer->n_ranges()) +
                              " features but the encoder has " + std::to_string(n_features));
        }
    }
    return bundle;
}

void DeploymentBundle::save_atomic(const std::filesystem::path& path) const {
    util::atomic_file_write(path, [this](util::BinaryWriter& writer) { save(writer); });
}

BundleSnapshot DeploymentBundle::make_snapshot() const {
    BundleSnapshot snapshot;
    snapshot.epoch = epoch;
    snapshot.encoder = make_encoder();
    snapshot.discretizer = discretizer;
    snapshot.model = model;
    snapshot.backing = backing;
    return snapshot;
}

void DeploymentBundle::save_owner(const std::filesystem::path& path) const {
    HDLOCK_EXPECTS(kind == BundleKind::owner && has_key(),
                   "DeploymentBundle::save_owner: not an owner bundle");
    util::save_file(*this, path);
}

DeploymentBundle DeploymentBundle::load_owner(const std::filesystem::path& path) {
    DeploymentBundle bundle = util::load_file<DeploymentBundle>(path);
    if (bundle.kind != BundleKind::owner) {
        throw FormatError("DeploymentBundle: " + path.string() +
                          " is a device bundle (its key was stripped at export); "
                          "owner operations need the owner artifact");
    }
    return bundle;
}

// hdlock-lint: device-begin (the device-side entry point)
DeploymentBundle DeploymentBundle::load_device(const std::filesystem::path& path) {
    DeploymentBundle bundle = util::load_file<DeploymentBundle>(path);
    if (bundle.kind != BundleKind::device) {
        throw FormatError("DeploymentBundle: " + path.string() +
                          " is an owner bundle and carries the key; refuse to load it on the "
                          "device side (run export_device() first)");
    }
    return bundle;
}
// hdlock-lint: device-end

DeploymentBundle DeploymentBundle::open_mapped(const std::filesystem::path& path,
                                               util::MappedFile::Advice advice) {
    auto mapping = std::make_shared<const util::MappedFile>(util::MappedFile::open(path, advice));
    util::BinaryReader reader(mapping->bytes());
    DeploymentBundle bundle = load(reader);
    bundle.backing = mapping;
    // Components whose shared handles can escape the bundle must pin the
    // mapping themselves, or a session/encoder outliving the bundle would
    // serve from unmapped memory: the store gets an aliasing shared_ptr
    // whose control block co-owns the mapping, the model an explicit
    // anchor (copies share it).  The raw feature_hvs/value_hvs vectors stay
    // covered by `backing` until they are moved into a SealedEncoder, which
    // takes its own anchor (make_encoder / api::Device).
    if (bundle.store != nullptr) {
        auto anchored = std::make_shared<
            std::pair<std::shared_ptr<const PublicStore>, std::shared_ptr<const util::MappedFile>>>(
            bundle.store, mapping);
        bundle.store = std::shared_ptr<const PublicStore>(anchored, anchored->first.get());
    }
    if (bundle.model) bundle.model->set_storage_anchor(mapping);
    return bundle;
}

DeploymentBundle DeploymentBundle::device_from_materialized(
    const LockedEncoder& encoder, std::shared_ptr<const PublicStore> store,
    std::optional<hdc::MinMaxDiscretizer> discretizer, std::optional<hdc::HdcModel> model) {
    DeploymentBundle device;
    device.kind = BundleKind::device;
    device.tie_seed = encoder.tie_seed();
    device.store = std::move(store);
    device.discretizer = std::move(discretizer);
    device.model = std::move(model);
    device.feature_hvs.reserve(encoder.n_features());
    for (std::size_t i = 0; i < encoder.n_features(); ++i) {
        device.feature_hvs.push_back(encoder.feature_hv(i));
    }
    device.value_hvs.reserve(encoder.n_levels());
    for (std::size_t level = 0; level < encoder.n_levels(); ++level) {
        device.value_hvs.push_back(encoder.value_hv(level));
    }
    return device;
}

DeploymentBundle DeploymentBundle::copy_without_secrets() const {
    DeploymentBundle copy;
    copy.kind = kind;
    copy.tie_seed = tie_seed;
    copy.epoch = epoch;
    copy.store = store;
    copy.feature_hvs = feature_hvs;
    copy.value_hvs = value_hvs;
    copy.discretizer = discretizer;
    copy.model = model;
    copy.backing = backing;
    return copy;
}

DeploymentBundle DeploymentBundle::export_device() const {
    HDLOCK_EXPECTS(store != nullptr, "DeploymentBundle::export_device: no public store");
    if (kind == BundleKind::device) return copy_without_secrets();
    HDLOCK_EXPECTS(has_key(), "DeploymentBundle::export_device: owner bundle without key");
    DeploymentBundle device =
        device_from_materialized(LockedEncoder(store, key->clone(), *value_mapping, tie_seed),
                                 store, discretizer, model);
    device.epoch = epoch;  // a device export serves its owner's generation
    return device;
}

void DeploymentBundle::export_device(const std::filesystem::path& path) const {
    util::save_file(export_device(), path);
}

std::shared_ptr<const hdc::Encoder> DeploymentBundle::make_encoder() const {
    if (kind == BundleKind::owner) {
        HDLOCK_EXPECTS(has_key(), "DeploymentBundle::make_encoder: owner bundle without key");
        return std::make_shared<const LockedEncoder>(store, key->clone(), *value_mapping, tie_seed);
    }
    // hdlock-lint: device-begin (the sealed, key-free construction path)
    return std::make_shared<const SealedEncoder>(feature_hvs, value_hvs, tie_seed, backing);
    // hdlock-lint: device-end
}

std::uint64_t DeploymentBundle::serialized_bytes() const {
    std::ostringstream out(std::ios::binary);
    util::BinaryWriter writer(out);
    save(writer);
    return static_cast<std::uint64_t>(out.tellp());
}

}  // namespace hdlock::api
