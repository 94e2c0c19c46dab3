// Tests for the `.hdlk` deployment bundle (src/api/bundle.*): round-trips of
// both variants, corrupt/short-file rejection, and the key-stripping
// guarantee of export_device().

#include "api/bundle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>
#include <sstream>

#include "api/facades.hpp"
#include "data/synthetic.hpp"
#include "golden_bundles.hpp"

namespace {

using namespace hdlock;

DeploymentConfig small_config() {
    DeploymentConfig config;
    config.dim = 1024;
    config.n_features = 16;
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 31;
    return config;
}

/// A trained owner bundle (discretizer + model populated).
api::DeploymentBundle trained_owner_bundle() {
    data::SyntheticSpec spec;
    spec.name = "bundle";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 60;
    spec.n_levels = 4;
    spec.seed = 8;
    const auto benchmark = data::make_benchmark(spec);
    api::Owner owner = api::Owner::provision(small_config());
    owner.train(benchmark.train);
    return owner.to_bundle();
}

std::string serialize(const api::DeploymentBundle& bundle) {
    std::ostringstream out(std::ios::binary);
    util::BinaryWriter writer(out);
    bundle.save(writer);
    return out.str();
}

api::DeploymentBundle deserialize(const std::string& bytes) {
    std::istringstream in(bytes, std::ios::binary);
    util::BinaryReader reader(in);
    return api::DeploymentBundle::load(reader);
}

std::filesystem::path temp_path(const std::string& name) {
    return std::filesystem::temp_directory_path() / name;
}

}  // namespace

TEST(DeploymentBundle, OwnerRoundTripPreservesEverySection) {
    const auto bundle = trained_owner_bundle();
    const auto restored = deserialize(serialize(bundle));

    EXPECT_EQ(restored.kind, api::BundleKind::owner);
    EXPECT_EQ(restored.tie_seed, bundle.tie_seed);
    EXPECT_TRUE(restored.has_key());
    EXPECT_EQ(*restored.key, *bundle.key);
    EXPECT_EQ(*restored.value_mapping, *bundle.value_mapping);
    EXPECT_EQ(restored.store->pool_size(), bundle.store->pool_size());
    for (std::size_t p = 0; p < bundle.store->pool_size(); ++p) {
        EXPECT_EQ(restored.store->base(p), bundle.store->base(p));
    }
    ASSERT_TRUE(restored.has_discretizer());
    EXPECT_EQ(*restored.discretizer, *bundle.discretizer);
    ASSERT_TRUE(restored.has_model());
    EXPECT_EQ(restored.model->n_classes(), bundle.model->n_classes());
}

TEST(DeploymentBundle, UntrainedOwnerRoundTripsWithoutOptionalSections) {
    const auto bundle =
        api::DeploymentBundle::from_deployment(provision(small_config()));
    const auto restored = deserialize(serialize(bundle));
    EXPECT_TRUE(restored.has_key());
    EXPECT_FALSE(restored.has_discretizer());
    EXPECT_FALSE(restored.has_model());
}

TEST(DeploymentBundle, DeviceRoundTripReproducesEncodings) {
    const auto owner = trained_owner_bundle();
    const auto device = deserialize(serialize(owner.export_device()));

    EXPECT_EQ(device.kind, api::BundleKind::device);
    EXPECT_FALSE(device.has_key());
    const auto owner_encoder = owner.make_encoder();
    const auto device_encoder = device.make_encoder();
    util::Xoshiro256ss rng(55);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> levels(16);
        for (auto& level : levels) level = static_cast<int>(rng.next_below(4));
        EXPECT_EQ(device_encoder->encode(levels), owner_encoder->encode(levels));
        EXPECT_EQ(device_encoder->encode_binary(levels), owner_encoder->encode_binary(levels));
    }
}

TEST(DeploymentBundle, ExportedDeviceFileContainsNoKeyBytes) {
    const auto owner = trained_owner_bundle();
    const std::string owner_bytes = serialize(owner);
    const std::string device_bytes = serialize(owner.export_device());

    // The owner artifact carries the tagged secret section; the device
    // artifact must not contain those section tags anywhere in the file.
    EXPECT_NE(owner_bytes.find("SECR"), std::string::npos);
    EXPECT_NE(owner_bytes.find("LKEY"), std::string::npos);
    EXPECT_EQ(device_bytes.find("SECR"), std::string::npos);
    EXPECT_EQ(device_bytes.find("LKEY"), std::string::npos);
    EXPECT_EQ(device_bytes.find("VMAP"), std::string::npos);
}

TEST(DeploymentBundle, LoadOwnerRefusesDeviceFileAndViceVersa) {
    const auto owner = trained_owner_bundle();
    const auto owner_path = temp_path("hdlock_bundle_owner_test.hdlk");
    const auto device_path = temp_path("hdlock_bundle_device_test.hdlk");
    owner.save_owner(owner_path);
    owner.export_device(device_path);

    EXPECT_NO_THROW(api::DeploymentBundle::load_owner(owner_path));
    EXPECT_NO_THROW(api::DeploymentBundle::load_device(device_path));
    EXPECT_THROW(api::DeploymentBundle::load_owner(device_path), FormatError);
    EXPECT_THROW(api::DeploymentBundle::load_device(owner_path), FormatError);

    std::filesystem::remove(owner_path);
    std::filesystem::remove(device_path);
}

TEST(DeploymentBundle, RejectsWrongMagicAndVersion) {
    std::string bytes = serialize(trained_owner_bundle());
    {
        std::string bad = bytes;
        bad[0] = 'X';  // corrupt the magic
        EXPECT_THROW(deserialize(bad), FormatError);
    }
    {
        std::string bad = bytes;
        bad[4] = char(0xFF);  // absurd version
        EXPECT_THROW(deserialize(bad), FormatError);
    }
}

TEST(DeploymentBundle, RejectsTruncatedFiles) {
    const std::string bytes = serialize(trained_owner_bundle());
    // Cutting the file anywhere — from the header through one byte short of
    // the HEND trailer — must throw FormatError, never return a bundle.
    for (const std::size_t keep :
         {std::size_t{0}, std::size_t{3}, std::size_t{10}, bytes.size() / 2, bytes.size() - 1}) {
        EXPECT_THROW(deserialize(bytes.substr(0, keep)), FormatError) << "kept " << keep;
    }
}

TEST(DeploymentBundle, RejectsUnknownSectionFlags) {
    std::string bytes = serialize(trained_owner_bundle());
    // Flags byte sits after "HDLK" + u32 version + u8 kind + u64 tie_seed.
    bytes[4 + 4 + 1 + 8] = char(0x80);
    EXPECT_THROW(deserialize(bytes), FormatError);
}

TEST(DeploymentBundle, RejectsDeviceStateInconsistentWithStore) {
    // Regression: a corrupt/hand-edited device artifact whose materialized
    // hypervectors disagree with the embedded store used to load fine and
    // fail only deep inside encode (or not at all).  In the v2 format the
    // count mismatch is named at load time; dimension mismatches cannot even
    // be *written* (the aligned block writer enforces a uniform dimension).
    const auto owner = trained_owner_bundle();

    {
        // One value hypervector dropped: count no longer matches the store.
        auto device = owner.export_device();
        device.value_hvs.pop_back();
        try {
            deserialize(serialize(device));
            FAIL() << "expected FormatError";
        } catch (const FormatError& error) {
            EXPECT_NE(std::string(error.what()).find("value hypervectors"), std::string::npos)
                << error.what();
        }
    }
    {
        // A hypervector of the wrong dimensionality is a save-side contract
        // violation: the v2 block layout has one dim for the whole section.
        auto device = owner.export_device();
        hdlock::util::Xoshiro256ss rng(99);
        device.feature_hvs[1] = hdc::BinaryHV::random(64, rng);
        EXPECT_THROW(serialize(device), ContractViolation);
    }
    {
        // v1 stores a dimension per hypervector, so a v1 file can carry the
        // mismatch the current writer refuses: patch the golden v1 device
        // bundle's first value record from dim 200 to 256.  The word count
        // (4) fits both, so the record parses and the v1 load path must name
        // the bad hypervector.
        std::string bytes = golden::bytes("v1/device.hdlk");
        constexpr std::size_t kRecord = 4 + 8 + 8 + 4 * 8;  // "BHV1", dim, count, words
        std::size_t at = bytes.find("SENC");
        ASSERT_NE(at, std::string::npos);
        std::uint64_t n_features = 0;
        std::memcpy(&n_features, bytes.data() + at + 4, sizeof(n_features));
        at += 4 + 8 + n_features * kRecord + 8;  // past the features and the level count
        ASSERT_EQ(bytes.substr(at, 4), "BHV1");
        std::uint64_t dim = 0;
        std::memcpy(&dim, bytes.data() + at + 4, sizeof(dim));
        ASSERT_EQ(dim, 200u);
        dim = 256;
        std::memcpy(bytes.data() + at + 4, &dim, sizeof(dim));
        try {
            deserialize(bytes);
            FAIL() << "expected FormatError";
        } catch (const FormatError& error) {
            EXPECT_NE(std::string(error.what()).find("value hypervector 0"), std::string::npos)
                << error.what();
        }
    }

    // The untampered device bundle still round-trips.
    EXPECT_NO_THROW(deserialize(serialize(owner.export_device())));
}

TEST(DeploymentBundle, RejectsFeatureCountInconsistentWithPerFeatureDiscretizer) {
    // The store carries no feature count, but a per-feature discretizer
    // pins it: a device bundle whose materialized FeaHV array was truncated
    // must fail at load, not serve a model trained on more features.
    data::SyntheticSpec spec;
    spec.name = "bundle_pf";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 90;
    spec.n_test = 30;
    spec.n_levels = 4;
    spec.seed = 9;
    const auto benchmark = data::make_benchmark(spec);
    api::Owner owner = api::Owner::provision(small_config());
    api::TrainOptions options;
    options.discretizer_mode = hdc::DiscretizerMode::per_feature;
    owner.train(benchmark.train, options);

    auto device = owner.to_device_bundle();
    EXPECT_NO_THROW(deserialize(serialize(device)));
    device.feature_hvs.pop_back();
    try {
        deserialize(serialize(device));
        FAIL() << "expected FormatError";
    } catch (const FormatError& error) {
        EXPECT_NE(std::string(error.what()).find("per-feature discretizer"), std::string::npos)
            << error.what();
    }
}

TEST(DeploymentBundle, SerializedBytesMatchesFileSize) {
    const auto bundle = trained_owner_bundle();
    const auto path = temp_path("hdlock_bundle_size_test.hdlk");
    bundle.save_owner(path);
    EXPECT_EQ(bundle.serialized_bytes(), std::filesystem::file_size(path));
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// `.hdlk` v2+: alignment and the mapped zero-copy load (v1 and v2
// compatibility: bundle_fixture_test.cc).
// ---------------------------------------------------------------------------

namespace {

/// Byte offset of the first occurrence of `tag`, or npos.
std::size_t find_tag(const std::string& bytes, std::string_view tag) {
    return bytes.find(tag);
}

}  // namespace

TEST(DeploymentBundleV2, WritesVersion3WithAlignedSections) {
    const std::string bytes = serialize(trained_owner_bundle().export_device());
    ASSERT_GE(bytes.size(), 8u);
    EXPECT_EQ(bytes.substr(0, 4), "HDLK");
    std::uint32_t version = 0;
    std::memcpy(&version, bytes.data() + 4, sizeof(version));
    EXPECT_EQ(version, 3u);
    // The bulk sections live behind "PUB2"/"SEN2"/"MDL2" headers.
    EXPECT_NE(find_tag(bytes, "PUB2"), std::string::npos);
    EXPECT_NE(find_tag(bytes, "SEN2"), std::string::npos);
    EXPECT_NE(find_tag(bytes, "MDL2"), std::string::npos);
    EXPECT_EQ(find_tag(bytes, "PUBS"), std::string::npos);
}

TEST(DeploymentBundleV2, OpenMappedAliasesTheMappingInsteadOfCopying) {
    const auto owner = trained_owner_bundle();
    const auto path = temp_path("hdlock_bundle_mmap_test.hdlk");
    owner.export_device(path);

    const auto mapped = api::DeploymentBundle::open_mapped(path);
    ASSERT_TRUE(mapped.is_mapped());
    ASSERT_NE(mapped.backing, nullptr);

    // The zero-copy claim, checked directly: every bulk hypervector is a
    // view whose words point inside the mapping.
    const auto bytes = mapped.backing->bytes();
    const auto* begin = bytes.data();
    const auto* end = begin + bytes.size();
    auto inside = [&](const void* p) {
        return p >= static_cast<const void*>(begin) && p < static_cast<const void*>(end);
    };
    for (const auto& hv : mapped.feature_hvs) {
        EXPECT_TRUE(hv.is_view());
        EXPECT_TRUE(inside(hv.words().data()));
    }
    for (const auto& hv : mapped.store->bases()) {
        EXPECT_TRUE(hv.is_view());
        EXPECT_TRUE(inside(hv.words().data()));
    }
    ASSERT_TRUE(mapped.has_model());
    for (int cls = 0; cls < mapped.model->n_classes(); ++cls) {
        EXPECT_TRUE(mapped.model->class_sum(cls).is_view());
        EXPECT_TRUE(inside(mapped.model->class_sum(cls).values().data()));
    }

    // And it serves the same encodings as the copying load.
    const auto copied = api::DeploymentBundle::load_device(path);
    const auto mapped_encoder = mapped.make_encoder();
    const auto copied_encoder = copied.make_encoder();
    util::Xoshiro256ss rng(91);
    for (int trial = 0; trial < 8; ++trial) {
        std::vector<int> levels(16);
        for (auto& level : levels) level = static_cast<int>(rng.next_below(4));
        EXPECT_EQ(mapped_encoder->encode_binary(levels), copied_encoder->encode_binary(levels));
    }
    std::filesystem::remove(path);
}

TEST(DeploymentBundleV2, MappedDeviceServesAfterBundleAndDeviceAreGone) {
    // The lifetime contract: sessions and encoders anchor the mapping, so a
    // temporary Device (the CLI idiom) cannot leave them dangling.
    data::SyntheticSpec spec;
    spec.name = "bundle_mmap_serve";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 40;
    spec.n_levels = 4;
    spec.seed = 8;
    const auto benchmark = data::make_benchmark(spec);
    api::Owner owner = api::Owner::provision(small_config());
    owner.train(benchmark.train);
    const auto path = temp_path("hdlock_bundle_mmap_serve_test.hdlk");
    owner.export_device(path);

    const auto reference = owner.make_device().predict(benchmark.test.X);
    // Session minted from a *temporary* mapped Device.
    const auto session = api::Device::open_mapped(path).open_session({.n_threads = 2});
    EXPECT_EQ(session.predict(benchmark.test.X), reference);

    // Owner bundles refuse the device-side mapped entry point.
    const auto owner_path = temp_path("hdlock_bundle_mmap_owner_test.hdlk");
    owner.save(owner_path);
    EXPECT_THROW(api::Device::open_mapped(owner_path), FormatError);

    std::filesystem::remove(path);
    std::filesystem::remove(owner_path);
}

TEST(DeploymentBundleV2, WillneedAdviceServesBitIdentically) {
    // Device::open_mapped(path, willneed) is the cold-start prefetch knob:
    // it may only change page-in timing, never bytes or labels.
    data::SyntheticSpec spec;
    spec.name = "bundle_mmap_advise";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 40;
    spec.n_levels = 4;
    spec.seed = 8;
    const auto benchmark = data::make_benchmark(spec);
    api::Owner owner = api::Owner::provision(small_config());
    owner.train(benchmark.train);
    const auto path = temp_path("hdlock_bundle_mmap_advise_test.hdlk");
    owner.export_device(path);

    const auto plain = api::Device::open_mapped(path).predict(benchmark.test.X);
    const auto advised =
        api::Device::open_mapped(path, util::MappedFile::Advice::willneed)
            .predict(benchmark.test.X);
    EXPECT_EQ(advised, plain);

    std::filesystem::remove(path);
}

TEST(DeploymentBundleV2, MutatingAMappedModelDetachesCopyOnWrite) {
    const auto owner = trained_owner_bundle();
    const auto path = temp_path("hdlock_bundle_mmap_cow_test.hdlk");
    owner.export_device(path);

    auto mapped = api::DeploymentBundle::open_mapped(path);
    ASSERT_TRUE(mapped.has_model());
    hdc::HdcModel model = *mapped.model;
    hdc::IntHV sum = model.class_sum(0);
    ASSERT_TRUE(sum.is_view());
    const std::int32_t before = sum[0];
    sum.values()[0] = before + 7;  // mutation detaches...
    EXPECT_FALSE(sum.is_view());
    EXPECT_EQ(sum[0], before + 7);
    // ...and the mapping (and every other view) is untouched.
    EXPECT_EQ(mapped.model->class_sum(0)[0], before);
    std::filesystem::remove(path);
}

TEST(DeploymentBundleV2, RejectsTruncatedAndCorruptPadding) {
    const auto device = trained_owner_bundle().export_device();
    const std::string bytes = serialize(device);

    // Truncation anywhere must throw, on the stream and the mapped reader.
    for (const std::size_t keep :
         {std::size_t{16}, bytes.size() / 3, bytes.size() / 2, bytes.size() - 1}) {
        const std::string cut = bytes.substr(0, keep);
        EXPECT_THROW(deserialize(cut), FormatError) << "stream, kept " << keep;
        util::BinaryReader reader(
            std::as_bytes(std::span<const char>(cut.data(), cut.size())));
        EXPECT_THROW(api::DeploymentBundle::load(reader), FormatError)
            << "mapped, kept " << keep;
    }

    // Non-zero bytes inside a section's alignment padding mean the section
    // offsets are off (a corrupt or hand-spliced artifact): named rejection
    // instead of interpreting misaligned words.
    const std::size_t pub2 = bytes.find("PUB2");
    ASSERT_NE(pub2, std::string::npos);
    const std::size_t header_end = pub2 + 4 + 3 * 8;  // tag + dim/pool/levels
    const std::size_t padded_to = (header_end + 63) / 64 * 64;
    ASSERT_GT(padded_to, header_end) << "fixture layout: header must need padding";
    std::string corrupt = bytes;
    corrupt[header_end] = 'X';
    try {
        deserialize(corrupt);
        FAIL() << "expected FormatError";
    } catch (const FormatError& error) {
        EXPECT_NE(std::string(error.what()).find("padding"), std::string::npos) << error.what();
    }
}
