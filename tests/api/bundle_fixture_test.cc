// Golden-fixture tests for the `.hdlk` loader (src/api/bundle.*): the
// compatibility contract for every bundle version that must still load.
// The fixtures in tests/api/fixtures/ are bytes an older build wrote with
// its own v1, v2 and v3 writers (see the README there); the v1 and v2
// writers no longer exist, so these files are the only v1/v2 input the
// loader sees.  Each fixture must load on both transports, serve the
// golden labels in rows.csv, and re-save to its kind's v3 fixture byte for
// byte.

#include "api/bundle.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>

#include "api/facades.hpp"
#include "data/loaders.hpp"
#include "golden_bundles.hpp"
#include "util/serialize.hpp"

namespace {

using namespace hdlock;

bool is_device(const std::string& fixture) {
    return fixture.find("device") != std::string::npos;
}

/// The version the fixture's directory names ("v2/..." -> 2).
std::uint32_t directory_version(const std::string& fixture) {
    return static_cast<std::uint32_t>(fixture[1] - '0');
}

/// The v3 fixture of the same kind: what today's writer must reproduce.
std::string v3_of_kind(const std::string& fixture) {
    return is_device(fixture) ? "v3/device.hdlk" : "v3/owner.hdlk";
}

api::DeploymentBundle load_stream(const std::string& fixture) {
    return util::load_file<api::DeploymentBundle>(golden::path(fixture));
}

std::string serialize(const api::DeploymentBundle& bundle) {
    std::ostringstream out(std::ios::binary);
    util::BinaryWriter writer(out);
    bundle.save(writer);
    return out.str();
}

const data::Dataset& golden_rows() {
    static const data::Dataset rows = data::load_csv(golden::path("rows.csv"));
    return rows;
}

}  // namespace

TEST(DeploymentBundleFixture, OwnerFixturesServeTheGoldenLabels) {
    const data::Dataset& rows = golden_rows();
    ASSERT_EQ(rows.n_samples(), 32u);
    for (const std::string version : {"v1", "v2", "v3"}) {
        const api::Owner owner = api::Owner::load(golden::path(version + "/owner.hdlk"));
        EXPECT_EQ(owner.predict(rows.X), rows.y) << version;
    }
}

TEST(DeploymentBundleFixture, DeviceFixturesServeTheGoldenLabelsOnBothTransports) {
    const data::Dataset& rows = golden_rows();
    for (const std::string version : {"v1", "v2", "v3"}) {
        const auto path = golden::path(version + "/device.hdlk");
        EXPECT_EQ(api::Device::load(path).predict(rows.X), rows.y) << version << " (stream)";
        EXPECT_EQ(api::Device::open_mapped(path).predict(rows.X), rows.y) << version << " (mapped)";
    }
}

TEST(DeploymentBundleFixture, EveryVersionResavesToTheV3BytesOfItsKind) {
    // Byte-exact v3 output pins everything the loader recovered: kind,
    // epoch 0, the key or its absence, the discretizer and the model.
    for (const std::string fixture : golden::kBundles) {
        const std::string bytes = golden::bytes(fixture);
        std::uint32_t version = 0;
        ASSERT_GE(bytes.size(), 8u) << fixture;
        std::memcpy(&version, bytes.data() + 4, sizeof(version));
        EXPECT_EQ(version, directory_version(fixture)) << fixture;

        const std::string expected = golden::bytes(v3_of_kind(fixture));
        const auto streamed = load_stream(fixture);
        const auto mapped = api::DeploymentBundle::open_mapped(golden::path(fixture));
        EXPECT_FALSE(streamed.is_mapped()) << fixture;
        EXPECT_TRUE(mapped.is_mapped()) << fixture;
        EXPECT_EQ(serialize(streamed), expected) << fixture << " (stream)";
        EXPECT_EQ(serialize(mapped), expected) << fixture << " (mapped)";
    }
}
