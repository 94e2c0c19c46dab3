// Tests for epoch-versioned key rotation: api::Owner::rotate, the
// epoch-carrying `.hdlk` v3 header, crash-safe save_atomic under injected
// filesystem faults, and the RCU hot swap (InferenceSession::swap_bundle /
// ShardRouter::swap_all) with its rollback and keep-serving guarantees.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "api/bundle.hpp"
#include "api/facades.hpp"
#include "api/inference_session.hpp"
#include "api/shard_router.hpp"
#include "data/synthetic.hpp"
#include "golden_bundles.hpp"
#include "util/error.hpp"
#include "util/fault_inject.hpp"

namespace {

using namespace hdlock;
namespace fault = util::fault;

DeploymentConfig small_config() {
    DeploymentConfig config;
    config.dim = 1024;
    config.n_features = 16;
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 31;
    return config;
}

data::SyntheticBenchmark small_benchmark() {
    data::SyntheticSpec spec;
    spec.name = "rotation";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 60;
    spec.n_levels = 4;
    spec.seed = 8;
    return data::make_benchmark(spec);
}

api::Owner trained_owner() {
    api::Owner owner = api::Owner::provision(small_config());
    owner.train(small_benchmark().train);
    return owner;
}

std::filesystem::path temp_path(const std::string& name) {
    return std::filesystem::temp_directory_path() / name;
}

std::string read_file(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/// Failpoint hygiene: no test leaves the process-global registry armed.
class Rotation : public ::testing::Test {
protected:
    void TearDown() override {
        fault::reset();
        fault::force_enable(false);
    }
};

TEST_F(Rotation, RotateBumpsEpochAndRetrains) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    ASSERT_EQ(owner.epoch(), 0u);
    const std::vector<int> before = owner.predict(benchmark.test.X);

    api::RotateOptions options;
    options.seed = 77;
    const api::RotationReport report = owner.rotate(benchmark.train, options);
    EXPECT_EQ(report.previous_epoch, 0u);
    EXPECT_EQ(report.epoch, 1u);
    EXPECT_EQ(owner.epoch(), 1u);
    EXPECT_GT(report.train_accuracy, 0.5);
    ASSERT_TRUE(owner.trained());

    // The rotated deployment serves, and serves comparably: same synthetic
    // task, fresh key, retrained model.
    const std::vector<int> after = owner.predict(benchmark.test.X);
    EXPECT_EQ(after.size(), before.size());

    // A second rotation keeps counting.
    EXPECT_EQ(owner.rotate(benchmark.train, options).epoch, 2u);
}

TEST_F(Rotation, RotateKeyAloneAlsoBumpsTheEpoch) {
    api::Owner owner = trained_owner();
    owner.rotate_key(99);
    EXPECT_EQ(owner.epoch(), 1u);
    EXPECT_FALSE(owner.trained());  // model discarded; retrain before serving
}

TEST_F(Rotation, EpochRoundTripsThroughV3AndDefaultsToZeroForV2) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    owner.rotate(benchmark.train);
    ASSERT_EQ(owner.epoch(), 1u);

    // v3 (current) round-trip keeps the epoch, for both bundle kinds.
    const auto owner_path = temp_path("hdlock_rotation_owner_v3.hdlk");
    const auto device_path = temp_path("hdlock_rotation_device_v3.hdlk");
    owner.save_atomic(owner_path);
    owner.export_device_atomic(device_path);
    EXPECT_EQ(api::Owner::load(owner_path).epoch(), 1u);
    EXPECT_EQ(api::Device::load(device_path).epoch(), 1u);
    EXPECT_EQ(api::Device::open_mapped(device_path).epoch(), 1u);

    // The v2 layout has no epoch field: the golden v2 owner bundle loads as
    // epoch 0 (pre-rotation artifacts are generation zero by definition).
    const auto v2_path = golden::path("v2/owner.hdlk");
    EXPECT_EQ(api::DeploymentBundle::open_mapped(v2_path).epoch, 0u);
    EXPECT_EQ(api::Owner::load(v2_path).epoch(), 0u);

    std::filesystem::remove(owner_path);
    std::filesystem::remove(device_path);
}

TEST_F(Rotation, ResponsesCarryTheSessionEpoch) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    owner.rotate(benchmark.train);

    const api::InferenceSession session = owner.open_session();
    EXPECT_EQ(session.epoch(), 1u);
    api::Request request;
    request.rows = benchmark.test.X;
    const api::Response response = session.predict_async(std::move(request)).get();
    ASSERT_TRUE(response.ok());
    EXPECT_EQ(response.epoch, 1u);

    const api::ShardRouter router = owner.open_router();
    api::Request routed;
    routed.rows = benchmark.test.X;
    EXPECT_EQ(router.submit(std::move(routed)).get().epoch, 1u);
}

// ---------------------------------------------------------------------------
// Crash-safe persistence: every injected filesystem fault leaves the
// previous artifact intact and loadable.
// ---------------------------------------------------------------------------

TEST_F(Rotation, SaveAtomicFaultsPreserveThePreviousBundle) {
    const auto benchmark = small_benchmark();
    const auto path = temp_path("hdlock_rotation_atomic.hdlk");
    api::Owner owner = trained_owner();
    owner.save_atomic(path);
    const std::string epoch0_bytes = read_file(path);

    owner.rotate(benchmark.train);
    for (const auto point :
         {fault::kBundleShortWrite, fault::kBundleFsync, fault::kBundleRename}) {
        fault::ScopedFault guard(point);
        EXPECT_THROW(owner.save_atomic(path), IoError) << "failpoint " << point;
        // Byte-identical old artifact, still a valid epoch-0 owner bundle,
        // and no temp debris.
        EXPECT_EQ(read_file(path), epoch0_bytes) << "failpoint " << point;
        EXPECT_EQ(api::Owner::load(path).epoch(), 0u) << "failpoint " << point;
        EXPECT_FALSE(std::filesystem::exists(path.string() + ".tmp")) << "failpoint " << point;
    }

    // Fault cleared: the rotation lands.
    owner.save_atomic(path);
    EXPECT_EQ(api::Owner::load(path).epoch(), 1u);
    std::filesystem::remove(path);
}

TEST_F(Rotation, CorruptHeaderFailpointRaisesTypedFormatError) {
    const auto path = temp_path("hdlock_rotation_corrupt.hdlk");
    trained_owner().save_atomic(path);
    {
        fault::ScopedFault guard(fault::kBundleCorruptHeader);
        EXPECT_THROW(api::Owner::load(path), FormatError);
        EXPECT_EQ(guard.hits(), 1u);
    }
    // The file itself was never harmed — only the load was poisoned.
    EXPECT_EQ(api::Owner::load(path).epoch(), 0u);
    std::filesystem::remove(path);
}

// ---------------------------------------------------------------------------
// The RCU hot swap: swap_bundle / swap_all and their failure paths.
// ---------------------------------------------------------------------------

TEST_F(Rotation, SwapBundleInstallsTheNewEpoch) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    const api::InferenceSession session = owner.open_session();
    const std::vector<int> before = session.predict(benchmark.test.X);

    owner.rotate(benchmark.train);
    const std::vector<int> expected_after = owner.predict(benchmark.test.X);
    EXPECT_EQ(session.swap_bundle(owner.to_device_bundle().make_snapshot()), 1u);
    EXPECT_EQ(session.epoch(), 1u);
    EXPECT_EQ(session.predict(benchmark.test.X), expected_after);
    EXPECT_EQ(before.size(), expected_after.size());
}

TEST_F(Rotation, InvalidSnapshotsAreRefusedAndOldEpochKeepsServing) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    const api::InferenceSession session = owner.open_session();
    const std::vector<int> expected = session.predict(benchmark.test.X);

    // Null encoder.
    EXPECT_THROW(session.swap_bundle(api::BundleSnapshot{}), RotationError);

    // Feature-count mismatch against the serving encoder.
    DeploymentConfig wrong = small_config();
    wrong.n_features = 17;
    api::Owner mismatched = api::Owner::provision(wrong);
    data::SyntheticSpec spec;
    spec.name = "rotation-wrong";
    spec.n_features = 17;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 30;
    spec.n_levels = 4;
    spec.seed = 9;
    mismatched.train(data::make_benchmark(spec).train);
    EXPECT_THROW(session.swap_bundle(mismatched.to_device_bundle().make_snapshot()),
                 RotationError);

    // Snapshot without a servable model.
    api::BundleSnapshot no_model = owner.to_device_bundle().make_snapshot();
    no_model.model.reset();
    EXPECT_THROW(session.swap_bundle(no_model), RotationError);

    // Every refusal left the original epoch serving, bit-identically.
    EXPECT_EQ(session.epoch(), 0u);
    EXPECT_EQ(session.predict(benchmark.test.X), expected);
}

TEST_F(Rotation, SwapValidationFaultKeepsOldEpochServing) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    const api::InferenceSession session = owner.open_session();
    const std::vector<int> expected = session.predict(benchmark.test.X);

    owner.rotate(benchmark.train);
    const api::BundleSnapshot snapshot = owner.to_device_bundle().make_snapshot();
    {
        fault::ScopedFault guard(fault::kSwapValidate);
        EXPECT_THROW(session.swap_bundle(snapshot), RotationError);
        EXPECT_EQ(guard.hits(), 1u);
    }
    EXPECT_EQ(session.epoch(), 0u);
    EXPECT_EQ(session.predict(benchmark.test.X), expected);

    // Fault cleared: the very same snapshot installs.
    EXPECT_EQ(session.swap_bundle(snapshot), 1u);
    EXPECT_EQ(session.epoch(), 1u);
}

TEST_F(Rotation, SwapAllRollsBackWhenAMidFleetShardRefuses) {
    const auto benchmark = small_benchmark();
    api::Owner owner = trained_owner();
    api::RouterOptions options;
    options.n_shards = 3;
    const api::ShardRouter router = owner.open_router(options);
    const std::vector<int> expected = router.predict(benchmark.test.X);

    owner.rotate(benchmark.train);
    const api::BundleSnapshot snapshot = owner.to_device_bundle().make_snapshot();
    {
        // skip=1: shard 0 swaps cleanly, shard 1 refuses — the rollback has
        // real work to undo, the partial-swap case a first-shard failure
        // never exercises.
        fault::ScopedFault guard(fault::kSwapValidate, /*count=*/1, /*skip=*/1);
        EXPECT_THROW(router.swap_all(snapshot), RotationError);
        EXPECT_EQ(guard.hits(), 1u);
    }
    // The whole fleet is back on the old epoch and still serving it.
    for (std::size_t s = 0; s < router.n_shards(); ++s) {
        EXPECT_EQ(router.shard(s).epoch(), 0u) << "shard " << s;
    }
    EXPECT_EQ(router.predict(benchmark.test.X), expected);

    // Fault cleared: the same snapshot rolls through the whole fleet.
    EXPECT_EQ(router.swap_all(snapshot), 1u);
    for (std::size_t s = 0; s < router.n_shards(); ++s) {
        EXPECT_EQ(router.shard(s).epoch(), 1u) << "shard " << s;
    }
    EXPECT_EQ(router.predict(benchmark.test.X), owner.predict(benchmark.test.X));
}

TEST_F(Rotation, SwapAllErrorNamesTheFailingShard) {
    api::Owner owner = trained_owner();
    api::RouterOptions options;
    options.n_shards = 2;
    const api::ShardRouter router = owner.open_router(options);
    fault::ScopedFault guard(fault::kSwapValidate, /*count=*/1, /*skip=*/1);
    try {
        router.swap_all(owner.to_device_bundle().make_snapshot());
        FAIL() << "swap_all should have thrown";
    } catch (const RotationError& error) {
        const std::string what = error.what();
        EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
        EXPECT_NE(what.find("rolled"), std::string::npos) << what;
    }
}

}  // namespace
