// Tests for the in-process shard router (src/api/shard_router.*): placement
// parsing and option clamping, bit-identity across shard counts and
// placement policies, admission control past the watermark at every
// placement, deadline and cancellation outcomes, and construction from
// copied and mapped bundles.
// Suite names all start with Router so the TSan CI job's gtest filter
// (InferenceSession*:SubmitQueue*:Router*) picks them up.

#include "api/shard_router.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <filesystem>
#include <future>
#include <optional>
#include <vector>

#include "api/facades.hpp"
#include "data/synthetic.hpp"

namespace {

using namespace hdlock;

struct Fixture {
    data::SyntheticBenchmark data;
    api::Owner owner;
};

Fixture make_fixture() {
    data::SyntheticSpec spec;
    spec.name = "router";
    spec.n_features = 24;
    spec.n_classes = 4;
    spec.n_train = 160;
    spec.n_test = 96;
    spec.n_levels = 8;
    spec.noise = 0.1;
    spec.seed = 5;
    auto data = data::make_benchmark(spec);

    DeploymentConfig config;
    config.dim = 1024;
    config.n_features = spec.n_features;
    config.n_levels = spec.n_levels;
    config.n_layers = 2;
    config.seed = 23;
    api::Owner owner = api::Owner::provision(config);
    owner.train(data.train);
    return Fixture{std::move(data), std::move(owner)};
}

/// `n` rows of the test pool starting at `begin` (wrapping), as one request.
util::Matrix<float> slice_rows(const util::Matrix<float>& pool, std::size_t begin,
                               std::size_t n) {
    util::Matrix<float> rows(n, pool.cols());
    for (std::size_t r = 0; r < n; ++r) {
        const auto source = pool.row((begin + r) % pool.rows());
        std::copy(source.begin(), source.end(), rows.row(r).begin());
    }
    return rows;
}

}  // namespace

TEST(RouterOptions, PlacementNamesRoundTrip) {
    for (const api::Placement placement :
         {api::Placement::round_robin, api::Placement::least_loaded,
          api::Placement::consistent_hash}) {
        const auto parsed = api::parse_placement(api::placement_name(placement));
        ASSERT_TRUE(parsed.has_value());
        EXPECT_EQ(*parsed, placement);
    }
    EXPECT_EQ(api::parse_placement("tarot-cards"), std::nullopt);
    EXPECT_EQ(api::parse_placement(""), std::nullopt);
}

TEST(RouterOptions, ShardCountAndWatermarkClampToSaneDefaults) {
    const Fixture fixture = make_fixture();
    api::RouterOptions options;
    options.n_shards = 0;  // clamped to one shard
    options.session.max_queue_rows = 32;
    const api::ShardRouter router = fixture.owner.open_router(options);
    EXPECT_EQ(router.n_shards(), 1u);
    // Unset watermark defaults to the fleet's total queue capacity.
    EXPECT_EQ(router.shed_watermark_rows(), 32u);
}

TEST(RouterBitIdentity, ShardCountAndPlacementNeverChangeLabels) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;
    const std::vector<int> expected = fixture.owner.open_session().predict(pool);
    constexpr std::size_t kRowsPerRequest = 8;
    constexpr std::size_t kRequests = 24;

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const api::Placement placement :
             {api::Placement::round_robin, api::Placement::least_loaded,
              api::Placement::consistent_hash}) {
            api::RouterOptions options;
            options.n_shards = shards;
            options.placement = placement;
            const api::ShardRouter router = fixture.owner.open_router(options);

            std::vector<std::future<api::Response>> inflight;
            inflight.reserve(kRequests);
            for (std::size_t i = 0; i < kRequests; ++i) {
                api::Request request;
                request.rows = slice_rows(pool, i * kRowsPerRequest, kRowsPerRequest);
                if (placement == api::Placement::consistent_hash) {
                    request.shard_key = i % 6;
                }
                inflight.push_back(router.submit(std::move(request)));
            }
            for (std::size_t i = 0; i < inflight.size(); ++i) {
                const api::Response response = inflight[i].get();
                ASSERT_EQ(response.status, api::Status::ok)
                    << shards << " shard(s), " << api::placement_name(placement);
                EXPECT_LT(response.shard_id, shards);
                for (std::size_t r = 0; r < response.labels.size(); ++r) {
                    EXPECT_EQ(response.labels[r],
                              expected[(i * kRowsPerRequest + r) % pool.rows()])
                        << "request " << i << " row " << r << " at " << shards
                        << " shard(s), " << api::placement_name(placement);
                }
            }
            EXPECT_EQ(router.stats().accepted, kRequests);
            EXPECT_EQ(router.stats().shed, 0u);
        }
    }
}

TEST(RouterAdmission, ShedsPastTheWatermarkAndAccountsEveryRequest) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;
    const std::vector<int> expected = fixture.owner.open_session().predict(pool);
    constexpr std::size_t kRowsPerRequest = 8;
    constexpr std::size_t kRequests = 200;

    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
        for (const api::Placement placement :
             {api::Placement::round_robin, api::Placement::least_loaded,
              api::Placement::consistent_hash}) {
            api::RouterOptions options;
            options.n_shards = shards;
            options.placement = placement;
            options.session.max_batch = 16;
            options.session.max_queue_rows = 64;
            // An aggregate watermark of two 8-row requests per shard stays
            // under every shard queue (64 rows), so every refusal is the
            // router's watermark.
            options.shed_watermark_rows = 16 * shards;
            const api::ShardRouter router = fixture.owner.open_router(options);

            std::vector<std::future<api::Response>> inflight;
            inflight.reserve(kRequests);
            for (std::size_t i = 0; i < kRequests; ++i) {
                api::Request request;
                request.rows = slice_rows(pool, i * kRowsPerRequest, kRowsPerRequest);
                if (placement == api::Placement::consistent_hash) {
                    request.shard_key = i % 6;
                }
                inflight.push_back(router.submit(std::move(request)));
            }

            std::size_t ok = 0;
            std::size_t shed = 0;
            for (std::size_t i = 0; i < inflight.size(); ++i) {
                const api::Response response = inflight[i].get();
                if (response.status == api::Status::ok) {
                    ++ok;
                    for (std::size_t r = 0; r < response.labels.size(); ++r) {
                        EXPECT_EQ(response.labels[r],
                                  expected[(i * kRowsPerRequest + r) % pool.rows()])
                            << "request " << i << " row " << r << " at " << shards
                            << " shard(s), " << api::placement_name(placement);
                    }
                } else {
                    ASSERT_EQ(response.status, api::Status::overloaded)
                        << shards << " shard(s), " << api::placement_name(placement);
                    EXPECT_TRUE(response.labels.empty());
                    ++shed;
                }
            }
            // Firing 200 requests without harvesting against the watermark
            // must shed (serving 8 rows is far slower than the submit loop),
            // and every request resolves exactly once as ok or overloaded.
            EXPECT_EQ(ok + shed, kRequests) << shards << " shard(s), "
                                            << api::placement_name(placement);
            EXPECT_GE(ok, 1u) << shards << " shard(s), " << api::placement_name(placement);
            EXPECT_GE(shed, 1u) << shards << " shard(s), " << api::placement_name(placement);
            const api::RouterStats stats = router.stats();
            EXPECT_EQ(stats.accepted, ok);
            EXPECT_EQ(stats.shed, shed);
            EXPECT_EQ(router.inflight_rows(), 0u);
        }
    }
}

TEST(RouterAdmission, OversizedRequestIsServedWhenTheFleetIsIdle) {
    // A request larger than the watermark can never fit under it, so
    // refusing it on an idle fleet would refuse it on every retry.  The
    // router admits it when nothing is in flight, as each shard's
    // SubmitQueue admits an oversized request into an empty queue.
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;
    const std::vector<int> expected = fixture.owner.open_session().predict(pool);

    api::RouterOptions options;
    options.n_shards = 2;
    options.session.max_queue_rows = 32;  // watermark 64 rows
    const api::ShardRouter router = fixture.owner.open_router(options);
    ASSERT_EQ(router.shed_watermark_rows(), 64u);

    constexpr std::size_t kRows = 96;
    for (int attempt = 0; attempt < 3; ++attempt) {
        ASSERT_EQ(router.inflight_rows(), 0u);
        api::Request request;
        request.rows = slice_rows(pool, 0, kRows);
        const api::Response response = router.submit(std::move(request)).get();
        ASSERT_EQ(response.status, api::Status::ok) << "attempt " << attempt;
        ASSERT_EQ(response.labels.size(), kRows);
        for (std::size_t r = 0; r < kRows; ++r) {
            EXPECT_EQ(response.labels[r], expected[r % pool.rows()]) << "row " << r;
        }
    }
    EXPECT_EQ(router.stats().shed, 0u);
    EXPECT_EQ(router.stats().accepted, 3u);
}

TEST(RouterDeadlines, QueuedRequestBehindASlowBatchExceedsItsDeadline) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;

    api::RouterOptions options;
    options.n_shards = 1;
    options.session.n_threads = 1;
    options.session.max_batch = 64;          // the plug is popped alone...
    options.session.max_queue_rows = 16384;  // ...and both requests queue freely
    const api::ShardRouter router = fixture.owner.open_router(options);

    // A large plug occupies the single dispatcher for milliseconds; the
    // request queued behind it carries a microsecond budget, so by the time
    // the dispatcher reaches it the deadline has passed and it is dropped
    // before encode.  (If the submit itself outlives the budget, the
    // submit-time check fires instead — same observable outcome.)
    api::Request plug;
    plug.rows = slice_rows(pool, 0, 4096);
    auto plug_future = router.submit(std::move(plug));

    api::Request hurried;
    hurried.rows = slice_rows(pool, 0, 8);
    hurried.deadline = util::Deadline::after(std::chrono::microseconds{1});
    const api::Response late = router.submit(std::move(hurried)).get();
    EXPECT_EQ(late.status, api::Status::deadline_exceeded);
    EXPECT_TRUE(late.labels.empty());

    EXPECT_EQ(plug_future.get().status, api::Status::ok);
}

TEST(RouterDeadlines, SpentDeadlineResolvesWithoutLabelsAtEveryShardCountAndPlacement) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;
    constexpr std::size_t kRequests = 12;

    for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
        for (const api::Placement placement :
             {api::Placement::round_robin, api::Placement::least_loaded,
              api::Placement::consistent_hash}) {
            api::RouterOptions options;
            options.n_shards = shards;
            options.placement = placement;
            const api::ShardRouter router = fixture.owner.open_router(options);

            // A budget spent before submit resolves at the shard's front
            // door: no queue slot, no labels.
            for (std::size_t i = 0; i < kRequests; ++i) {
                api::Request request;
                request.rows = slice_rows(pool, i * 8, 8);
                request.deadline = util::Deadline::after(std::chrono::nanoseconds{0});
                if (placement == api::Placement::consistent_hash) {
                    request.shard_key = i % 6;
                }
                const api::Response response = router.submit(std::move(request)).get();
                EXPECT_EQ(response.status, api::Status::deadline_exceeded)
                    << "request " << i << " at " << shards << " shard(s), "
                    << api::placement_name(placement);
                EXPECT_TRUE(response.labels.empty());
                EXPECT_LT(response.shard_id, shards);
            }
            EXPECT_EQ(router.inflight_rows(), 0u);
            EXPECT_EQ(router.stats().shed, 0u);
        }
    }
}

TEST(RouterCancellation, CancelBeforeDispatchResolvesWithoutServing) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;

    api::RouterOptions options;
    options.n_shards = 1;
    options.session.n_threads = 1;
    options.session.max_batch = 64;
    options.session.max_queue_rows = 16384;
    const api::ShardRouter router = fixture.owner.open_router(options);

    // Cancel fired before submit: short-circuits at admission.
    api::CancelSource early;
    early.request_cancel();
    api::Request never_queued;
    never_queued.rows = slice_rows(pool, 0, 8);
    never_queued.cancel = early.token();
    const api::Response gone = router.submit(std::move(never_queued)).get();
    EXPECT_EQ(gone.status, api::Status::cancelled);
    EXPECT_TRUE(gone.labels.empty());

    // Cancel fired while queued behind a slow plug: the dispatcher drops it
    // before encode.
    api::Request plug;
    plug.rows = slice_rows(pool, 0, 4096);
    auto plug_future = router.submit(std::move(plug));

    api::CancelSource source;
    api::Request queued;
    queued.rows = slice_rows(pool, 0, 8);
    queued.cancel = source.token();
    auto queued_future = router.submit(std::move(queued));
    source.request_cancel();

    EXPECT_EQ(queued_future.get().status, api::Status::cancelled);
    EXPECT_EQ(plug_future.get().status, api::Status::ok);
}

TEST(RouterBundles, ServesFromCopiedAndMappedBundles) {
    const Fixture fixture = make_fixture();
    const util::Matrix<float>& pool = fixture.data.test.X;
    const std::vector<int> expected = fixture.owner.open_session().predict(pool);
    const auto path =
        std::filesystem::temp_directory_path() / "hdlock_router_bundle_test.hdlk";
    fixture.owner.export_device(path);

    const auto roundtrip = [&](const api::ShardRouter& router) {
        std::vector<std::future<api::Response>> inflight;
        for (std::size_t i = 0; i < 12; ++i) {
            api::Request request;
            request.rows = slice_rows(pool, i * 8, 8);
            inflight.push_back(router.submit(std::move(request)));
        }
        for (std::size_t i = 0; i < inflight.size(); ++i) {
            const api::Response response = inflight[i].get();
            ASSERT_EQ(response.status, api::Status::ok);
            for (std::size_t r = 0; r < response.labels.size(); ++r) {
                EXPECT_EQ(response.labels[r], expected[(i * 8 + r) % pool.rows()]);
            }
        }
    };

    {
        // Copying load: each shard copies discretizer + model, shares the
        // sealed encoder.
        const api::Device device = api::Device::load(path);
        roundtrip(device.open_router({.n_shards = 2}));
    }
    {
        // Mapped load: all shards serve out of one shared mapping, and the
        // sessions anchor it even after the Device goes out of scope.
        const api::ShardRouter router =
            api::Device::open_mapped(path).open_router({.n_shards = 2});
        roundtrip(router);
    }
    std::filesystem::remove(path);
}
