// Concurrency tests for the RCU epoch swap and queue shutdown (driven under
// TSan by CI's tsan-serving-core job — suite names must keep matching its
// `InferenceSession*:SubmitQueue*:Router*` filter):
//
//   - predict/predict_async callers race swap_bundle through >= 3 epochs;
//     every response must be bit-identical to exactly one epoch's reference
//     and carry an epoch that was active while the request was in flight —
//     never a torn mix of one epoch's encoder and another's model.
//   - a router fleet takes swap_all between two waves of in-flight
//     requests: every response is Ok, stamped with the old or the new
//     epoch and bit-identical to that epoch's reference, the queue stays
//     responsive, and a snapshot the fleet cannot serve is refused with
//     the new epoch still serving.
//   - a session destroyed with queued work fails every pending future with
//     a typed ShutdownError; nothing hangs, nothing is silently dropped.

#include "api/inference_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <vector>

#include "api/bundle.hpp"
#include "api/facades.hpp"
#include "api/shard_router.hpp"
#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "held_encoder.hpp"
#include "util/error.hpp"
#include "util/sync.hpp"

namespace {

using namespace hdlock;

data::SyntheticBenchmark swap_benchmark(std::size_t n_features = 16) {
    data::SyntheticSpec spec;
    spec.name = "swap";
    spec.n_features = n_features;
    spec.n_classes = 4;
    spec.n_train = 160;
    spec.n_test = 48;
    spec.n_levels = 4;
    spec.seed = 12;
    return data::make_benchmark(spec);
}

api::Owner swap_owner(const data::SyntheticBenchmark& benchmark) {
    DeploymentConfig config;
    config.dim = 512;
    config.n_features = benchmark.train.n_features();
    config.n_levels = 4;
    config.n_layers = 2;
    config.seed = 5;
    api::Owner owner = api::Owner::provision(config);
    owner.train(benchmark.train);
    return owner;
}

/// The training set with labels cyclically shifted by `shift`: each rotation
/// retrains against a different labeling, so the per-epoch references are
/// pairwise distinct and a torn response cannot masquerade as either epoch.
data::Dataset shifted_labels(const data::Dataset& train, int shift, int n_classes) {
    data::Dataset shifted = train;
    for (auto& label : shifted.y) label = (label + shift) % n_classes;
    return shifted;
}

TEST(InferenceSessionSwap, ConcurrentPredictAsyncAcrossThreeEpochSwaps) {
    const auto benchmark = swap_benchmark();
    api::Owner owner = swap_owner(benchmark);
    const data::Dataset& pool = benchmark.test;

    api::SessionOptions options;
    options.n_threads = 2;
    options.max_batch = 16;
    options.max_queue_rows = 64;
    const api::InferenceSession session = owner.open_session(options);

    // Epoch 0 reference, then three rotations, each retrained on a
    // different label shift so the references are pairwise distinct.
    constexpr std::uint64_t kEpochs = 4;  // 0 plus three swaps
    std::vector<std::vector<int>> expected;
    std::vector<api::BundleSnapshot> snapshots;
    expected.push_back(owner.predict(pool.X));
    for (int shift = 1; shift < static_cast<int>(kEpochs); ++shift) {
        owner.rotate(shifted_labels(benchmark.train, shift, 4));
        expected.push_back(owner.predict(pool.X));
        snapshots.push_back(owner.to_device_bundle().make_snapshot());
    }
    for (std::size_t a = 0; a < expected.size(); ++a) {
        for (std::size_t b = a + 1; b < expected.size(); ++b) {
            ASSERT_NE(expected[a], expected[b]) << "epochs " << a << "/" << b
                                                << " must be distinguishable";
        }
    }

    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kRequestsPerCaller = 120;
    std::atomic<std::size_t> torn{0};
    std::atomic<std::size_t> lost{0};
    std::atomic<std::size_t> resolved{0};
    std::vector<util::Thread> callers;
    for (std::size_t t = 0; t < kCallers; ++t) {
        callers.emplace_back(util::Thread([&, t] {
            for (std::size_t i = 0; i < kRequestsPerCaller; ++i) {
                const std::size_t row = (t * kRequestsPerCaller + i) % pool.X.rows();
                api::Request request;
                request.rows = util::Matrix<float>(1, pool.X.cols());
                const auto source = pool.X.row(row);
                std::copy(source.begin(), source.end(), request.rows.row(0).begin());

                // Epoch window: anything the session served between these
                // two reads was active while the request was in flight.
                const std::uint64_t epoch_low = session.epoch();
                std::future<api::Response> future = session.predict_async(std::move(request));
                const api::Response response = future.get();
                const std::uint64_t epoch_high = session.epoch();
                ++resolved;
                if (!response.ok() || response.labels.size() != 1) {
                    ++lost;
                    continue;
                }
                const bool epoch_in_window =
                    response.epoch >= epoch_low && response.epoch <= epoch_high;
                const bool labels_match_epoch =
                    response.epoch < kEpochs &&
                    response.labels[0] == expected[response.epoch][row];
                if (!epoch_in_window || !labels_match_epoch) ++torn;
            }
        }));
    }

    // Roll through the three new epochs while the callers hammer the queue.
    for (const auto& snapshot : snapshots) {
        util::sleep_for(std::chrono::milliseconds(3));
        session.swap_bundle(snapshot);
    }
    for (auto& caller : callers) caller.join();

    EXPECT_EQ(resolved.load(), kCallers * kRequestsPerCaller);  // no request lost
    EXPECT_EQ(lost.load(), 0u);
    EXPECT_EQ(torn.load(), 0u);
    EXPECT_EQ(session.epoch(), kEpochs - 1);
}

TEST(InferenceSessionSwap, SynchronousPredictRacesSwapsBitIdentically) {
    // Plain predict() snapshots the serving state once per call: under
    // racing swaps each call must match exactly one epoch's reference.
    const auto benchmark = swap_benchmark();
    api::Owner owner = swap_owner(benchmark);
    const data::Dataset& pool = benchmark.test;

    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    const api::InferenceSession session = owner.open_session(options);

    std::vector<std::vector<int>> expected;
    std::vector<api::BundleSnapshot> snapshots;
    expected.push_back(owner.predict(pool.X));
    for (int shift = 1; shift <= 3; ++shift) {
        owner.rotate(shifted_labels(benchmark.train, shift, 4));
        expected.push_back(owner.predict(pool.X));
        snapshots.push_back(owner.to_device_bundle().make_snapshot());
    }

    std::atomic<std::size_t> torn{0};
    std::vector<util::Thread> callers;
    for (std::size_t t = 0; t < 4; ++t) {
        callers.emplace_back(util::Thread([&] {
            for (int round = 0; round < 40; ++round) {
                const std::vector<int> labels = session.predict(pool.X);
                if (std::none_of(expected.begin(), expected.end(),
                                 [&](const std::vector<int>& e) { return e == labels; })) {
                    ++torn;
                }
            }
        }));
    }
    for (const auto& snapshot : snapshots) {
        util::sleep_for(std::chrono::milliseconds(2));
        session.swap_bundle(snapshot);
    }
    for (auto& caller : callers) caller.join();
    EXPECT_EQ(torn.load(), 0u);
}

// ---------------------------------------------------------------------------
// A fleet-wide swap under load.
// ---------------------------------------------------------------------------

TEST(RouterSwap, SwapAllBetweenTwoWavesServesEveryResponseFromOneEpoch) {
    const auto benchmark = swap_benchmark();
    api::Owner owner = swap_owner(benchmark);
    const util::Matrix<float>& pool = benchmark.test.X;

    api::RouterOptions options;
    options.n_shards = 2;
    options.session.max_batch = 64;
    // Deep queues and a far watermark: nothing in flight may shed.
    options.session.max_queue_rows = 1 << 16;
    options.shed_watermark_rows = 1 << 20;
    const api::ShardRouter router = owner.open_router(options);

    const std::uint64_t old_epoch = owner.epoch();
    const std::vector<int> expected_old = owner.predict(pool);
    owner.rotate(shifted_labels(benchmark.train, 1, 4));
    const std::uint64_t new_epoch = owner.epoch();
    const std::vector<int> expected_new = owner.predict(pool);
    ASSERT_EQ(new_epoch, old_epoch + 1);
    ASSERT_NE(expected_old, expected_new) << "the two epochs must be distinguishable";

    constexpr std::size_t kRowsPerRequest = 8;
    constexpr std::size_t kWave = 60;
    std::vector<std::future<api::Response>> inflight;
    inflight.reserve(2 * kWave);
    const auto fire_wave = [&] {
        for (std::size_t i = 0; i < kWave; ++i) {
            api::Request request;
            request.rows = util::Matrix<float>(kRowsPerRequest, pool.cols());
            const std::size_t first_row = inflight.size() * kRowsPerRequest;
            for (std::size_t r = 0; r < kRowsPerRequest; ++r) {
                const auto source = pool.row((first_row + r) % pool.rows());
                std::copy(source.begin(), source.end(), request.rows.row(r).begin());
            }
            inflight.push_back(router.submit(std::move(request)));
        }
    };
    const auto expect_epoch_labels = [&](const api::Response& response, std::size_t request,
                                         const std::vector<int>& expected) {
        ASSERT_EQ(response.labels.size(), kRowsPerRequest) << "request " << request;
        for (std::size_t r = 0; r < kRowsPerRequest; ++r) {
            EXPECT_EQ(response.labels[r], expected[(request * kRowsPerRequest + r) % pool.rows()])
                << "request " << request << " row " << r << " epoch " << response.epoch;
        }
    };

    fire_wave();
    EXPECT_EQ(router.swap_all(owner.to_device_bundle().make_snapshot()), new_epoch);
    fire_wave();

    std::vector<std::chrono::nanoseconds> queue_times;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        const api::Response response = inflight[i].get();
        ASSERT_EQ(response.status, api::Status::ok) << "request " << i;
        ASSERT_TRUE(response.epoch == old_epoch || response.epoch == new_epoch)
            << "request " << i << " served by epoch " << response.epoch;
        expect_epoch_labels(response, i,
                            response.epoch == new_epoch ? expected_new : expected_old);
        queue_times.push_back(response.queue_time);
    }
    for (std::size_t s = 0; s < router.n_shards(); ++s) {
        EXPECT_EQ(router.shard(s).epoch(), new_epoch) << "shard " << s;
    }
    // The swap must not stall the queues: nearest-rank p99 of the time
    // both waves sat queued stays under a loose 2 s bound.
    std::sort(queue_times.begin(), queue_times.end());
    const std::size_t p99_rank = (queue_times.size() * 99 + 99) / 100;
    EXPECT_LT(queue_times[p99_rank - 1], std::chrono::seconds(2));

    // A snapshot with one feature too many cannot serve this fleet: refused
    // as a typed error, and the fleet keeps serving the new epoch.
    const api::Owner mismatched = swap_owner(swap_benchmark(17));
    EXPECT_THROW(router.swap_all(mismatched.to_device_bundle().make_snapshot()), RotationError);
    inflight.clear();
    fire_wave();
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        const api::Response response = inflight[i].get();
        ASSERT_EQ(response.status, api::Status::ok) << "request " << i;
        EXPECT_EQ(response.epoch, new_epoch) << "request " << i;
        expect_epoch_labels(response, i, expected_new);
    }
}

// ---------------------------------------------------------------------------
// Shutdown with pending work.
// ---------------------------------------------------------------------------

TEST(SubmitQueueShutdown, CloseFailsProducersWithTypedShutdownError) {
    api::SubmitQueue queue(64);
    queue.close();
    EXPECT_TRUE(queue.closed());
    api::AsyncRequest request;
    request.rows = util::Matrix<float>(1, 4);
    EXPECT_THROW(queue.push(std::move(request)), ShutdownError);
    api::AsyncRequest retry;
    retry.rows = util::Matrix<float>(1, 4);
    EXPECT_THROW((void)queue.try_submit(std::move(retry)), ShutdownError);
}

TEST(SubmitQueueShutdown, DestroyedSessionFailsQueuedFuturesNotHangs) {
    // The dispatcher is held inside request 0's encode while kQueued
    // requests fill the queue behind it; destroying the session then closes
    // the queue with that work pending, and the dispatcher must fail it,
    // typed.  The hold ends only once the queue is closed: one more
    // producer blocks on the full queue, sees the close as ShutdownError
    // and only then releases the encoder.
    const auto benchmark = swap_benchmark();
    hdc::ItemMemoryConfig memory_config;
    memory_config.dim = 512;
    memory_config.n_features = benchmark.train.n_features();
    memory_config.n_levels = 4;
    memory_config.seed = 7;
    const auto memory =
        std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(memory_config));
    const auto classifier = hdc::HdcClassifier::fit(
        benchmark.train, std::make_shared<hdc::RecordEncoder>(memory, /*tie_seed=*/3),
        hdc::PipelineConfig{});
    const auto held = std::make_shared<fixtures::HeldEncoder>(memory, /*tie_seed=*/3);

    constexpr std::size_t kQueued = 8;
    const std::size_t rows = benchmark.test.X.rows();
    api::SessionOptions options;
    options.n_threads = 1;
    options.max_batch = 1 << 20;
    options.max_queue_rows = kQueued * rows;
    auto owned = std::make_unique<api::InferenceSession>(held, classifier.discretizer(),
                                                         classifier.model(), options);
    const api::InferenceSession& session = *owned;  // the producer never reads `owned`
    const auto submit = [&] {
        api::Request request;
        request.rows = benchmark.test.X;
        return session.predict_async(std::move(request));
    };

    std::vector<std::future<api::Response>> futures;
    futures.push_back(submit());
    held->wait_until_held();
    for (std::size_t i = 0; i < kQueued; ++i) futures.push_back(submit());
    std::atomic<bool> refused{false};
    util::Thread producer([&] {
        try {
            (void)submit();
        } catch (const ShutdownError&) {
            refused.store(true);
        }
        held->release();
    });
    // Its rows count as in flight before it blocks on the full queue, so
    // the session is destroyed only once that producer is inside it.
    while (session.inflight_rows() < (kQueued + 2) * rows) util::yield_now();
    owned.reset();
    producer.join();
    EXPECT_TRUE(refused.load());

    EXPECT_TRUE(futures.front().get().ok()) << "request 0 was being served";
    for (std::size_t i = 1; i < futures.size(); ++i) {
        EXPECT_THROW(futures[i].get(), ShutdownError) << "queued request " << i;
    }
}

}  // namespace
