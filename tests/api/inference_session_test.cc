// Tests for batched serving (src/api/inference_session.*): bit-identity with
// the sequential per-row path at several thread counts, input validation,
// and the served-rows counter.

#include "api/inference_session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <vector>

#include "api/facades.hpp"
#include "data/synthetic.hpp"
#include "hdc/classifier.hpp"
#include "held_encoder.hpp"
#include "util/kernels.hpp"

namespace {

using namespace hdlock;

struct Pipeline {
    data::SyntheticBenchmark data;
    api::Owner owner;
    hdc::HdcClassifier classifier;  // the legacy per-row reference path
};

Pipeline make_pipeline(hdc::ModelKind kind) {
    data::SyntheticSpec spec;
    spec.name = "session";
    spec.n_features = 32;
    spec.n_classes = 4;
    spec.n_train = 200;
    spec.n_test = 140;
    spec.n_levels = 8;
    spec.noise = 0.15;
    spec.seed = 3;
    auto data = data::make_benchmark(spec);

    DeploymentConfig config;
    config.dim = 1024;
    config.n_features = spec.n_features;
    config.n_levels = spec.n_levels;
    config.n_layers = 2;
    config.seed = 41;
    api::Owner owner = api::Owner::provision(config);
    api::TrainOptions options;
    options.kind = kind;
    owner.train(data.train, options);

    // The pre-api reference pipeline over the *same* encoder and data: its
    // predict_row is the ground truth the batched path must reproduce.
    hdc::PipelineConfig pipeline;
    pipeline.train.kind = kind;
    auto classifier = hdc::HdcClassifier::fit(data.train, owner.encoder(), pipeline);
    return Pipeline{std::move(data), std::move(owner), std::move(classifier)};
}

/// The reference labels of the test split: the per-row predict_row loop.
std::vector<int> reference_labels(const Pipeline& pipeline) {
    std::vector<int> labels;
    for (std::size_t s = 0; s < pipeline.data.test.n_samples(); ++s) {
        labels.push_back(pipeline.classifier.predict_row(pipeline.data.test.X.row(s)));
    }
    return labels;
}

/// Row `r` of `X` as a one-row async request.
api::Request row_request(const util::Matrix<float>& X, std::size_t r) {
    api::Request request;
    request.rows = util::Matrix<float>(1, X.cols());
    const auto source = X.row(r);
    std::copy(source.begin(), source.end(), request.rows.row(0).begin());
    return request;
}

}  // namespace

class InferenceSessionThreads
    : public ::testing::TestWithParam<std::tuple<hdc::ModelKind, std::size_t>> {};

TEST_P(InferenceSessionThreads, BatchMatchesPerRowPredictRowBitExactly) {
    const auto [kind, n_threads] = GetParam();
    const Pipeline pipeline = make_pipeline(kind);

    api::SessionOptions options;
    options.n_threads = n_threads;
    options.min_rows_per_thread = 1;  // force the full worker fan-out
    const auto session = pipeline.owner.open_session(options);
    EXPECT_EQ(session.n_threads(), n_threads);

    const auto batch = session.predict(pipeline.data.test.X);
    ASSERT_EQ(batch.size(), pipeline.data.test.n_samples());
    for (std::size_t s = 0; s < batch.size(); ++s) {
        EXPECT_EQ(batch[s], pipeline.classifier.predict_row(pipeline.data.test.X.row(s)))
            << "row " << s << " at " << n_threads << " thread(s)";
    }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndThreads, InferenceSessionThreads,
    ::testing::Combine(::testing::Values(hdc::ModelKind::binary, hdc::ModelKind::non_binary),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{8})),
    [](const ::testing::TestParamInfo<std::tuple<hdc::ModelKind, std::size_t>>& info) {
        const bool binary = std::get<0>(info.param) == hdc::ModelKind::binary;
        return std::string(binary ? "binary" : "nonbinary") + "_T" +
               std::to_string(std::get<1>(info.param));
    });

TEST(InferenceSession, KernelBackendPinIsBitIdentical) {
    // Serving on any available SIMD kernel backend must reproduce the
    // reference labels (computed on the default backend) for both model
    // kinds.  The pin is process-global and scoped to each iteration.
    namespace kernels = util::kernels;
    for (const hdc::ModelKind kind : {hdc::ModelKind::binary, hdc::ModelKind::non_binary}) {
        const Pipeline pipeline = make_pipeline(kind);
        const std::vector<int> reference = reference_labels(pipeline);
        for (const kernels::Backend backend : kernels::available_backends()) {
            const kernels::ScopedBackend pin(backend);
            const auto session = pipeline.owner.open_session();
            EXPECT_EQ(session.predict(pipeline.data.test.X), reference)
                << kernels::backend_name(backend);
        }
    }
}

TEST(InferenceSession, ThreadCountsAgreeWithEachOther) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    std::vector<int> reference;
    for (const std::size_t n_threads : {1u, 2u, 8u}) {
        api::SessionOptions options;
        options.n_threads = n_threads;
        options.min_rows_per_thread = 1;
        const auto predictions =
            pipeline.owner.open_session(options).predict(pipeline.data.test.X);
        if (reference.empty()) {
            reference = predictions;
        } else {
            EXPECT_EQ(predictions, reference) << n_threads << " threads";
        }
    }
}

TEST(InferenceSession, EmptyBatchAndShapeValidation) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    const auto session = pipeline.owner.open_session();

    EXPECT_TRUE(session.predict(util::Matrix<float>()).empty());
    // Wrong column count is a contract violation, not silent garbage.
    EXPECT_THROW(session.predict(util::Matrix<float>(3, 7)), ContractViolation);
    EXPECT_THROW(session.predict_row(std::vector<float>(7)), ContractViolation);
}

TEST(InferenceSession, CountsServedRows) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    const auto session = pipeline.owner.open_session(options);

    EXPECT_EQ(session.rows_served(), 0u);
    session.predict(pipeline.data.test.X);
    EXPECT_EQ(session.rows_served(), pipeline.data.test.n_samples());
    session.predict_row(pipeline.data.test.X.row(0));
    EXPECT_EQ(session.rows_served(), pipeline.data.test.n_samples() + 1);
}

TEST(InferenceSession, SmallBatchStaysSequentialButIdentical) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    api::SessionOptions options;
    options.n_threads = 8;
    options.min_rows_per_thread = 1000;  // batches below 8000 rows stay inline
    const auto session = pipeline.owner.open_session(options);
    const auto predictions = session.predict(pipeline.data.test.X);
    for (std::size_t s = 0; s < predictions.size(); ++s) {
        EXPECT_EQ(predictions[s], pipeline.classifier.predict_row(pipeline.data.test.X.row(s)));
    }
}

TEST(InferenceSession, PlannedWorkersNeverReceiveEmptyRanges) {
    // Regression: chunk = ceil(n/workers) can strand trailing workers past
    // the end of the batch (n=13, 6 threads -> chunk 3 -> worker 5 would
    // start at row 15).  The worker count is clamped to ceil(n/chunk).
    EXPECT_EQ(api::planned_workers(13, 6, 1), 5u);
    EXPECT_EQ(api::planned_workers(10, 4, 1), 4u);   // 10/4 -> chunk 3 -> 4 workers
    EXPECT_EQ(api::planned_workers(9, 4, 1), 3u);    // chunk 3 -> exactly 3
    EXPECT_EQ(api::planned_workers(1, 8, 1), 1u);
    EXPECT_EQ(api::planned_workers(0, 8, 1), 1u);
    EXPECT_EQ(api::planned_workers(1000, 4, 16), 4u);
    EXPECT_EQ(api::planned_workers(32, 8, 16), 2u);  // min-rows cap first

    // Every (n, threads) combination must cover [0, n) exactly once with no
    // empty ranges.
    for (std::size_t n = 1; n <= 40; ++n) {
        for (std::size_t threads = 1; threads <= 9; ++threads) {
            const std::size_t workers = api::planned_workers(n, threads, 1);
            const std::size_t chunk = (n + workers - 1) / workers;
            std::size_t covered = 0;
            for (std::size_t w = 0; w < workers; ++w) {
                const std::size_t begin = w * chunk;
                const std::size_t end = std::min(begin + chunk, n);
                ASSERT_LT(begin, end) << "empty range: n=" << n << " threads=" << threads
                                      << " worker=" << w;
                covered += end - begin;
            }
            ASSERT_EQ(covered, n) << "n=" << n << " threads=" << threads;
        }
    }
}

TEST(InferenceSession, AwkwardBatchSizesStayBitIdentical) {
    // The shapes from the empty-range regression, end to end.
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    for (const std::size_t rows : {std::size_t{10}, std::size_t{13}}) {
        util::Matrix<float> batch(rows, pipeline.data.test.n_features());
        for (std::size_t r = 0; r < rows; ++r) {
            const auto source = pipeline.data.test.X.row(r);
            std::copy(source.begin(), source.end(), batch.row(r).begin());
        }
        api::SessionOptions options;
        options.n_threads = rows == 10 ? 4 : 6;
        options.min_rows_per_thread = 1;
        const auto predictions = pipeline.owner.open_session(options).predict(batch);
        ASSERT_EQ(predictions.size(), rows);
        for (std::size_t r = 0; r < rows; ++r) {
            EXPECT_EQ(predictions[r], pipeline.classifier.predict_row(batch.row(r)));
        }
    }
}

TEST(InferenceSession, RejectsMismatchedComponents) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    // Discretizer with the wrong level count for the encoder.
    const auto bad_disc = hdc::MinMaxDiscretizer::with_range(0.0f, 1.0f, 3);
    EXPECT_THROW(api::InferenceSession(pipeline.owner.encoder(), bad_disc,
                                       pipeline.owner.model()),
                 ContractViolation);
}

// ---------------------------------------------------------------------------
// The persistent serving core: the pool, the async micro-batching front
// door, and the SubmitQueue underneath it.
// ---------------------------------------------------------------------------

TEST(InferenceSession, PoolIsReusedAcrossManyBatches) {
    // The tentpole claim: many dispatches, one persistent pool, results
    // identical every round (slot-pinned scratch carries no row state over).
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::non_binary);
    api::SessionOptions options;
    options.n_threads = 4;
    options.min_rows_per_thread = 1;
    const auto session = pipeline.owner.open_session(options);
    const auto reference = session.predict(pipeline.data.test.X);
    for (int round = 0; round < 50; ++round) {
        ASSERT_EQ(session.predict(pipeline.data.test.X), reference) << "round " << round;
    }
    EXPECT_EQ(session.rows_served(), 51 * pipeline.data.test.n_samples());
}

TEST(InferenceSession, PredictAsyncMatchesPredictBitExactly) {
    // The async path against the reference labels predict() is held to.
    // Zero-row requests are covered by TypedRequestMatchesPredictBitExactly.
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    const std::vector<int> reference = reference_labels(pipeline);
    const auto& X = pipeline.data.test.X;
    for (const std::size_t n_threads : {1u, 2u, 4u}) {
        api::SessionOptions options;
        options.n_threads = n_threads;
        options.min_rows_per_thread = 1;
        const auto session = pipeline.owner.open_session(options);

        // Row-at-a-time: micro-batching must not change a single label.
        std::vector<std::future<api::Response>> futures;
        for (std::size_t r = 0; r < X.rows(); ++r) {
            futures.push_back(session.predict_async(row_request(X, r)));
        }
        for (std::size_t r = 0; r < futures.size(); ++r) {
            const api::Response response = futures[r].get();
            ASSERT_TRUE(response.ok());
            ASSERT_EQ(response.labels.size(), 1u);
            EXPECT_EQ(response.labels[0], reference[r]) << "row " << r << ", T" << n_threads;
        }

        // Whole batch, at every thread count.
        api::Request whole;
        whole.rows = X;
        EXPECT_EQ(session.predict_async(std::move(whole)).get().labels, reference)
            << n_threads << " threads";

        // Shape violations surface in the caller, not in the dispatcher.
        api::Request misshapen;
        misshapen.rows = util::Matrix<float>(2, 5);
        EXPECT_THROW(session.predict_async(std::move(misshapen)), ContractViolation);
    }
}

TEST(InferenceSession, ConcurrentSubmittersUnderStress) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    options.max_batch = 32;
    options.max_queue_rows = 64;  // small queue: exercises backpressure
    const auto session = pipeline.owner.open_session(options);
    const std::vector<int> reference = reference_labels(pipeline);
    const std::size_t n_rows = pipeline.data.test.n_samples();

    constexpr std::size_t kSubmitters = 6;
    std::vector<util::Thread> submitters;
    std::vector<std::vector<int>> results(kSubmitters);
    for (std::size_t t = 0; t < kSubmitters; ++t) {
        submitters.emplace_back(util::Thread([&, t] {
            std::vector<std::future<api::Response>> futures;
            for (std::size_t r = 0; r < n_rows; ++r) {
                futures.push_back(session.predict_async(row_request(pipeline.data.test.X, r)));
            }
            for (auto& future : futures) {
                const api::Response response = future.get();
                results[t].push_back(response.ok() ? response.labels.at(0) : -1);
            }
        }));
    }
    for (auto& submitter : submitters) submitter.join();
    for (std::size_t t = 0; t < kSubmitters; ++t) {
        EXPECT_EQ(results[t], reference) << "submitter " << t;
    }
    EXPECT_EQ(session.rows_served(), kSubmitters * n_rows);
}

TEST(InferenceSession, ConcurrentPredictCallersShareThePoolSafely) {
    // Plain predict() from many caller threads on one shared session — the
    // TSan job drives this test to prove slot-pinned scratch stays private.
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::non_binary);
    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    const auto session = pipeline.owner.open_session(options);
    const auto reference = session.predict(pipeline.data.test.X);

    std::vector<util::Thread> callers;
    // Not vector<bool>: adjacent packed bits written from different threads
    // would be a (test-side) data race.
    std::array<std::atomic<bool>, 4> agree{};
    for (std::size_t t = 0; t < agree.size(); ++t) {
        callers.emplace_back(util::Thread([&, t] {
            bool all = true;
            for (int round = 0; round < 5; ++round) {
                all = all && session.predict(pipeline.data.test.X) == reference;
            }
            agree[t].store(all);
        }));
    }
    for (auto& caller : callers) caller.join();
    for (std::size_t t = 0; t < agree.size(); ++t) {
        EXPECT_TRUE(agree[t].load()) << "caller " << t;
    }
}

TEST(SubmitQueue, CoalescesQueuedRequestsIntoOneMicroBatch) {
    api::SubmitQueue queue(/*max_rows=*/1024);
    for (int i = 0; i < 3; ++i) {
        queue.push(api::AsyncRequest{.rows = util::Matrix<float>(2, 4)});
    }
    EXPECT_EQ(queue.queued_rows(), 6u);
    const auto batch = queue.pop_batch(/*max_batch=*/256);
    EXPECT_EQ(batch.size(), 3u);
    EXPECT_EQ(queue.queued_rows(), 0u);
}

TEST(SubmitQueue, RespectsMaxBatchAndTakesWholeRequests) {
    api::SubmitQueue queue(/*max_rows=*/1024);
    for (int i = 0; i < 4; ++i) {
        queue.push(api::AsyncRequest{.rows = util::Matrix<float>(3, 4)});
    }
    // 3 + 3 = 6 <= 7, adding the third request would exceed max_batch.
    const auto batch = queue.pop_batch(/*max_batch=*/7);
    EXPECT_EQ(batch.size(), 2u);
    EXPECT_EQ(queue.queued_rows(), 6u);
}

TEST(SubmitQueue, OversizedRequestIsAdmittedAloneAndCloseWakesProducers) {
    api::SubmitQueue queue(/*max_rows=*/4);
    // Larger than the whole queue: admitted when the queue is empty.
    queue.push(api::AsyncRequest{.rows = util::Matrix<float>(9, 2)});
    EXPECT_EQ(queue.queued_rows(), 9u);
    const auto batch = queue.pop_batch(/*max_batch=*/4);
    ASSERT_EQ(batch.size(), 1u);  // whole requests are never split
    EXPECT_EQ(batch.front().rows.rows(), 9u);

    queue.close();
    EXPECT_THROW(queue.push(api::AsyncRequest{.rows = util::Matrix<float>(1, 2)}), Error);
    EXPECT_TRUE(queue.pop_batch(4).empty());
}

TEST(SubmitQueue, TrySubmitRefusesWhenFullWithoutConsumingTheRequest) {
    api::SubmitQueue queue(/*max_rows=*/4);
    api::AsyncRequest first;
    first.rows = util::Matrix<float>(3, 2);
    EXPECT_EQ(queue.try_submit(std::move(first)), api::Status::ok);
    EXPECT_EQ(queue.queued_rows(), 3u);

    api::AsyncRequest second;
    second.rows = util::Matrix<float>(2, 2);
    auto future = second.promise.get_future();
    // 3 + 2 > 4 and the queue is non-empty: refused, and — unlike push(),
    // which would block — the caller gets the request back untouched
    // (try_submit only moves from its argument on acceptance).
    EXPECT_EQ(queue.try_submit(std::move(second)), api::Status::overloaded);
    EXPECT_EQ(second.rows.rows(), 2u);
    api::Response shed;
    shed.status = api::Status::overloaded;
    second.promise.set_value(std::move(shed));
    EXPECT_EQ(future.get().status, api::Status::overloaded);

    api::AsyncRequest third;
    third.rows = util::Matrix<float>(1, 2);
    EXPECT_EQ(queue.try_submit(std::move(third)), api::Status::ok);
    EXPECT_EQ(queue.queued_rows(), 4u);

    queue.close();
    api::AsyncRequest late;
    late.rows = util::Matrix<float>(1, 2);
    EXPECT_THROW(queue.try_submit(std::move(late)), Error);
}

TEST(SubmitQueue, TrySubmitIsSafeUnderConcurrentProducers) {
    // TSan coverage for the non-blocking admission path: producers hammer
    // try_submit while a consumer drains; the counts must reconcile and the
    // queue's invariants hold under the annotated lock discipline.
    api::SubmitQueue queue(/*max_rows=*/8);
    std::atomic<int> accepted{0};
    std::atomic<int> refused{0};
    util::Thread consumer([&] {
        while (true) {
            const auto batch = queue.pop_batch(/*max_batch=*/4);
            if (batch.empty()) break;  // closed and drained
        }
    });

    constexpr int kProducers = 4;
    constexpr int kTries = 64;
    std::vector<util::Thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back(util::Thread([&] {
            for (int i = 0; i < kTries; ++i) {
                api::AsyncRequest request;
                request.rows = util::Matrix<float>(1, 2);
                if (queue.try_submit(std::move(request)) == api::Status::ok) {
                    accepted.fetch_add(1);
                } else {
                    refused.fetch_add(1);
                }
            }
        }));
    }
    for (auto& producer : producers) producer.join();
    queue.close();
    consumer.join();

    EXPECT_EQ(accepted.load() + refused.load(), kProducers * kTries);
    EXPECT_GE(accepted.load(), 1);
    EXPECT_EQ(queue.queued_rows(), 0u);
}

TEST(InferenceSession, TypedRequestMatchesPredictBitExactly) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    const auto session = pipeline.owner.open_session();
    const auto& X = pipeline.data.test.X;
    const std::vector<int> expected = session.predict(X);

    api::Request request;
    request.rows = X;
    api::Response response = session.predict_async(std::move(request), /*shard_id=*/7).get();
    EXPECT_EQ(response.status, api::Status::ok);
    EXPECT_TRUE(response.ok());
    EXPECT_EQ(response.labels, expected);
    EXPECT_EQ(response.shard_id, 7u);
    EXPECT_GE(response.queue_time.count(), 0);

    // An empty typed request resolves Ok with no labels, without serving.
    api::Request empty;
    api::Response none = session.predict_async(std::move(empty)).get();
    EXPECT_EQ(none.status, api::Status::ok);
    EXPECT_TRUE(none.labels.empty());
}

TEST(InferenceSession, DoomedTypedRequestsResolveWithoutServing) {
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    const auto session = pipeline.owner.open_session();
    const std::uint64_t served_before = session.rows_served();

    // Already-expired deadline: resolved at submit, never encoded.
    api::Request expired;
    expired.rows = util::Matrix<float>(pipeline.data.test.X);
    expired.deadline = util::Deadline::after(std::chrono::nanoseconds{0});
    api::Response late = session.predict_async(std::move(expired)).get();
    EXPECT_EQ(late.status, api::Status::deadline_exceeded);
    EXPECT_TRUE(late.labels.empty());
    EXPECT_FALSE(late.ok());

    // Cancellation requested before dispatch: same short-circuit.
    api::CancelSource source;
    source.request_cancel();
    api::Request cancelled;
    cancelled.rows = util::Matrix<float>(pipeline.data.test.X);
    cancelled.cancel = source.token();
    api::Response gone = session.predict_async(std::move(cancelled)).get();
    EXPECT_EQ(gone.status, api::Status::cancelled);
    EXPECT_TRUE(gone.labels.empty());

    EXPECT_EQ(session.rows_served(), served_before);
}

TEST(InferenceSession, FusedBatchExceptionIsScopedToTheOffendingRequest) {
    // Regression for the fused-batch failure path: an exception inside a
    // fused micro-batch used to fan out to every request's promise.  Now
    // the dispatcher retries the not-yet-resolved requests one by one, so
    // only the request that fails on its own sees the exception.
    data::SyntheticSpec spec;
    spec.name = "poison";
    spec.n_features = 16;
    spec.n_classes = 3;
    spec.n_train = 120;
    spec.n_test = 12;
    spec.n_levels = 4;
    spec.seed = 11;
    const auto data = data::make_benchmark(spec);

    hdc::ItemMemoryConfig memory_config;
    memory_config.dim = 512;
    memory_config.n_features = spec.n_features;
    memory_config.n_levels = spec.n_levels;
    memory_config.seed = 17;
    const auto memory =
        std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(memory_config));
    const auto clean = std::make_shared<hdc::RecordEncoder>(memory, /*tie_seed=*/99);
    // Encode call sequence: request 0 is served alone (call #0, held until
    // requests 1-3 are queued), then the fused batch of requests 1-3
    // encodes rows 1,2 (call #2 throws, row 3 is never reached), then the
    // per-request retries encode calls #3 (request 1), #4 (request 2,
    // throws again), #5 (request 3).
    const auto poison = std::make_shared<fixtures::HeldEncoder>(memory, /*tie_seed=*/99,
                                                                std::vector<int>{2, 4});
    const auto classifier = hdc::HdcClassifier::fit(data.train, clean, hdc::PipelineConfig{});

    api::SessionOptions options;
    options.n_threads = 1;  // sequential encode: rows 0..n in order
    options.max_batch = 3;  // requests 1-3 are exactly one batch
    const api::InferenceSession session(poison, classifier.discretizer(), classifier.model(),
                                        options);

    const auto expected = [&](std::size_t row) {
        return std::vector<int>{classifier.predict_row(data.test.X.row(row))};
    };
    auto f0 = session.predict_async(row_request(data.test.X, 0));
    poison->wait_until_held();
    auto f1 = session.predict_async(row_request(data.test.X, 1));
    auto f2 = session.predict_async(row_request(data.test.X, 2));
    auto f3 = session.predict_async(row_request(data.test.X, 3));
    poison->release();

    EXPECT_EQ(f0.get().labels, expected(0));
    EXPECT_EQ(f1.get().labels, expected(1));
    EXPECT_THROW(f2.get(), std::runtime_error);
    EXPECT_EQ(f3.get().labels, expected(3));
}

// ---------------------------------------------------------------------------
// Fused encode→distance predict: on exactly for binary models within
// util::kernels::kMaxFusedRows features.
// ---------------------------------------------------------------------------

TEST(InferenceSession, FusedPredictAutoDetectsBinaryModelsOnly) {
    const Pipeline binary = make_pipeline(hdc::ModelKind::binary);
    EXPECT_TRUE(binary.owner.open_session().fused_predict_active())
        << "binary models within the row cap must serve through the fused path";

    const Pipeline non_binary = make_pipeline(hdc::ModelKind::non_binary);
    EXPECT_FALSE(non_binary.owner.open_session().fused_predict_active());
}

TEST(InferenceSession, FusedPredictLabelsMatchTwoStepPathBitExactly) {
    // predict_row of the reference classifier is the two-step path:
    // encode_binary, then the Hamming argmin over the class hypervectors.
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    const std::vector<int> reference = reference_labels(pipeline);
    for (const std::size_t n_threads : {1u, 4u}) {
        api::SessionOptions options;
        options.n_threads = n_threads;
        options.min_rows_per_thread = 1;
        const auto fused = pipeline.owner.open_session(options);
        ASSERT_TRUE(fused.fused_predict_active());
        EXPECT_EQ(fused.predict(pipeline.data.test.X), reference) << "T" << n_threads;
    }
}

TEST(InferenceSession, BinaryModelPastTheFusedRowCapServesTwoStep) {
    // One feature more than the fused kernel can count: the session keeps
    // the binary model on encode_binary_into + predict(BinaryHV).
    data::SyntheticSpec spec;
    spec.name = "wide";
    spec.n_features = util::kernels::kMaxFusedRows + 1;
    spec.n_classes = 2;
    spec.n_train = 8;
    spec.n_test = 6;
    spec.n_levels = 4;
    spec.seed = 5;
    const auto data = data::make_benchmark(spec);

    hdc::ItemMemoryConfig memory_config;
    memory_config.dim = 64;
    memory_config.n_features = spec.n_features;
    memory_config.n_levels = spec.n_levels;
    memory_config.seed = 23;
    const auto encoder = std::make_shared<hdc::RecordEncoder>(
        std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(memory_config)),
        /*tie_seed=*/31);
    hdc::PipelineConfig config;
    config.train.kind = hdc::ModelKind::binary;
    const auto classifier = hdc::HdcClassifier::fit(data.train, encoder, config);

    const api::InferenceSession session(encoder, classifier.discretizer(), classifier.model());
    EXPECT_FALSE(session.fused_predict_active());
    const auto predictions = session.predict(data.test.X);
    ASSERT_EQ(predictions.size(), data.test.n_samples());
    for (std::size_t s = 0; s < predictions.size(); ++s) {
        EXPECT_EQ(predictions[s], classifier.predict_row(data.test.X.row(s))) << "row " << s;
    }
}

TEST(InferenceSession, ConcurrentFusedPredictCallersStayBitIdentical) {
    // The fused-path sibling of ConcurrentPredictCallersShareThePoolSafely:
    // many caller threads share one fused session; the TSan job drives this
    // to prove the fused scratch (pointer tables, tie RNG) stays slot-private.
    const Pipeline pipeline = make_pipeline(hdc::ModelKind::binary);
    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    const auto session = pipeline.owner.open_session(options);
    ASSERT_TRUE(session.fused_predict_active());
    const std::vector<int> reference = reference_labels(pipeline);

    std::vector<util::Thread> callers;
    std::array<std::atomic<bool>, 4> agree{};
    for (std::size_t t = 0; t < agree.size(); ++t) {
        callers.emplace_back(util::Thread([&, t] {
            bool all = true;
            for (int round = 0; round < 5; ++round) {
                all = all && session.predict(pipeline.data.test.X) == reference;
            }
            agree[t].store(all);
        }));
    }
    for (auto& caller : callers) caller.join();
    for (std::size_t t = 0; t < agree.size(); ++t) {
        EXPECT_TRUE(agree[t].load()) << "caller " << t;
    }
}
