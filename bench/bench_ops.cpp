/// \file bench_ops.cpp
/// google-benchmark micro-costs behind the paper's overhead claims, plus the
/// ablations called out in DESIGN.md §4:
///
///  - MAP operator kernels (bind, rotate, Hamming) across dimensions;
///  - record encoding: bit-sliced column accumulation vs. the naive
///    per-element reference (the encoder hot-loop ablation), and the
///    batch-first pipeline: scratch-reusing encode_batch through the
///    column_counts kernel, which binds each feature/value pair on load;
///  - Eq. 9 feature materialization cost vs. the number of key layers;
///  - the feature attack's full-distance vs. restricted-index criterion
///    (the attack-cost ablation);
///  - the Sec. 4.2 single-parameter sweep, the unit of the (D*P)^L search;
///  - batched serving: api::InferenceSession at 1/2/4 threads vs. the old
///    per-row predict loop (real time, since the point is wall-clock
///    throughput of the partitioned batch);
///  - the kernel-backend comparison: xor/popcount/hamming word kernels, the
///    full batch encode, and binary and non-binary predict, once per backend
///    available on this host (BM_Backend*/portable vs /avx2 vs /avx512),
///    registered dynamically so the same binary reports whatever the
///    hardware offers.
///
/// Beyond google-benchmark's own flags, main() accepts:
///   --smoke       one tiny timing window per benchmark — CI's sanitizer job
///                 uses it to drive every kernel through ASan/UBSan
///   --json[=P]    machine-readable results (benchmark's JSON reporter) to P
///                 (default BENCH_ops.json); commit one BENCH_*.json per perf
///                 PR so the throughput trajectory is recorded in-repo

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "api/api.hpp"
#include "attack/feature_attack.hpp"
#include "attack/lock_attack.hpp"
#include "attack/oracle.hpp"
#include "core/locked_encoder.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/item_memory.hpp"
#include "hdc/model.hpp"
#include "util/kernels.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace {

using namespace hdlock;

hdc::BinaryHV random_hv(std::size_t dim, std::uint64_t seed) {
    util::Xoshiro256ss rng(seed);
    return hdc::BinaryHV::random(dim, rng);
}

void BM_BinaryMultiply(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto a = random_hv(dim, 1);
    const auto b = random_hv(dim, 2);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a * b);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_BinaryMultiply)->Arg(1024)->Arg(4096)->Arg(10000)->Arg(16384);

void BM_BinaryRotate(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto hv = random_hv(dim, 3);
    std::size_t k = 1;
    for (auto _ : state) {
        benchmark::DoNotOptimize(hv.rotated(k));
        k = (k * 31 + 7) % dim;  // vary the shift so no branch predictor wins
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_BinaryRotate)->Arg(1024)->Arg(10000);

void BM_Hamming(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const auto a = random_hv(dim, 4);
    const auto b = random_hv(dim, 5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(a.hamming(b));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_Hamming)->Arg(1024)->Arg(10000);

void BM_IntHVSign(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    util::Xoshiro256ss rng(6);
    hdc::IntHV sums(dim);
    for (std::size_t j = 0; j < dim; ++j) {
        sums[j] = static_cast<std::int32_t>(rng.next_below(64)) - 32;
    }
    for (auto _ : state) {
        util::Xoshiro256ss tie_rng(7);
        benchmark::DoNotOptimize(sums.sign(tie_rng));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));
}
BENCHMARK(BM_IntHVSign)->Arg(1024)->Arg(10000);

/// Encoder hot loop: bit-sliced accumulation (the shipping implementation).
void BM_EncodeBitsliced(benchmark::State& state) {
    const auto n_features = static_cast<std::size_t>(state.range(0));
    hdc::ItemMemoryConfig config;
    config.dim = 4096;
    config.n_features = n_features;
    config.n_levels = 16;
    config.seed = 11;
    const auto memory = std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config));
    const hdc::RecordEncoder encoder(memory, /*tie_seed=*/1);

    // Random levels: the same workload as the batch benchmark below, so
    // per-row vs. batch items/s compare directly.
    std::vector<int> levels(n_features);
    util::Xoshiro256ss rng(23);
    for (auto& level : levels) level = static_cast<int>(rng.next_below(16));
    for (auto _ : state) {
        benchmark::DoNotOptimize(encoder.encode(levels));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n_features) * 4096);
}
BENCHMARK(BM_EncodeBitsliced)->Arg(64)->Arg(256)->Arg(784);

/// Ablation: the naive per-element Eq. 2 reference the tests compare against.
void BM_EncodeReference(benchmark::State& state) {
    const auto n_features = static_cast<std::size_t>(state.range(0));
    hdc::ItemMemoryConfig config;
    config.dim = 4096;
    config.n_features = n_features;
    config.n_levels = 16;
    config.seed = 11;
    const auto memory = std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config));
    const hdc::RecordEncoder encoder(memory, /*tie_seed=*/1);

    std::vector<int> levels(n_features);
    util::Xoshiro256ss rng(23);
    for (auto& level : levels) level = static_cast<int>(rng.next_below(16));
    for (auto _ : state) {
        benchmark::DoNotOptimize(encoder.encode_reference(levels));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(n_features) * 4096);
}
BENCHMARK(BM_EncodeReference)->Arg(64)->Arg(256)->Arg(784);

/// Batch-first encoding: scratch reused across rows, XOR fused into the
/// column_counts kernel, zero per-row allocations.  Compare items/s against
/// BM_EncodeBitsliced (the per-row API) for the pipeline win.
void BM_EncodeBatch(benchmark::State& state) {
    const auto n_features = static_cast<std::size_t>(state.range(0));
    hdc::ItemMemoryConfig config;
    config.dim = 4096;
    config.n_features = n_features;
    config.n_levels = 16;
    config.seed = 11;
    const auto memory = std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config));
    const hdc::RecordEncoder encoder(memory, /*tie_seed=*/1);

    util::Matrix<int> levels(64, n_features);
    util::Xoshiro256ss rng(23);
    for (auto& level : levels.data()) level = static_cast<int>(rng.next_below(16));

    hdc::EncoderScratch scratch;
    std::vector<hdc::IntHV> out;
    for (auto _ : state) {
        encoder.encode_batch(levels, scratch, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(levels.rows()) *
                            static_cast<std::int64_t>(n_features) * 4096);
}
BENCHMARK(BM_EncodeBatch)->Arg(64)->Arg(256)->Arg(784);

/// Eq. 9 product cost per feature as the key deepens (the software
/// cross-check of the fig9 scenario's cycle model, isolated).
void BM_MaterializeFeature(benchmark::State& state) {
    const auto n_layers = static_cast<std::size_t>(state.range(0));
    PublicStoreConfig config;
    config.dim = 10000;
    config.pool_size = 64;
    config.n_levels = 2;
    config.seed = 13;
    ValueMapping mapping;
    const auto store = PublicStore::generate(config, mapping);

    std::vector<SubKeyEntry> sub_key(n_layers);
    for (std::size_t l = 0; l < n_layers; ++l) {
        sub_key[l] = SubKeyEntry{static_cast<std::uint32_t>((l * 17 + 3) % config.pool_size),
                                 static_cast<std::uint32_t>(l * 991 + 7)};
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(LockedEncoder::materialize_feature(store, sub_key));
    }
}
BENCHMARK(BM_MaterializeFeature)->DenseRange(1, 5);

struct AttackFixture {
    Deployment deployment;
    std::shared_ptr<attack::EncodingOracle> oracle;
    ValueMapping level_to_slot;

    explicit AttackFixture(std::size_t n_features, std::size_t dim, std::size_t n_layers) {
        DeploymentConfig config;
        config.dim = dim;
        config.n_features = n_features;
        config.n_levels = 8;
        config.n_layers = n_layers;
        config.seed = 17;
        deployment = provision(config);
        oracle = std::make_shared<attack::EncodingOracle>(deployment.encoder);
        level_to_slot = deployment.secure->value_mapping();
    }
};

/// Ablation: full-distance criterion (Eq. 8 over every dimension).
void BM_FeatureAttackFull(benchmark::State& state) {
    const AttackFixture fixture(/*n_features=*/96, /*dim=*/2048, /*n_layers=*/0);
    attack::FeatureAttackConfig config;
    config.criterion = attack::DistanceCriterion::full;
    for (auto _ : state) {
        benchmark::DoNotOptimize(attack::extract_feature_mapping(
            *fixture.deployment.store, *fixture.oracle, fixture.level_to_slot, config));
    }
}
BENCHMARK(BM_FeatureAttackFull)->Unit(benchmark::kMillisecond);

/// Ablation: restricted-index criterion (distance only on the flipped set I).
void BM_FeatureAttackRestricted(benchmark::State& state) {
    const AttackFixture fixture(/*n_features=*/96, /*dim=*/2048, /*n_layers=*/0);
    attack::FeatureAttackConfig config;
    config.criterion = attack::DistanceCriterion::restricted;
    for (auto _ : state) {
        benchmark::DoNotOptimize(attack::extract_feature_mapping(
            *fixture.deployment.store, *fixture.oracle, fixture.level_to_slot, config));
    }
}
BENCHMARK(BM_FeatureAttackRestricted)->Unit(benchmark::kMillisecond);

/// One Sec. 4.2 parameter sweep: D guesses, the unit step of the (D*P)^L
/// joint search whose total the paper extrapolates.
void BM_LockRotationSweep(benchmark::State& state) {
    const auto dim = static_cast<std::size_t>(state.range(0));
    const AttackFixture fixture(/*n_features=*/32, dim, /*n_layers=*/2);
    attack::LockSweepConfig config;
    config.parameter = attack::LockParameter::rotation;
    for (auto _ : state) {
        benchmark::DoNotOptimize(attack::sweep_lock_parameter(
            *fixture.deployment.store, *fixture.oracle, fixture.deployment.secure->key(),
            fixture.level_to_slot, config));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(dim));  // guesses per sweep
}
BENCHMARK(BM_LockRotationSweep)->Arg(1024)->Arg(4096)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Batched serving: the api::InferenceSession hot path.
// ---------------------------------------------------------------------------

struct ServingFixture {
    api::Owner owner;
    util::Matrix<float> batch;
};

const ServingFixture& serving_fixture() {
    static const ServingFixture fixture = [] {
        data::SyntheticSpec spec;
        spec.name = "serving";
        spec.n_features = 128;
        spec.n_classes = 4;
        spec.n_train = 400;
        spec.n_test = 256;
        spec.n_levels = 8;
        spec.noise = 0.12;
        spec.seed = 21;
        const auto benchmark_data = data::make_benchmark(spec);

        DeploymentConfig config;
        config.dim = 2048;
        config.n_features = spec.n_features;
        config.n_levels = spec.n_levels;
        config.n_layers = 2;
        config.seed = 9;
        api::Owner owner = api::Owner::provision(config);
        api::TrainOptions train;
        train.kind = hdc::ModelKind::binary;
        train.retrain_epochs = 3;
        owner.train(benchmark_data.train, train);

        // A 2048-row inference batch, tiled from the test partition.
        util::Matrix<float> batch(2048, spec.n_features);
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            const auto source = benchmark_data.test.X.row(r % benchmark_data.test.n_samples());
            const auto destination = batch.row(r);
            std::copy(source.begin(), source.end(), destination.begin());
        }
        return ServingFixture{std::move(owner), std::move(batch)};
    }();
    return fixture;
}

/// The pre-session idiom: one predict_row call per sample.
void BM_ServePerRowLoop(benchmark::State& state) {
    const ServingFixture& fixture = serving_fixture();
    const auto session = fixture.owner.open_session({.n_threads = 1});
    for (auto _ : state) {
        int sink = 0;
        for (std::size_t r = 0; r < fixture.batch.rows(); ++r) {
            sink += session.predict_row(fixture.batch.row(r));
        }
        benchmark::DoNotOptimize(sink);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(fixture.batch.rows()));
}
BENCHMARK(BM_ServePerRowLoop)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Batched serving across worker threads; items/s is rows classified per
/// second — compare Arg(4) against BM_ServePerRowLoop for the speedup.
void BM_ServeBatchSession(benchmark::State& state) {
    const ServingFixture& fixture = serving_fixture();
    const auto session = fixture.owner.open_session(
        {.n_threads = static_cast<std::size_t>(state.range(0))});
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.predict(fixture.batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(fixture.batch.rows()));
}
BENCHMARK(BM_ServeBatchSession)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// ---------------------------------------------------------------------------
// Serving core (persistent pool + async micro-batching + mmap startup): the
// numbers behind bench/results/BENCH_*_serving_core.json.
//
//  - BM_ServeSmallBatch/{1,8,64,1024}: small-batch dispatch cost on the
//    persistent pool (single-row / small-batch calls stay inline).
//  - BM_ServeConcurrentCallers: p50/p99 single-row latency with 4 caller
//    threads hammering one shared session.
//  - BM_ServeAsyncMicroBatch: 64 independent 1-row predict_async(Request)
//    calls per iteration, coalesced by the SubmitQueue dispatcher.
//  - BM_RouterOpenLoop/<placement>/{shards,burst}: open-loop typed requests
//    against a ShardRouter fleet — bursts past the shed watermark must come
//    back Overloaded (bounded queues, bounded p99 queue time) while every
//    Ok response stays bit-identical to a reference session.
//  - BM_BundleLoad{Copy,Mapped}: device `.hdlk` startup at D=10k, P=784 —
//    full-copy load_device() vs. zero-copy open_mapped().
// ---------------------------------------------------------------------------

/// Low-latency serving fixture (D=1024, N=32, binary, fused predict): the
/// dispatch-bound regime where per-row encode is ~1-2 us and the cost of
/// *getting a batch onto threads* is what the benchmark resolves.  The
/// compute-bound regime (D=2048, N=128, 2048-row batches) stays covered by
/// BM_ServeBatchSession above.
const ServingFixture& latency_fixture() {
    static const ServingFixture fixture = [] {
        data::SyntheticSpec spec;
        spec.name = "latency";
        spec.n_features = 32;
        spec.n_classes = 4;
        spec.n_train = 300;
        spec.n_test = 128;
        spec.n_levels = 8;
        spec.noise = 0.1;
        spec.seed = 33;
        const auto benchmark_data = data::make_benchmark(spec);

        DeploymentConfig config;
        config.dim = 1024;
        config.n_features = spec.n_features;
        config.n_levels = spec.n_levels;
        config.n_layers = 1;
        config.seed = 19;
        api::Owner owner = api::Owner::provision(config);
        api::TrainOptions train;
        train.kind = hdc::ModelKind::binary;
        train.retrain_epochs = 3;
        owner.train(benchmark_data.train, train);

        util::Matrix<float> batch(256, spec.n_features);
        for (std::size_t r = 0; r < batch.rows(); ++r) {
            const auto source = benchmark_data.test.X.row(r % benchmark_data.test.n_samples());
            std::copy(source.begin(), source.end(), batch.row(r).begin());
        }
        return ServingFixture{std::move(owner), std::move(batch)};
    }();
    return fixture;
}

util::Matrix<float> tile_rows(const util::Matrix<float>& source, std::size_t rows) {
    util::Matrix<float> batch(rows, source.cols());
    for (std::size_t r = 0; r < rows; ++r) {
        const auto from = source.row(r % source.rows());
        std::copy(from.begin(), from.end(), batch.row(r).begin());
    }
    return batch;
}

/// The server config BM_ServeBatchSession/4 uses; at this fixture's small
/// shape the per-row encode is cheap enough that dispatch cost is what
/// these benchmarks resolve.
constexpr api::SessionOptions kDispatchBoundOptions{.n_threads = 4};

void BM_ServeSmallBatch(benchmark::State& state) {
    const ServingFixture& fixture = latency_fixture();
    const auto session = fixture.owner.open_session(kDispatchBoundOptions);
    const auto batch = tile_rows(fixture.batch, static_cast<std::size_t>(state.range(0)));
    for (auto _ : state) {
        benchmark::DoNotOptimize(session.predict(batch));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(batch.rows()));
}
BENCHMARK(BM_ServeSmallBatch)->Arg(1)->Arg(8)->Arg(64)->Arg(1024)->UseRealTime();

/// Concurrent single-row callers on one shared session: each iteration runs
/// 4 threads x 64 predict() calls of one row and reports the merged p50/p99
/// call latency alongside rows/s.
void BM_ServeConcurrentCallers(benchmark::State& state) {
    const ServingFixture& fixture = latency_fixture();
    const auto session = fixture.owner.open_session(kDispatchBoundOptions);
    constexpr std::size_t kCallers = 4;
    constexpr std::size_t kCallsPerCaller = 64;
    std::vector<util::Matrix<float>> rows;
    for (std::size_t r = 0; r < kCallsPerCaller; ++r) rows.push_back(tile_rows(fixture.batch, 1));

    std::vector<double> latencies;
    for (auto _ : state) {
        std::vector<util::Thread> callers;
        std::vector<std::vector<double>> per_caller(kCallers);
        for (std::size_t t = 0; t < kCallers; ++t) {
            callers.emplace_back(util::Thread([&, t] {
                for (std::size_t c = 0; c < kCallsPerCaller; ++c) {
                    const auto start = std::chrono::steady_clock::now();
                    benchmark::DoNotOptimize(session.predict(rows[c]));
                    per_caller[t].push_back(
                        std::chrono::duration<double, std::micro>(
                            std::chrono::steady_clock::now() - start)
                            .count());
                }
            }));
        }
        for (auto& caller : callers) caller.join();
        for (auto& caller_latencies : per_caller) {
            latencies.insert(latencies.end(), caller_latencies.begin(), caller_latencies.end());
        }
    }
    std::sort(latencies.begin(), latencies.end());
    if (!latencies.empty()) {
        state.counters["p50_us"] = latencies[latencies.size() / 2];
        state.counters["p99_us"] = latencies[latencies.size() * 99 / 100];
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kCallers *
                            kCallsPerCaller);
}
BENCHMARK(BM_ServeConcurrentCallers)->Unit(benchmark::kMillisecond)->UseRealTime();

/// 64 independent 1-row requests per iteration through predict_async(): the
/// SubmitQueue coalesces them into micro-batches that ride the pool.
void BM_ServeAsyncMicroBatch(benchmark::State& state) {
    const ServingFixture& fixture = latency_fixture();
    api::SessionOptions options;
    options.n_threads = 2;
    options.min_rows_per_thread = 1;
    options.max_batch = 64;
    options.max_queue_delay = std::chrono::microseconds(100);
    const auto session = fixture.owner.open_session(options);
    constexpr std::size_t kRequests = 64;
    for (auto _ : state) {
        std::vector<std::future<api::Response>> futures;
        futures.reserve(kRequests);
        for (std::size_t r = 0; r < kRequests; ++r) {
            api::Request request;
            request.rows = tile_rows(fixture.batch, 1);
            futures.push_back(session.predict_async(std::move(request)));
        }
        for (auto& future : futures) benchmark::DoNotOptimize(future.get());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * kRequests);
}
BENCHMARK(BM_ServeAsyncMicroBatch)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Open-loop load against the shard-router fleet: each iteration fires
/// `burst` 8-row typed requests without awaiting, then harvests every
/// future.  range(0) = shard count, range(1) = burst size; small bursts fit
/// under the shed watermark (derived: shards x max_queue_rows), large ones
/// cross it so admission control engages.  Counters record the split and
/// the queue-time percentiles of the served requests; `bit_identical` is 1
/// only if every Ok response matched the reference session's labels.
void BM_RouterOpenLoop(benchmark::State& state, api::Placement placement) {
    const ServingFixture& fixture = latency_fixture();
    const auto shards = static_cast<std::size_t>(state.range(0));
    const auto burst = static_cast<std::size_t>(state.range(1));
    constexpr std::size_t kRowsPerRequest = 8;

    api::RouterOptions options;
    options.n_shards = shards;
    options.placement = placement;
    options.session.n_threads = 2;
    options.session.min_rows_per_thread = 1;
    options.session.max_batch = 64;
    options.session.max_queue_rows = 256;
    const auto router = fixture.owner.open_router(options);
    const auto reference = fixture.owner.open_session({.n_threads = 1});
    const auto rows = tile_rows(fixture.batch, kRowsPerRequest);
    const std::vector<int> expected = reference.predict(rows);

    std::uint64_t ok = 0;
    std::uint64_t shed = 0;
    std::uint64_t mismatches = 0;
    std::vector<double> queue_us;
    for (auto _ : state) {
        std::vector<std::future<api::Response>> inflight;
        inflight.reserve(burst);
        for (std::size_t r = 0; r < burst; ++r) {
            api::Request request;
            request.rows = tile_rows(fixture.batch, kRowsPerRequest);
            if (placement == api::Placement::consistent_hash) request.shard_key = r % 16;
            inflight.push_back(router.submit(std::move(request)));
        }
        for (auto& future : inflight) {
            const api::Response response = future.get();
            if (response.ok()) {
                ++ok;
                if (response.labels != expected) ++mismatches;
                queue_us.push_back(
                    std::chrono::duration<double, std::micro>(response.queue_time).count());
            } else if (response.status == api::Status::overloaded) {
                ++shed;
            }
        }
    }
    std::sort(queue_us.begin(), queue_us.end());
    if (!queue_us.empty()) {
        state.counters["queue_p50_us"] = queue_us[queue_us.size() / 2];
        state.counters["queue_p99_us"] = queue_us[queue_us.size() * 99 / 100];
    }
    state.counters["ok"] = static_cast<double>(ok);
    state.counters["shed"] = static_cast<double>(shed);
    state.counters["shed_pct"] =
        ok + shed == 0 ? 0.0 : 100.0 * static_cast<double>(shed) / static_cast<double>(ok + shed);
    state.counters["bit_identical"] = mismatches == 0 ? 1.0 : 0.0;
    state.SetItemsProcessed(static_cast<std::int64_t>(ok) *
                            static_cast<std::int64_t>(kRowsPerRequest));
}
BENCHMARK_CAPTURE(BM_RouterOpenLoop, least_loaded, api::Placement::least_loaded)
    ->Args({1, 16})->Args({1, 256})->Args({4, 16})->Args({4, 256})
    ->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_RouterOpenLoop, round_robin, api::Placement::round_robin)
    ->Args({4, 256})->Unit(benchmark::kMillisecond)->UseRealTime();
BENCHMARK_CAPTURE(BM_RouterOpenLoop, consistent_hash, api::Placement::consistent_hash)
    ->Args({4, 256})->Unit(benchmark::kMillisecond)->UseRealTime();

/// Device `.hdlk` startup at the paper's deployment scale (D=10k, P=784):
/// the full-copy loader vs. the zero-copy mapped open.  The file is written
/// once; each iteration performs a complete load and drops it.
struct BundleLoadFixture {
    std::filesystem::path path;
    std::uintmax_t file_bytes = 0;

    BundleLoadFixture() {
        DeploymentConfig config;
        config.dim = 10000;
        config.n_features = 784;
        config.pool_size = 784;
        config.n_levels = 16;
        config.n_layers = 2;
        config.seed = 27;
        const api::Owner owner = api::Owner::provision(config);
        path = std::filesystem::temp_directory_path() / "hdlock_bench_serving_core.hdlk";
        owner.export_device(path);
        file_bytes = std::filesystem::file_size(path);
    }
};

const BundleLoadFixture& bundle_load_fixture() {
    static const BundleLoadFixture fixture;
    return fixture;
}

void BM_BundleLoadCopy(benchmark::State& state) {
    const auto& fixture = bundle_load_fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(api::DeploymentBundle::load_device(fixture.path));
    }
    state.counters["file_bytes"] = static_cast<double>(fixture.file_bytes);
}
BENCHMARK(BM_BundleLoadCopy)->Unit(benchmark::kMillisecond);

void BM_BundleOpenMapped(benchmark::State& state) {
    const auto& fixture = bundle_load_fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(api::DeploymentBundle::open_mapped(fixture.path));
    }
    state.counters["file_bytes"] = static_cast<double>(fixture.file_bytes);
}
BENCHMARK(BM_BundleOpenMapped)->Unit(benchmark::kMillisecond);

void BM_BundleOpenMappedWillneed(benchmark::State& state) {
    const auto& fixture = bundle_load_fixture();
    for (auto _ : state) {
        benchmark::DoNotOptimize(api::DeploymentBundle::open_mapped(
            fixture.path, util::MappedFile::Advice::willneed));
    }
    state.counters["file_bytes"] = static_cast<double>(fixture.file_bytes);
}
BENCHMARK(BM_BundleOpenMappedWillneed)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Kernel-backend comparison: the same word kernels and the same batch encode
// once per backend the host can run.  Registered dynamically from main() so
// bench_ops --json reports exactly what this machine offers; compare
// BM_BackendEncodeBatch/avx2 against /portable for the SIMD speedup (the
// acceptance bar is >= 1.5x on AVX2 hardware).
// ---------------------------------------------------------------------------

namespace kernels = hdlock::util::kernels;

/// Word arrays sized like a D = 10000 hypervector (157 words, odd tail).
struct WordFixture {
    std::vector<hdlock::util::bits::Word> a;
    std::vector<hdlock::util::bits::Word> b;
    std::vector<hdlock::util::bits::Word> dst;

    explicit WordFixture(std::size_t n_words) : a(n_words), b(n_words), dst(n_words) {
        util::Xoshiro256ss rng(71);
        for (auto& word : a) word = rng();
        for (auto& word : b) word = rng();
    }
};

void BM_BackendXor(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    WordFixture fixture(157);
    for (auto _ : state) {
        hdlock::util::bits::xor_into(fixture.dst, fixture.a, fixture.b);
        benchmark::DoNotOptimize(fixture.dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 157 * 8);
}

void BM_BackendPopcount(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    WordFixture fixture(157);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hdlock::util::bits::popcount(fixture.a));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 157 * 8);
}

void BM_BackendHamming(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    WordFixture fixture(157);
    for (auto _ : state) {
        benchmark::DoNotOptimize(hdlock::util::bits::hamming(fixture.a, fixture.b));
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 157 * 8);
}

/// The BM_EncodeBatch workload (64 rows, N = 256, D = 4096) pinned to one
/// backend: the end-to-end encode number the acceptance criterion reads.
void BM_BackendEncodeBatch(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    constexpr std::size_t n_features = 256;
    hdc::ItemMemoryConfig config;
    config.dim = 4096;
    config.n_features = n_features;
    config.n_levels = 16;
    config.seed = 11;
    const auto memory = std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config));
    const hdc::RecordEncoder encoder(memory, /*tie_seed=*/1);

    util::Matrix<int> levels(64, n_features);
    util::Xoshiro256ss rng(23);
    for (auto& level : levels.data()) level = static_cast<int>(rng.next_below(16));

    hdc::EncoderScratch scratch;
    std::vector<hdc::IntHV> out;
    for (auto _ : state) {
        encoder.encode_batch(levels, scratch, out);
        benchmark::DoNotOptimize(out);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(levels.rows()) *
                            static_cast<std::int64_t>(n_features) * 4096);
}

/// Binary serving distance scoring pinned to one backend: 10k-dim Hamming
/// argmin across 16 class HVs (the HdcModel::predict inner loop).
void BM_BackendPredictBinary(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    util::Xoshiro256ss rng(301);
    std::vector<hdc::BinaryHV> classes;
    for (int c = 0; c < 16; ++c) classes.push_back(hdc::BinaryHV::random(10000, rng));
    const auto query = hdc::BinaryHV::random(10000, rng);
    for (auto _ : state) {
        std::size_t best = query.dim() + 1;
        for (const auto& cls : classes) best = std::min(best, cls.hamming(query));
        benchmark::DoNotOptimize(best);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 16 * 10000);
}

/// The binary serving inner loop end to end at D = 10000 and the paper's
/// shapes — range(0) = N features, range(1) = classes — served the way a
/// session serves: feature/value pairs bound on load, and each call a new
/// row from a cycle of 64 distinct rows.  `on` runs HdcModel::predict_fused
/// (count planes stay in registers/L1, no query HV materialized); `off` runs
/// encode_binary_into + predict, the two-step body a session keeps for
/// binary models past kMaxFusedRows.
struct FusedPredictFixture {
    std::unique_ptr<const hdc::RecordEncoder> encoder;
    hdc::HdcModel model;
    std::vector<std::vector<int>> rows;

    FusedPredictFixture(std::size_t n_features, std::size_t n_classes) {
        hdc::ItemMemoryConfig config;
        config.dim = 10000;
        config.n_features = n_features;
        config.n_levels = 16;
        config.seed = 601;
        encoder = std::make_unique<const hdc::RecordEncoder>(
            std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config)),
            /*tie_seed=*/7);

        util::Xoshiro256ss rng(602);
        hdc::EncodedBatch batch;
        for (std::size_t c = 0; c < n_classes; ++c) {
            batch.binary.push_back(hdc::BinaryHV::random(10000, rng));
            batch.non_binary.push_back(hdc::IntHV::from_binary(batch.binary.back()));
            batch.labels.push_back(static_cast<int>(c));
        }
        hdc::TrainConfig train;
        train.kind = hdc::ModelKind::binary;
        model = hdc::HdcModel::train(batch, n_classes, train);

        rows.resize(64, std::vector<int>(n_features));
        for (auto& row : rows) {
            for (auto& level : row) level = static_cast<int>(rng.next_below(16));
        }
    }
};

const FusedPredictFixture& fused_predict_fixture(std::size_t n_features, std::size_t n_classes) {
    static std::map<std::pair<std::size_t, std::size_t>, FusedPredictFixture> fixtures;
    return fixtures.try_emplace({n_features, n_classes}, n_features, n_classes).first->second;
}

void BM_FusedPredict(benchmark::State& state, kernels::Backend kind, bool fused) {
    const kernels::ScopedBackend pin(kind);
    const auto& fixture = fused_predict_fixture(static_cast<std::size_t>(state.range(0)),
                                                static_cast<std::size_t>(state.range(1)));
    hdc::EncoderScratch scratch;
    hdc::BinaryHV query;
    std::size_t next = 0;
    for (auto _ : state) {
        const std::vector<int>& levels = fixture.rows[next++ % fixture.rows.size()];
        int label;
        if (fused) {
            label = fixture.model.predict_fused(*fixture.encoder, levels, scratch);
        } else {
            fixture.encoder->encode_binary_into(levels, scratch, query);
            label = fixture.model.predict(query);
        }
        benchmark::DoNotOptimize(label);
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

/// Non-binary serving pinned to one backend at the ISOLET shape (N = 617,
/// 26 classes, D = 10000): encode_into + cosine predict(IntHV), the two-step
/// path non-binary sessions serve every row through.
struct NonBinaryPredictFixture {
    std::unique_ptr<const hdc::RecordEncoder> encoder;
    hdc::HdcModel model;
    std::vector<int> levels;

    NonBinaryPredictFixture() {
        hdc::ItemMemoryConfig config;
        config.dim = 10000;
        config.n_features = 617;
        config.n_levels = 16;
        config.seed = 611;
        encoder = std::make_unique<const hdc::RecordEncoder>(
            std::make_shared<const hdc::ItemMemory>(hdc::ItemMemory::generate(config)),
            /*tie_seed=*/7);

        util::Xoshiro256ss rng(612);
        const auto random_levels = [&rng] {
            std::vector<int> row(617);
            for (auto& level : row) level = static_cast<int>(rng.next_below(16));
            return row;
        };
        hdc::EncodedBatch batch;
        for (int s = 0; s < 4 * 26; ++s) {
            batch.non_binary.push_back(encoder->encode(random_levels()));
            batch.labels.push_back(s % 26);
        }
        hdc::TrainConfig train;
        train.retrain_epochs = 0;
        model = hdc::HdcModel::train(batch, 26, train);
        levels = random_levels();
    }
};

const NonBinaryPredictFixture& non_binary_predict_fixture() {
    static const NonBinaryPredictFixture fixture;
    return fixture;
}

void BM_BackendPredictNonBinary(benchmark::State& state, kernels::Backend kind) {
    const kernels::ScopedBackend pin(kind);
    const auto& fixture = non_binary_predict_fixture();
    hdc::EncoderScratch scratch;
    hdc::IntHV query;
    for (auto _ : state) {
        fixture.encoder->encode_into(fixture.levels, scratch, query);
        benchmark::DoNotOptimize(fixture.model.predict(query));
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void register_backend_benchmarks() {
    for (const kernels::Backend kind : kernels::available_backends()) {
        const std::string suffix = std::string("/") + kernels::backend_name(kind);
        benchmark::RegisterBenchmark(("BM_BackendXor" + suffix).c_str(), BM_BackendXor, kind);
        benchmark::RegisterBenchmark(("BM_BackendPopcount" + suffix).c_str(), BM_BackendPopcount,
                                     kind);
        benchmark::RegisterBenchmark(("BM_BackendHamming" + suffix).c_str(), BM_BackendHamming,
                                     kind);
        benchmark::RegisterBenchmark(("BM_BackendEncodeBatch" + suffix).c_str(),
                                     BM_BackendEncodeBatch, kind);
        benchmark::RegisterBenchmark(("BM_BackendPredictBinary" + suffix).c_str(),
                                     BM_BackendPredictBinary, kind);
        benchmark::RegisterBenchmark(("BM_BackendPredictNonBinary" + suffix).c_str(),
                                     BM_BackendPredictNonBinary, kind);
        for (const bool fused : {true, false}) {
            benchmark::RegisterBenchmark(
                ("BM_FusedPredict" + suffix + (fused ? "/on" : "/off")).c_str(),
                BM_FusedPredict, kind, fused)
                ->ArgNames({"N", "classes"})
                ->Args({784, 10})
                ->Args({617, 26})
                ->Args({75, 5});
        }
    }
}

}  // namespace

/// BENCHMARK_MAIN plus two repo-specific flags (see file comment): --smoke
/// and --json[=PATH], both rewritten into google-benchmark's own flags.
int main(int argc, char** argv) {
    std::vector<std::string> storage;
    bool smoke = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--json") {
            storage.emplace_back("--benchmark_out=BENCH_ops.json");
        } else if (arg.starts_with("--json=")) {
            storage.emplace_back("--benchmark_out=" + std::string(arg.substr(7)));
        } else {
            storage.emplace_back(arg);
        }
    }
    if (smoke) storage.emplace_back("--benchmark_min_time=0.001");
    const bool writes_file = std::any_of(storage.begin(), storage.end(), [](const auto& entry) {
        return std::string_view(entry).starts_with("--benchmark_out=");
    });
    if (writes_file) storage.emplace_back("--benchmark_out_format=json");

    std::vector<char*> args;
    args.push_back(argv[0]);
    for (auto& entry : storage) args.push_back(entry.data());
    int n = static_cast<int>(args.size());
    register_backend_benchmarks();
    benchmark::Initialize(&n, args.data());
    benchmark::AddCustomContext("kernel_backend_default",
                                hdlock::util::kernels::active_name());
    benchmark::AddCustomContext("cpu_simd_features", hdlock::util::kernels::cpu_feature_string());
    if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
