/// \file scenario_router.cpp
/// "router-slo" — the serving-tier scenario: a ShardRouter fleet under
/// three load regimes, swept over shard count x placement policy.
///
///   closed-loop   one caller awaiting each typed request: every response
///                 must be Ok and bit-identical to a reference single
///                 session (sharding never changes labels).
///   open-loop     requests fired without awaiting against a small shed
///                 watermark: admission control engages, every future still
///                 resolves, Ok responses stay bit-identical, and queue
///                 delay stays bounded (the point of shedding).
///   expired       requests submitted with an already-spent deadline
///                 resolve deadline_exceeded without touching a queue.
///
/// Determinism: the closed-loop/expired outcomes and every bit-identity
/// check are deterministic and live as top-level metrics; anything load- or
/// wall-clock-dependent (shed counts, queue-time percentiles, achieved
/// rates, the adaptive governor's settled delay) sits under the reserved
/// "timing" key that deterministic dumps strip.

#include <algorithm>
#include <cmath>
#include <future>
#include <string>
#include <vector>

#include "api/api.hpp"
#include "data/synthetic.hpp"
#include "eval/registry.hpp"
#include "eval/scenarios/scenarios.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hdlock::eval::scenarios {

namespace {

double percentile(std::vector<double> values, double p) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = p * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

struct Fleet {
    api::ShardRouter router;
    api::InferenceSession reference;
    data::SyntheticBenchmark benchmark;
    /// The test pool's labels computed straight through hdc — discretize,
    /// encode_binary, HdcModel::predict — with no session in between.
    std::vector<int> two_step;
};

Fleet build_fleet(std::size_t shards, api::Placement placement, const TrialContext& context) {
    auto spec = data::pamap_like();
    spec.n_train = context.smoke ? 240 : 400;
    spec.n_test = context.smoke ? 128 : 512;
    auto benchmark = data::make_benchmark(spec);

    DeploymentConfig config;
    config.dim = context.smoke ? 512 : 2048;
    config.n_features = benchmark.train.n_features();
    config.n_levels = benchmark.spec.n_levels;
    config.n_layers = 2;
    config.seed = context.seed;
    api::Owner owner = api::Owner::provision(config);
    api::TrainOptions train;
    train.seed = util::hash_mix(context.seed, 0x9e1d);
    owner.train(benchmark.train, train);

    api::RouterOptions options;
    options.n_shards = shards;
    options.placement = placement;
    options.session.max_batch = 64;
    options.session.max_queue_rows = 64;
    // A reachable watermark so the open-loop phase actually sheds.
    options.shed_watermark_rows = shards * 48;
    api::ShardRouter router = owner.open_router(options);
    api::InferenceSession reference = owner.open_session();
    std::vector<int> two_step;
    two_step.reserve(benchmark.test.n_samples());
    for (std::size_t r = 0; r < benchmark.test.n_samples(); ++r) {
        const std::vector<int> levels = owner.discretizer().transform_row(benchmark.test.X.row(r));
        two_step.push_back(owner.model().predict(owner.encoder()->encode_binary(levels)));
    }
    return Fleet{std::move(router), std::move(reference), std::move(benchmark),
                 std::move(two_step)};
}

/// Rows [begin, begin + n) of the test pool as one request batch.
util::Matrix<float> slice_rows(const data::Dataset& pool, std::size_t begin, std::size_t n) {
    util::Matrix<float> rows(n, pool.X.cols());
    for (std::size_t r = 0; r < n; ++r) {
        const auto source = pool.X.row((begin + r) % pool.X.rows());
        std::copy(source.begin(), source.end(), rows.row(r).begin());
    }
    return rows;
}

Json run_router_trial(const TrialSpec& spec, const TrialContext& context) {
    const auto shards = static_cast<std::size_t>(spec.params.at("shards").as_int());
    const auto placement = api::parse_placement(spec.params.at("placement").as_string());
    Fleet fleet = build_fleet(shards, *placement, context);
    const data::Dataset& pool = fleet.benchmark.test;
    const std::vector<int> expected = fleet.reference.predict(pool.X);
    const std::size_t rows_per_request = 8;

    const auto labels_match = [&](std::size_t begin, const std::vector<int>& labels) {
        for (std::size_t r = 0; r < labels.size(); ++r) {
            if (labels[r] != expected[(begin + r) % pool.X.rows()]) return false;
        }
        return true;
    };

    Json metrics = Json::object();
    metrics["rows_per_request"] = rows_per_request;

    // -- closed loop: await each request; everything must serve Ok and
    //    match the reference labels bit-for-bit.
    const std::size_t n_closed = context.smoke ? 40 : 200;
    std::size_t closed_ok = 0;
    std::size_t closed_identical = 0;
    std::vector<double> closed_queue_us;
    util::WallTimer closed_timer;
    for (std::size_t i = 0; i < n_closed; ++i) {
        const std::size_t begin = i * rows_per_request;
        api::Request request;
        request.rows = slice_rows(pool, begin, rows_per_request);
        if (*placement == api::Placement::consistent_hash) request.shard_key = i % 16;
        api::Response response = fleet.router.submit(std::move(request)).get();
        if (response.ok()) {
            ++closed_ok;
            if (labels_match(begin, response.labels)) ++closed_identical;
            closed_queue_us.push_back(
                static_cast<double>(response.queue_time.count()) / 1e3);
        }
    }
    const double closed_seconds = closed_timer.elapsed_seconds();
    metrics["n_closed"] = n_closed;
    metrics["closed_ok_fraction"] =
        static_cast<double>(closed_ok) / static_cast<double>(n_closed);
    metrics["bit_identical"] = closed_ok == 0
                                   ? 0.0
                                   : static_cast<double>(closed_identical) /
                                         static_cast<double>(closed_ok);

    // -- open loop: fire everything, harvest afterwards.  The watermark is
    //    reachable, so shedding engages; what must hold deterministically
    //    is that every future resolves and Ok labels stay reference-equal.
    const std::size_t n_open = context.smoke ? 300 : 2000;
    std::vector<std::future<api::Response>> inflight;
    std::vector<std::size_t> begins;
    inflight.reserve(n_open);
    begins.reserve(n_open);
    util::WallTimer open_timer;
    for (std::size_t i = 0; i < n_open; ++i) {
        const std::size_t begin = i * rows_per_request;
        api::Request request;
        request.rows = slice_rows(pool, begin, rows_per_request);
        if (*placement == api::Placement::consistent_hash) request.shard_key = i % 16;
        begins.push_back(begin);
        inflight.push_back(fleet.router.submit(std::move(request)));
    }
    const double submit_seconds = open_timer.elapsed_seconds();
    std::size_t open_ok = 0;
    std::size_t open_shed = 0;
    std::size_t open_identical = 0;
    std::size_t open_resolved = 0;
    std::vector<double> open_queue_us;
    for (std::size_t i = 0; i < inflight.size(); ++i) {
        api::Response response = inflight[i].get();
        ++open_resolved;
        switch (response.status) {
            case api::Status::ok:
                ++open_ok;
                if (labels_match(begins[i], response.labels)) ++open_identical;
                open_queue_us.push_back(
                    static_cast<double>(response.queue_time.count()) / 1e3);
                break;
            case api::Status::overloaded:
                ++open_shed;
                break;
            default:
                break;
        }
    }
    const double open_seconds = open_timer.elapsed_seconds();
    metrics["n_open"] = n_open;
    metrics["open_all_responded"] =
        static_cast<double>(open_resolved) / static_cast<double>(n_open);
    metrics["open_accounted"] = open_ok + open_shed == n_open ? 1.0 : 0.0;
    metrics["open_bit_identical"] =
        open_ok == 0 ? 1.0
                     : static_cast<double>(open_identical) / static_cast<double>(open_ok);

    // -- expired deadlines: a spent budget resolves deadline_exceeded at
    //    submit, deterministically, without consuming queue capacity.
    const std::size_t n_expired = 20;
    std::size_t expired_hits = 0;
    for (std::size_t i = 0; i < n_expired; ++i) {
        api::Request request;
        request.rows = slice_rows(pool, i, rows_per_request);
        request.deadline = util::Deadline::after(std::chrono::nanoseconds{0});
        if (fleet.router.submit(std::move(request)).get().status ==
            api::Status::deadline_exceeded) {
            ++expired_hits;
        }
    }
    metrics["n_expired"] = n_expired;
    metrics["expired_deadline_fraction"] =
        static_cast<double>(expired_hits) / static_cast<double>(n_expired);

    // -- fused vs two-step predict: the reference session serves binary
    //    rows through the fused encode→distance kernel path; the two-step
    //    labels encode a query hypervector and take its Hamming argmin.
    //    Labels must match bit-for-bit over the whole pool (deterministic on
    //    every backend).
    metrics["fused_active"] = fleet.reference.fused_predict_active() ? 1.0 : 0.0;
    metrics["fused_bit_identical"] = fleet.two_step == expected ? 1.0 : 0.0;

    const api::RouterStats stats = fleet.router.stats();
    metrics["timing"]["closed_rps"] =
        closed_seconds > 0.0 ? static_cast<double>(n_closed) / closed_seconds : 0.0;
    metrics["timing"]["closed_queue_p50_us"] = percentile(closed_queue_us, 0.50);
    metrics["timing"]["closed_queue_p99_us"] = percentile(closed_queue_us, 0.99);
    metrics["timing"]["open_offered_rps"] =
        submit_seconds > 0.0 ? static_cast<double>(n_open) / submit_seconds : 0.0;
    metrics["timing"]["open_seconds"] = open_seconds;
    metrics["timing"]["open_ok"] = open_ok;
    metrics["timing"]["open_shed"] = open_shed;
    metrics["timing"]["open_shed_fraction"] =
        static_cast<double>(open_shed) / static_cast<double>(n_open);
    metrics["timing"]["open_queue_p50_us"] = percentile(open_queue_us, 0.50);
    metrics["timing"]["open_queue_p99_us"] = percentile(open_queue_us, 0.99);
    metrics["timing"]["router_accepted"] = stats.accepted;
    metrics["timing"]["router_shed"] = stats.shed;
    metrics["timing"]["adaptive_delay_us_shard0"] =
        static_cast<double>(fleet.router.shard(0).current_queue_delay().count());
    return metrics;
}

std::vector<TrialSpec> plan_router(const RunOptions& options) {
    const std::vector<std::size_t> shard_counts =
        options.smoke ? std::vector<std::size_t>{1, 2} : std::vector<std::size_t>{1, 2, 4, 8};
    std::vector<TrialSpec> plan;
    for (const std::size_t shards : shard_counts) {
        for (const api::Placement placement :
             {api::Placement::round_robin, api::Placement::least_loaded,
              api::Placement::consistent_hash}) {
            TrialSpec trial;
            // Appends instead of operator+ chains: GCC 12's -Wrestrict
            // false-positives on `const char* + std::string&&` at -O2+.
            trial.name = "S";
            trial.name += std::to_string(shards);
            trial.name += "-";
            trial.name += api::placement_name(placement);
            trial.params["shards"] = shards;
            trial.params["placement"] = api::placement_name(placement);
            plan.push_back(std::move(trial));
        }
    }
    return plan;
}

}  // namespace

void register_router(ScenarioRegistry& registry) {
    ScenarioInfo info;
    info.name = "router-slo";
    info.paper_ref = "beyond-paper";
    info.description =
        "shard-router fleet under closed/open-loop load: shedding engages, labels stay "
        "bit-identical at any shard count and placement";
    registry.add(
        std::make_shared<SimpleScenario>(std::move(info), plan_router, run_router_trial));
}

}  // namespace hdlock::eval::scenarios
