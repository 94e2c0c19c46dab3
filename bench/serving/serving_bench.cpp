/// \file serving_bench.cpp
/// The serving benchmark: drives the shipped api::Owner / api::Device
/// surface through three workloads, checks every served label against a
/// reference computed from the hdc public functions, and prints one JSON
/// result line (see NOTES.md for the metric -> layer -> workload map).
///
///   hdlock_serving_bench --workload <name> --seed <n> --seconds <s>
///                        --trace <0|1> [--out-dir <dir>] [--commit <sha>]
///
///   batch-mnist    closed loop, one caller, 1024-row InferenceSession::predict
///                  batches, MNIST shape, binary model (fused kernel), served
///                  from a mapped device bundle at 1 thread and at nproc.
///   serve-pamap    open loop, seeded Poisson arrivals of 1- or 8-row typed
///                  Requests into a 2-shard x 2-thread least-loaded router,
///                  PAMAP shape, binary model; an idle rate, a high rate and
///                  a rate ladder for max_rps.
///   rotate-isolet  closed loop, two callers sending 16-row requests to a
///                  2-shard router, ISOLET shape, non-binary model (two-step
///                  encode + cosine path), while rotated bundles are
///                  open_mapped and swap_all'ed at fixed intervals.
///
/// Every workload also times the owner phase (Owner::rotate +
/// export_device_atomic, producing the rotated bundles), a short
/// single-thread session pass (rows_per_s_1t) and hot swaps under its own
/// load, so every end-to-end metric is measured on every workload.
///
/// With --trace 0 the result carries the end-to-end metrics; with --trace 1
/// the same phases run with spans recorded around every call into a layer,
/// plus a single-thread stage probe over the layers' public functions, and
/// the result carries the per-layer metrics.  Exit status: 0 for a correct
/// run, 1 when any operation failed or a label differed from the reference,
/// 2 for usage errors, a non-Release build, or an invalid run (the load
/// generator ran late, or traced stage costs did not reconcile).

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <functional>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "data/synthetic.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "ledger.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"

namespace hdlock::bench::serving {
namespace {

namespace fs = std::filesystem;

// Paper shape: D=10000, M=16 levels, L=2 key layers.
constexpr std::size_t kDim = 10000;
constexpr std::size_t kLevels = 16;
constexpr std::size_t kKeyLayers = 2;
constexpr int kRetrainEpochs = 3;

/// p99 bound on how late the open-loop generator may submit before a run
/// is rejected as invalid (the numbers would describe the generator, not
/// the system).
constexpr double kLateBoundUs = 2000.0;
/// At one thread the traced stage sum must explain the session's ns/row
/// within this share, or the traced run is rejected.
constexpr double kReconcileTolerance = 0.15;
/// Latency limit of the max_rps ladder (p99 and drain).
constexpr double kLadderLimitUs = 5000.0;
/// Timed Owner::rotate calls after each serving round.  One rotation's time
/// moves by a quarter from call to call and with the host's speed, so
/// rotate_s comes from rotations spread over the whole run.
constexpr std::size_t kRotationsPerRound = 2;

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    fs::path out_dir = ".";
    std::string commit = "unknown";
    /// Self-check hooks (tests/selftest.py): flip one reference label, or
    /// tighten the generator-lateness bound.
    bool corrupt_reference = false;
    double late_bound_us = kLateBoundUs;
};

/// Raised for runs whose numbers must not be reported (exit 2, no result).
struct InvalidRun : std::runtime_error {
    using std::runtime_error::runtime_error;
};

/// Outcome counts across every phase.  A failure is a non-Ok status, an
/// exception, or a label that differs from the reference.
struct Tally {
    std::atomic<std::uint64_t> attempted{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> mismatched{0};
    util::Mutex mutex;
    std::string first_error HDLOCK_GUARDED_BY(mutex);

    void fail(const std::string& why) HDLOCK_EXCLUDES(mutex) {
        failed.fetch_add(1, std::memory_order_relaxed);
        util::MutexLock lock(mutex);
        if (first_error.empty()) first_error = why;
    }
};

// ---------------------------------------------------------------------------
// Deployment: synthetic data, the owner phase, per-epoch references
// ---------------------------------------------------------------------------

struct Shape {
    data::SyntheticSpec spec;
    hdc::ModelKind kind;
    std::size_t n_train;
    std::size_t pool_rows;
};

struct Epoch {
    std::uint64_t epoch = 0;
    fs::path bundle;
    std::vector<int> reference;  ///< label of every pool row
};

/// What the owner produced: the request pool, one device bundle per epoch
/// (the initial export plus one per rotation) and their reference labels.
/// The owner stays, so workloads can time more rotations between rounds.
struct Deployment {
    util::Matrix<float> pool;
    std::vector<Epoch> epochs;
    std::unique_ptr<api::Owner> owner;
    data::Dataset train_set;
    api::TrainOptions train;
    std::uint64_t seed = 0;
    std::uint64_t rotations = 0;
    std::vector<double> rotate_s;   ///< per Owner::rotate (untraced run)
    std::vector<double> rekey_ms;   ///< per Owner::rotate_key (traced run)
    std::vector<double> train_s;    ///< per Owner::train (traced run)
    std::vector<double> export_ms;  ///< per export_device_atomic

    const Epoch* find(std::uint64_t epoch) const {
        for (const Epoch& e : epochs) {
            if (e.epoch == epoch) return &e;
        }
        return nullptr;
    }

    /// True when `labels` equal the epoch's reference for pool rows
    /// start, start+1, ... (mod pool size).
    bool matches(const std::vector<int>& labels, std::size_t start, const Epoch& epoch) const {
        for (std::size_t r = 0; r < labels.size(); ++r) {
            if (labels[r] != epoch.reference[(start + r) % pool.rows()]) return false;
        }
        return true;
    }

    /// For synchronous calls, which carry no epoch: the labels must equal
    /// one epoch's reference in full.
    bool matches_any(const std::vector<int>& labels, std::size_t start) const {
        return std::any_of(epochs.begin(), epochs.end(),
                           [&](const Epoch& e) { return matches(labels, start, e); });
    }

    util::Matrix<float> rows(std::size_t start, std::size_t n) const {
        util::Matrix<float> out(n, pool.cols());
        for (std::size_t r = 0; r < n; ++r) {
            const auto source = pool.row((start + r) % pool.rows());
            std::copy(source.begin(), source.end(), out.row(r).begin());
        }
        return out;
    }
};

/// The reference path: discretize -> encode -> HdcModel::predict through
/// the owner's encoder, one row at a time.  Not timed.
std::vector<int> reference_labels(const api::Owner& owner, const util::Matrix<float>& pool,
                                  hdc::ModelKind kind) {
    const hdc::Encoder& encoder = *owner.encoder();
    std::vector<int> labels(pool.rows());
    for (std::size_t r = 0; r < pool.rows(); ++r) {
        const std::vector<int> levels = owner.discretizer().transform_row(pool.row(r));
        labels[r] = kind == hdc::ModelKind::binary
                        ? owner.model().predict(encoder.encode_binary(levels))
                        : owner.model().predict(encoder.encode(levels));
    }
    return labels;
}

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
    return static_cast<double>(end_ns - begin_ns) / 1e9;
}

/// Owner::train on the deployment's training set, timed.
void train_owner(Deployment& deployment, Trace& trace) {
    const std::int64_t start = now_ns();
    deployment.owner->train(deployment.train_set, deployment.train);
    const std::int64_t end = now_ns();
    if (Recorder* recorder = trace.recorder()) recorder->add("hdc.train", start, end);
    deployment.train_s.push_back(seconds_between(start, end));
}

/// One Owner::rotate with the next key seed, timed.  A traced run splits it
/// into its layers: the Eq. 9 rekey (core) and retraining (hdc).
void rotate_owner(Deployment& deployment, Trace& trace) {
    const std::uint64_t key_seed = util::hash_mix(deployment.seed, 0x5eed + ++deployment.rotations);
    if (trace.enabled()) {
        const std::int64_t start = now_ns();
        deployment.owner->rotate_key(key_seed);
        const std::int64_t end = now_ns();
        if (Recorder* recorder = trace.recorder()) recorder->add("core.rekey", start, end);
        deployment.rekey_ms.push_back(seconds_between(start, end) * 1e3);
        train_owner(deployment, trace);
    } else {
        api::RotateOptions options;
        options.seed = key_seed;
        options.train = deployment.train;
        const std::int64_t start = now_ns();
        deployment.owner->rotate(deployment.train_set, options);
        deployment.rotate_s.push_back(seconds_between(start, now_ns()));
    }
}

Deployment build_deployment(const Shape& shape, const Args& args, std::size_t n_rotations,
                            Trace& trace) {
    Recorder* recorder = trace.recorder();
    data::SyntheticSpec spec = shape.spec;
    spec.seed = util::hash_mix(args.seed, 0xda7a);
    spec.n_train = shape.n_train;
    spec.n_test = shape.pool_rows;
    data::SyntheticBenchmark generated = data::make_benchmark(spec);

    DeploymentConfig config;
    config.dim = kDim;
    config.n_features = spec.n_features;
    config.n_levels = kLevels;
    config.n_layers = kKeyLayers;
    config.seed = util::hash_mix(args.seed, 0x4b3e);

    Deployment deployment;
    deployment.pool = std::move(generated.test.X);
    deployment.owner = std::make_unique<api::Owner>(api::Owner::provision(config));
    deployment.train_set = std::move(generated.train);
    deployment.train.kind = shape.kind;
    deployment.train.retrain_epochs = kRetrainEpochs;
    deployment.train.seed = util::hash_mix(args.seed, 0x7a1);
    deployment.seed = args.seed;
    api::Owner& owner = *deployment.owner;
    const fs::path dir = args.out_dir / (args.workload + "-bundles");
    fs::remove_all(dir);
    fs::create_directories(dir);

    const auto export_epoch = [&]() {
        Epoch epoch;
        epoch.epoch = owner.epoch();
        epoch.bundle = dir / ("epoch" + std::to_string(epoch.epoch) + ".hdlk");
        const std::int64_t start = now_ns();
        owner.export_device_atomic(epoch.bundle);
        const std::int64_t end = now_ns();
        if (recorder) recorder->add("api.bundle.export", start, end);
        deployment.export_ms.push_back(seconds_between(start, end) * 1e3);
        epoch.reference = reference_labels(owner, deployment.pool, shape.kind);
        deployment.epochs.push_back(std::move(epoch));
    };

    train_owner(deployment, trace);
    export_epoch();
    for (std::size_t k = 1; k <= n_rotations; ++k) {
        rotate_owner(deployment, trace);
        export_epoch();
    }
    if (args.corrupt_reference) {
        for (Epoch& epoch : deployment.epochs) {
            epoch.reference.front() = (epoch.reference.front() + 1) % spec.n_classes;
        }
    }
    return deployment;
}

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// One request as the benchmark saw it.
struct Sample {
    std::int64_t start_ns = 0;  ///< sent (closed loop) or due (open loop)
    std::int64_t sent_ns = 0;   ///< when the request was handed to the system
    std::int64_t end_ns = 0;    ///< reply ready
    double queue_us = 0.0;      ///< Response::queue_time; 0 for synchronous calls
    std::size_t rows = 0;
    bool ok = false;
};

struct PhaseLog {
    std::vector<Sample> samples;  ///< in start order
    std::uint64_t rows = 0;  ///< rows in Ok replies
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;

    double seconds() const { return seconds_between(begin_ns, end_ns); }
    double rows_per_s() const { return static_cast<double>(rows) / seconds(); }
    double requests_per_s() const {
        return static_cast<double>(ok_count()) / seconds();
    }
    std::size_t ok_count() const {
        return static_cast<std::size_t>(
            std::count_if(samples.begin(), samples.end(), [](const Sample& s) { return s.ok; }));
    }
    /// Ok latencies from start (due time, in an open loop) or, with
    /// `from_sent`, from the hand-off to the system.
    std::vector<double> latencies_us(bool from_sent = false) const {
        std::vector<double> out;
        for (const Sample& s : samples) {
            if (s.ok) {
                out.push_back(static_cast<double>(s.end_ns - (from_sent ? s.sent_ns : s.start_ns)) /
                              1e3);
            }
        }
        return out;
    }
    std::vector<double> queue_us() const {
        std::vector<double> out;
        for (const Sample& s : samples) {
            if (s.ok) out.push_back(s.queue_us);
        }
        return out;
    }
    std::vector<double> service_us() const {
        std::vector<double> out;
        for (const Sample& s : samples) {
            if (s.ok) out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3 - s.queue_us);
        }
        return out;
    }
};

/// Outcome of one served request, as a workload's serve function reports it.
struct Served {
    std::size_t rows = 0;
    bool ok = false;
    double queue_us = 0.0;
};

/// Runs `n_callers` threads that each send a request, wait for the reply,
/// and send the next, until `seconds` have passed.  `serve(caller, index,
/// recorder)` sends one request and checks its reply.
PhaseLog closed_loop(std::size_t n_callers, double seconds, Trace& trace, Tally& tally,
                     const std::function<Served(std::size_t, std::size_t, Recorder*)>& serve) {
    PhaseLog log;
    std::vector<std::vector<Sample>> per_caller(n_callers);
    std::vector<std::uint64_t> rows(n_callers, 0);
    log.begin_ns = now_ns();
    const std::int64_t stop_ns = log.begin_ns + static_cast<std::int64_t>(seconds * 1e9);
    {
        std::vector<util::Thread> callers;
        for (std::size_t c = 0; c < n_callers; ++c) {
            callers.emplace_back([&, c] {
                Recorder* recorder = trace.recorder();
                for (std::size_t i = 0; now_ns() < stop_ns; ++i) {
                    Sample sample;
                    sample.start_ns = now_ns();
                    sample.sent_ns = sample.start_ns;
                    Served served;
                    tally.attempted.fetch_add(1, std::memory_order_relaxed);
                    try {
                        served = serve(c, i, recorder);
                    } catch (const std::exception& error) {
                        served.ok = false;
                        tally.fail(error.what());
                    }
                    sample.end_ns = now_ns();
                    sample.ok = served.ok;
                    sample.queue_us = served.queue_us;
                    sample.rows = served.rows;
                    if (served.ok) rows[c] += served.rows;
                    per_caller[c].push_back(sample);
                }
            });
        }
    }  // joins every caller
    log.end_ns = now_ns();
    for (std::size_t c = 0; c < n_callers; ++c) {
        log.rows += rows[c];
        log.samples.insert(log.samples.end(), per_caller[c].begin(), per_caller[c].end());
    }
    std::sort(log.samples.begin(), log.samples.end(),
              [](const Sample& a, const Sample& b) { return a.start_ns < b.start_ns; });
    return log;
}

/// A seeded open-loop arrival: due time and the pool rows it carries.
struct Arrival {
    std::int64_t due_ns = 0;
    std::size_t start = 0;
    std::size_t n_rows = 1;
};

/// Poisson arrivals at `rate_per_s` for `seconds`, starting `lead_ns` from
/// now; each request carries 1 row, or 8 with probability `p_eight`.
std::vector<Arrival> poisson_schedule(double rate_per_s, double seconds, double p_eight,
                                      std::size_t pool_rows, util::Xoshiro256ss& rng) {
    constexpr std::int64_t kLeadNs = 2'000'000;
    std::vector<Arrival> schedule;
    const std::int64_t begin = now_ns() + kLeadNs;
    double t = 0.0;
    while (true) {
        t += -std::log(1.0 - rng.next_double()) / rate_per_s;
        if (t >= seconds) break;
        Arrival arrival;
        arrival.due_ns = begin + static_cast<std::int64_t>(t * 1e9);
        arrival.start = static_cast<std::size_t>(rng.next_below(pool_rows));
        arrival.n_rows = rng.next_bool(p_eight) ? 8 : 1;
        schedule.push_back(arrival);
    }
    return schedule;
}

struct OpenLoopLog {
    PhaseLog phase;
    std::vector<double> late_us;    ///< submit time minus due time, per request
    std::vector<double> submit_ns;  ///< ShardRouter::submit call duration
};

/// Sends `schedule` into the router from this thread and harvests replies
/// on a second one.  Latency runs from each request's due time to the
/// moment its future was seen ready: the harvester blocks on the oldest
/// reply, and on waking stamps every later reply that is already ready with
/// the same time, so a reply is never charged for waiting behind an older
/// one by more than that older one's own completion.
OpenLoopLog open_loop(const api::ShardRouter& router, const std::vector<Arrival>& schedule,
                      const Deployment& deployment, Trace& trace, Tally& tally) {
    struct Pending {
        std::future<api::Response> future;
        std::size_t index = 0;
        std::int64_t ready_ns = 0;
        std::int64_t sent_ns = 0;
    };
    util::Mutex mutex;
    util::CondVar wake;
    std::deque<Pending> pending;
    bool done = false;

    OpenLoopLog log;
    log.phase.samples.resize(schedule.size());
    log.late_us.resize(schedule.size());
    log.phase.begin_ns = schedule.empty() ? now_ns() : schedule.front().due_ns;
    std::uint64_t ok_rows = 0;

    // The harvester yields for a while before it parks, on the queue and on
    // each reply: a parked thread's wake-up would be charged to the request.
    constexpr std::int64_t kSpinNs = 500'000;
    std::atomic<std::size_t> pushed{0};
    util::Thread harvester([&] {
        Recorder* recorder = trace.recorder();
        for (std::size_t taken = 0;; ++taken) {
            for (const std::int64_t until = now_ns() + kSpinNs;
                 pushed.load(std::memory_order_acquire) == taken && now_ns() < until;) {
                util::yield_now();
            }
            Pending item;
            {
                util::MutexLock lock(mutex);
                while (pending.empty() && !done) wake.wait(mutex);
                if (pending.empty()) return;
                item = std::move(pending.front());
                pending.pop_front();
            }
            if (item.ready_ns == 0) {
                for (const std::int64_t until = now_ns() + kSpinNs;
                     item.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready &&
                     now_ns() < until;) {
                    util::yield_now();
                }
                item.future.wait();
                item.ready_ns = now_ns();
                util::MutexLock lock(mutex);
                const std::size_t sweep = std::min<std::size_t>(pending.size(), 64);
                for (std::size_t p = 0; p < sweep; ++p) {
                    Pending& later = pending[p];
                    if (later.ready_ns == 0 &&
                        later.future.wait_for(std::chrono::seconds(0)) ==
                            std::future_status::ready) {
                        later.ready_ns = item.ready_ns;
                    }
                }
            }
            const Arrival& arrival = schedule[item.index];
            Sample& sample = log.phase.samples[item.index];
            sample.start_ns = arrival.due_ns;
            sample.sent_ns = item.sent_ns;
            sample.end_ns = item.ready_ns;
            sample.rows = arrival.n_rows;
            if (recorder) {
                recorder->add("request", arrival.due_ns, item.ready_ns, 0, item.index + 1);
            }
            try {
                const api::Response response = item.future.get();
                const Epoch* epoch = deployment.find(response.epoch);
                if (!response.ok()) {
                    tally.fail(std::string("status ") + api::status_name(response.status));
                } else if (epoch == nullptr ||
                           !deployment.matches(response.labels, arrival.start, *epoch)) {
                    tally.mismatched.fetch_add(1, std::memory_order_relaxed);
                    tally.fail("label mismatch");
                } else {
                    sample.ok = true;
                    sample.queue_us =
                        std::chrono::duration<double, std::micro>(response.queue_time).count();
                    ok_rows += arrival.n_rows;
                }
            } catch (const std::exception& error) {
                tally.fail(error.what());
            }
        }
    });

    Recorder* recorder = trace.recorder();
    try {
        for (std::size_t i = 0; i < schedule.size(); ++i) {
            const Arrival& arrival = schedule[i];
            api::Request request;
            request.rows = deployment.rows(arrival.start, arrival.n_rows);
            wait_until_ns(arrival.due_ns);
            tally.attempted.fetch_add(1, std::memory_order_relaxed);
            const std::int64_t submit_start = now_ns();
            std::future<api::Response> future = router.submit(std::move(request));
            const std::int64_t submit_end = now_ns();
            log.late_us[i] = static_cast<double>(submit_start - arrival.due_ns) / 1e3;
            if (recorder) {
                log.submit_ns.push_back(static_cast<double>(submit_end - submit_start));
                recorder->add("api.router.submit", submit_start, submit_end, 0, i + 1);
            }
            util::MutexLock lock(mutex);
            pending.push_back({std::move(future), i, 0, submit_start});
            pushed.fetch_add(1, std::memory_order_release);
            wake.notify_one();
        }
    } catch (const std::exception& error) {
        tally.fail(error.what());  // the harvester still drains what was sent
    }
    {
        util::MutexLock lock(mutex);
        done = true;
        wake.notify_one();
    }
    harvester.join();
    log.phase.rows = ok_rows;
    log.phase.end_ns = schedule.empty() ? log.phase.begin_ns : schedule.back().due_ns;
    for (const Sample& sample : log.phase.samples) {
        log.phase.end_ns = std::max(log.phase.end_ns, sample.end_ns);
    }
    return log;
}

/// Samples router gauges every millisecond while a phase runs (traced runs
/// only): per-shard coalescing delay and aggregate in-flight rows.
class GaugeSampler {
public:
    GaugeSampler(const api::ShardRouter* router, bool enabled) {
        if (!enabled || router == nullptr) return;
        thread_ = util::Thread([this, router] {
            while (!stop_.load(std::memory_order_acquire)) {
                for (std::size_t s = 0; s < router->n_shards(); ++s) {
                    coalesce_us_.push_back(
                        static_cast<double>(router->shard(s).current_queue_delay().count()));
                }
                inflight_max_ = std::max(inflight_max_, router->inflight_rows());
                util::sleep_for(std::chrono::microseconds(1000));
            }
        });
    }
    ~GaugeSampler() { stop(); }
    GaugeSampler(const GaugeSampler&) = delete;
    GaugeSampler& operator=(const GaugeSampler&) = delete;

    void stop() {
        stop_.store(true, std::memory_order_release);
        thread_.join();
    }

    /// Read after stop().
    const std::vector<double>& coalesce_us() const { return coalesce_us_; }
    std::size_t inflight_max() const { return inflight_max_; }

private:
    std::atomic<bool> stop_{false};
    std::vector<double> coalesce_us_;
    std::size_t inflight_max_ = 0;
    util::Thread thread_;  // declared last: joins before the members it writes
};

/// Hot swaps at fixed intervals until `stop_ns`, cycling through the
/// deployment's epochs: open_mapped the next rotated bundle, make its
/// serving snapshot, install it.  Windows are kept to find the requests
/// that overlapped a swap.
struct SwapLog {
    std::vector<std::pair<std::int64_t, std::int64_t>> windows;
    std::vector<double> total_ms;
    std::vector<double> snapshot_ms;
    std::vector<double> install_ms;
};

SwapLog swap_loop(const Deployment& deployment, double interval_s, std::int64_t stop_ns,
                  Trace& trace, const std::function<void(const api::BundleSnapshot&)>& install) {
    SwapLog log;
    Recorder* recorder = trace.recorder();
    const auto interval = static_cast<std::int64_t>(interval_s * 1e9);
    std::size_t next = 1;
    for (std::int64_t due = now_ns() + interval; due < stop_ns; due += interval) {
        wait_until_ns(due);
        const Epoch& epoch = deployment.epochs[next % deployment.epochs.size()];
        ++next;
        const SpanScope swap_span(recorder, "api.swap");
        const std::int64_t start = now_ns();
        const api::BundleSnapshot snapshot =
            api::DeploymentBundle::open_mapped(epoch.bundle).make_snapshot();
        const std::int64_t built = now_ns();
        install(snapshot);
        const std::int64_t end = now_ns();
        if (recorder) {
            recorder->add("api.swap.snapshot", start, built, swap_span.id());
            recorder->add("api.swap.install", built, end, swap_span.id());
        }
        log.windows.emplace_back(start, end);
        log.total_ms.push_back(seconds_between(start, end) * 1e3);
        log.snapshot_ms.push_back(seconds_between(start, built) * 1e3);
        log.install_ms.push_back(seconds_between(built, end) * 1e3);
    }
    return log;
}

/// Latencies of the Ok requests that overlap a swap window, extended by a
/// settle time: the first requests on a new epoch rebuild per-slot scratch,
/// and that cost belongs to the swap too.
std::vector<double> overlapping_us(const PhaseLog& phase, const SwapLog& swaps) {
    constexpr std::int64_t kSettleNs = 5'000'000;
    std::vector<double> out;
    for (const Sample& s : phase.samples) {
        if (!s.ok) continue;
        for (const auto& [begin, end] : swaps.windows) {
            if (s.start_ns <= end + kSettleNs && s.end_ns >= begin) {
                out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
                break;
            }
        }
    }
    return out;
}

/// Runs `phase` while swap_loop swaps every `interval_s` on another thread.
template <typename Phase>
std::pair<PhaseLog, SwapLog> with_swaps(const Deployment& deployment, double seconds,
                                        double interval_s, Trace& trace,
                                        const std::function<void(const api::BundleSnapshot&)>& install,
                                        Phase&& phase) {
    SwapLog swaps;
    const std::int64_t stop_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    std::exception_ptr swap_error;
    util::Thread swapper([&] {
        try {
            swaps = swap_loop(deployment, interval_s, stop_ns, trace, install);
        } catch (...) {
            swap_error = std::current_exception();
        }
    });
    PhaseLog log = phase();
    swapper.join();
    if (swap_error) std::rethrow_exception(swap_error);
    return {std::move(log), std::move(swaps)};
}

/// Appends a later phase's samples (rounds run one after another, so the
/// result stays in time order).
void append(PhaseLog& into, const PhaseLog& from) {
    into.samples.insert(into.samples.end(), from.samples.begin(), from.samples.end());
    into.rows += from.rows;
}

void append(SwapLog& into, const SwapLog& from) {
    into.windows.insert(into.windows.end(), from.windows.begin(), from.windows.end());
    into.total_ms.insert(into.total_ms.end(), from.total_ms.begin(), from.total_ms.end());
    into.snapshot_ms.insert(into.snapshot_ms.end(), from.snapshot_ms.begin(),
                            from.snapshot_ms.end());
    into.install_ms.insert(into.install_ms.end(), from.install_ms.begin(), from.install_ms.end());
}

// ---------------------------------------------------------------------------
// Shared measurements
// ---------------------------------------------------------------------------

/// setup_s: bundle on disk -> first Ok response, repeated; `once` maps the
/// bundle, builds the serving object, serves the first request, and
/// reports the three parts in ms/ms/us.
struct SetupParts {
    double open_ms = 0.0;
    double build_ms = 0.0;
    double first_us = 0.0;
};

void note_alternatives(Ledger& ledger, const std::string& name, const std::vector<double>& figures,
                       Better better) {
    const bool lower = better == Better::lower;
    for (const double q : {0.05, 0.1, 0.2, 0.25, 0.5}) {
        ledger.note("alt." + name + ".q" + std::to_string(static_cast<int>(q * 100)),
                    quantile(figures, lower ? q : 1.0 - q));
    }
    ledger.note("alt." + name + ".iqm", interquartile_mean(figures));
    ledger.note("alt." + name + ".n", static_cast<double>(figures.size()));
}

/// Sets an end-to-end metric to the quiet end of a run's figures.
void set_figure(Ledger& ledger, const std::string& name, const std::vector<double>& figures,
                Better better) {
    ledger.set(name, quiet_end(figures, better));
    note_alternatives(ledger, name, figures, better);
}

/// setup_s, timed a few times per round so that the repeats spread over the
/// run: bundle on disk -> first Ok response.
class SetupTimes {
public:
    void measure(const std::function<SetupParts()>& once, int repeats) {
        for (int i = 0; i < repeats; ++i) {
            const SetupParts parts = once();
            open_ms_.push_back(parts.open_ms);
            build_ms_.push_back(parts.build_ms);
            first_us_.push_back(parts.first_us);
            total_s_.push_back(parts.open_ms / 1e3 + parts.build_ms / 1e3 + parts.first_us / 1e6);
        }
    }

    void record(Ledger& ledger) const {
        set_figure(ledger, "setup_s", total_s_, Better::lower);
        ledger.set("api.bundle.open_ms", median(open_ms_));
        ledger.set("api.session.build_ms", median(build_ms_));
        ledger.set("api.session.first_us", median(first_us_));
    }

private:
    std::vector<double> total_s_;
    std::vector<double> open_ms_;
    std::vector<double> build_ms_;
    std::vector<double> first_us_;
};

/// setup_s repeats per round.
constexpr int kSetupsPerRound = 3;

/// Sets a median/p99 pair from a time-ordered sample and notes the sample
/// count behind the p99.  The median is the quiet end of the windows'
/// medians.  The p99 is the interquartile mean of the windows' p99s: a
/// window's p99 is its slowest request or two, so the quiet end would pick
/// the windows without a stall, and stalls are what a tail measures.
void set_latency(Ledger& ledger, const char* p50_name, const char* p99_name,
                 const std::vector<double>& values) {
    set_figure(ledger, p50_name, window_quantiles(values, 0.5), Better::lower);
    const std::vector<double> tails = window_quantiles(values, 0.99);
    ledger.set(p99_name, interquartile_mean(tails));
    note_alternatives(ledger, p99_name, tails, Better::lower);
    ledger.note(std::string("samples.") + p99_name, static_cast<double>(values.size()));
}

void record_owner_phase(const Deployment& deployment, Ledger& ledger) {
    set_figure(ledger, "rotate_s", deployment.rotate_s, Better::lower);
    ledger.set("core.rekey_ms", median(deployment.rekey_ms));
    ledger.set("hdc.train_s", median(deployment.train_s));
    ledger.set("api.bundle.export_ms", median(deployment.export_ms));
}

void record_swaps(const PhaseLog& phase, const SwapLog& swaps, Ledger& ledger) {
    const std::vector<double> overlap = overlapping_us(phase, swaps);
    const std::vector<double> tails = window_quantiles(overlap, 0.99);
    ledger.set("swap_p99_us", interquartile_mean(tails));
    note_alternatives(ledger, "swap_p99_us", tails, Better::lower);
    ledger.note("samples.swap_p99_us", static_cast<double>(overlap.size()));
    ledger.set("swap_ms", median(swaps.total_ms));
    ledger.set("api.swap.snapshot_ms", median(swaps.snapshot_ms));
    ledger.set("api.swap.swap_all_ms", median(swaps.install_ms));
    ledger.set("api.swap.window_requests", static_cast<double>(overlap.size()));
}

/// Fixed request batches drawn from the pool, reused across calls.
struct Batches {
    std::vector<std::size_t> starts;
    std::vector<util::Matrix<float>> rows;
};

Batches make_batches(const Deployment& deployment, std::size_t n_rows, std::size_t count,
                     util::Xoshiro256ss& rng) {
    Batches batches;
    for (std::size_t b = 0; b < count; ++b) {
        batches.starts.push_back(static_cast<std::size_t>(rng.next_below(deployment.pool.rows())));
        batches.rows.push_back(deployment.rows(batches.starts.back(), n_rows));
    }
    return batches;
}

/// One caller sending back-to-back predict() calls on `session`.
PhaseLog serve_batches(const api::InferenceSession& session, const Deployment& deployment,
                       const Batches& batches, double seconds, Trace& trace, Tally& tally) {
    return closed_loop(1, seconds, trace, tally, [&](std::size_t, std::size_t i, Recorder* recorder) {
        const std::size_t b = i % batches.rows.size();
        const SpanScope span(recorder, "api.session.predict", 0, i + 1);
        const std::vector<int> labels = session.predict(batches.rows[b]);
        if (!deployment.matches_any(labels, batches.starts[b])) {
            tally.mismatched.fetch_add(1, std::memory_order_relaxed);
            tally.fail("label mismatch");
            return Served{labels.size(), false, 0.0};
        }
        return Served{labels.size(), true, 0.0};
    });
}

/// Closed-loop rounds of one serving configuration, interleaved by the
/// caller with other configurations so a slow stretch of the host hits all
/// of them.  Throughput is the quiet end over rounds.  In a traced run every
/// other round records spans, and the rows/s gap between the plain and the
/// traced rounds is the tracing overhead.
class Rounds {
public:
    explicit Rounds(Trace& trace) : trace_(trace) {}

    Trace& trace_for(std::size_t round) {
        return trace_.enabled() && round % 2 == 1 ? trace_ : untraced_;
    }

    void add(std::size_t round, const PhaseLog& log) {
        if (trace_.enabled() && round % 2 == 1) {
            traced_.push_back(log.rows_per_s());
        } else {
            plain_.push_back(log.rows_per_s());
            requests_.push_back(log.requests_per_s());
        }
        merged_.samples.insert(merged_.samples.end(), log.samples.begin(), log.samples.end());
    }

    /// Rows/s and requests/s of every untraced round.
    const std::vector<double>& rows_per_s() const { return plain_; }
    const std::vector<double>& requests_per_s() const { return requests_; }
    double overhead_pct() const {
        if (traced_.empty()) return 0.0;
        const double plain = quiet_end(plain_, Better::higher);
        return 100.0 * (plain - quiet_end(traced_, Better::higher)) / plain;
    }
    /// Every round's samples, in time order.
    const PhaseLog& merged() const { return merged_; }

private:
    Trace& trace_;
    Trace untraced_{false};
    std::vector<double> plain_;
    std::vector<double> traced_;
    std::vector<double> requests_;
    PhaseLog merged_;
};

/// One single-thread session round of the workloads whose main phase is not
/// one: `batches` served for `seconds` by a fresh 1-thread session.
void single_thread_round(const api::Device& device, const Deployment& deployment,
                         const Batches& batches, double seconds, std::size_t round,
                         Rounds& rounds, Tally& tally) {
    const api::InferenceSession session = device.open_session({.n_threads = 1});
    session.predict(batches.rows[0]);  // first call sizes the per-slot scratch
    rounds.add(round, serve_batches(session, deployment, batches, seconds, rounds.trace_for(round),
                                    tally));
}

/// rows_per_s_1t and, traced, the tracing overhead, from single-thread rounds.
void record_single_thread(const Rounds& rounds, Ledger& ledger) {
    set_figure(ledger, "rows_per_s_1t", rounds.rows_per_s(), Better::higher);
    ledger.set("trace.overhead_pct", rounds.overhead_pct());
}

/// A single-thread pass on `batch_rows`-row predict() calls, in rounds.
void single_thread_pass(const api::Device& device, const Deployment& deployment,
                        std::size_t batch_rows, double seconds, Trace& trace, Tally& tally,
                        Ledger& ledger) {
    constexpr std::size_t kRounds = 8;
    util::Xoshiro256ss rng(batch_rows);
    const Batches batches = make_batches(deployment, batch_rows, 4, rng);
    Rounds rounds(trace);
    for (std::size_t r = 0; r < kRounds; ++r) {
        single_thread_round(device, deployment, batches, seconds / kRounds, r, rounds, tally);
    }
    record_single_thread(rounds, ledger);
}

/// The traced stage probe: one thread walks the pool in blocks of rows
/// through each layer's public functions, one span per stage and block,
/// and checks every label against the reference: a 1-thread session's
/// predict(), then discretize, the fused kernel (binary models), and the
/// two-step encode + score path.  Interleaving the session with the stages
/// block by block makes a slow stretch of the host hit both sides of the
/// reconciliation: the session-path stage sum must explain the session's
/// ns/row within kReconcileTolerance.
void stage_probe(const api::Device& device, const Deployment& deployment, double seconds,
                 Trace& trace, Tally& tally, Ledger& ledger) {
    constexpr std::size_t kBlock = 64;
    Recorder* recorder = trace.recorder();
    const hdc::Encoder& encoder = device.encoder();
    const hdc::MinMaxDiscretizer& discretizer = device.discretizer();
    const hdc::HdcModel& model = device.model();
    const Epoch& epoch = deployment.epochs.front();
    const bool binary = model.kind() == hdc::ModelKind::binary;
    const api::InferenceSession session = device.open_session({.n_threads = 1});

    hdc::EncoderScratch scratch;
    util::Matrix<int> levels(kBlock, encoder.n_features());
    std::vector<hdc::BinaryHV> binary_queries(kBlock);
    std::vector<hdc::IntHV> queries(kBlock);
    std::vector<int> fused_labels(kBlock);
    std::vector<int> labels(kBlock);
    std::size_t rows = 0;
    const std::int64_t stop_ns = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t b = 0; now_ns() < stop_ns; ++b) {
        const std::size_t start = (b * kBlock) % deployment.pool.rows();
        const util::Matrix<float> block = deployment.rows(start, kBlock);
        std::vector<int> served;
        {
            const SpanScope span(recorder, "api.session.predict.1t", 0, b + 1);
            served = session.predict(block);
        }
        {
            const SpanScope span(recorder, "hdc.discretize", 0, b + 1);
            for (std::size_t r = 0; r < kBlock; ++r) discretizer.transform_row(block.row(r), levels.row(r));
        }
        if (binary) {
            {
                const SpanScope span(recorder, "hdc.fused", 0, b + 1);
                for (std::size_t r = 0; r < kBlock; ++r) {
                    fused_labels[r] = model.predict_fused(encoder, levels.row(r), scratch);
                }
            }
            {
                const SpanScope span(recorder, "hdc.encode", 0, b + 1);
                for (std::size_t r = 0; r < kBlock; ++r) {
                    encoder.encode_binary_into(levels.row(r), scratch, binary_queries[r]);
                }
            }
            const SpanScope span(recorder, "hdc.score", 0, b + 1);
            for (std::size_t r = 0; r < kBlock; ++r) labels[r] = model.predict(binary_queries[r]);
        } else {
            {
                const SpanScope span(recorder, "hdc.encode", 0, b + 1);
                for (std::size_t r = 0; r < kBlock; ++r) {
                    encoder.encode_into(levels.row(r), scratch, queries[r]);
                }
            }
            const SpanScope span(recorder, "hdc.score", 0, b + 1);
            for (std::size_t r = 0; r < kBlock; ++r) labels[r] = model.predict(queries[r]);
            fused_labels = labels;
        }
        rows += kBlock;
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        if (!deployment.matches(labels, start, epoch) || fused_labels != labels ||
            served != labels) {
            tally.mismatched.fetch_add(1, std::memory_order_relaxed);
            tally.fail("stage probe label mismatch");
        }
    }
    const auto per_row = [&](const char* name) {
        const std::vector<double> spans = trace.durations_ns(name);
        double total = 0.0;
        for (const double ns : spans) total += ns;
        return total / static_cast<double>(rows);
    };
    const double discretize = per_row("hdc.discretize");
    const double fused = binary ? per_row("hdc.fused") : 0.0;
    const double encode = per_row("hdc.encode");
    const double score = per_row("hdc.score");
    ledger.set("hdc.discretize_ns_per_row", discretize);
    ledger.set("hdc.fused_ns_per_row", fused);
    ledger.set("hdc.encode_ns_per_row", encode);
    ledger.set("hdc.score_ns_per_row", score);

    // Operand bytes per row, computed from the shape: N bound pairs of two
    // D-bit hypervectors.  Divided by the time of the path the session runs.
    const double bytes = static_cast<double>(encoder.n_features()) *
                         static_cast<double>(encoder.dim()) / 8.0 * 2.0;
    ledger.set("util.kernels.encode_gbps", bytes / (binary ? fused : encode));

    const double stage_sum = discretize + (binary ? fused : encode + score);
    const double session_ns = per_row("api.session.predict.1t");
    ledger.set("api.session.ns_per_row_1t", session_ns);
    ledger.set("api.session.overhead_ns_per_row", session_ns - stage_sum);
    ledger.set("api.session.stage_share", stage_sum / session_ns);
    if (std::abs(session_ns - stage_sum) > kReconcileTolerance * session_ns) {
        throw InvalidRun("stage costs do not reconcile: stages " + json_number(stage_sum) +
                         " ns/row vs session " + json_number(session_ns) + " ns/row");
    }
}

/// Router gauges gathered over every router a workload opened.
struct RouterGauges {
    std::vector<double> coalesce_us;
    double inflight_max = 0.0;
    double shed = 0.0;
    std::vector<double> skew;  ///< max/min routed requests per shard, per router

    void add(const api::ShardRouter& router, const GaugeSampler& sampler) {
        coalesce_us.insert(coalesce_us.end(), sampler.coalesce_us().begin(),
                           sampler.coalesce_us().end());
        inflight_max = std::max(inflight_max, static_cast<double>(sampler.inflight_max()));
        const api::RouterStats stats = router.stats();
        shed += static_cast<double>(stats.shed);
        const auto [lo, hi] =
            std::minmax_element(stats.routed_per_shard.begin(), stats.routed_per_shard.end());
        if (*lo > 0) skew.push_back(static_cast<double>(*hi) / static_cast<double>(*lo));
    }
};

/// Queue- and router-side per-layer metrics.  Zero for workloads that send
/// no async traffic (`phase` null) or no open-loop traffic (`open` null).
void record_router_layers(const PhaseLog* phase, const OpenLoopLog* open,
                          const RouterGauges& gauges, Ledger& ledger) {
    set_latency(ledger, "api.session.queue_us_p50", "api.session.queue_us_p99",
                phase ? phase->queue_us() : std::vector<double>{});
    ledger.set("api.router.submit_ns_p50", open ? quantile(open->submit_ns, 0.5) : 0.0);
    ledger.set("api.router.submit_ns_p99", open ? quantile(open->submit_ns, 0.99) : 0.0);
    ledger.set("load.late_us_p99", open ? windowed_quantile(open->late_us, 0.99) : 0.0);
    ledger.set("api.session.coalesce_delay_us", mean(gauges.coalesce_us));
    ledger.set("api.router.inflight_rows_max", gauges.inflight_max);
    ledger.set("api.router.shed", gauges.shed);
    ledger.set("api.router.route_skew", median(gauges.skew));
}

/// Rejects the run when the generator kept its schedule so badly that the
/// latencies describe the generator, not the system.
void check_lateness(const std::vector<double>& late_us, const Args& args, Ledger& ledger,
                    const char* phase) {
    const double p99 = windowed_quantile(late_us, 0.99);
    ledger.note(std::string("late_us_p99.") + phase, p99);
    if (p99 > args.late_bound_us) {
        throw InvalidRun(std::string("load generator ran late in phase ") + phase + ": p99 " +
                         json_number(p99) + " us > bound " + json_number(args.late_bound_us) +
                         " us");
    }
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

void run_batch_mnist(const Args& args, Trace& trace, Tally& tally, Ledger& ledger) {
    constexpr std::size_t kRotations = 4;
    constexpr std::size_t kBatchRows = 1024;
    constexpr std::size_t kRounds = 8;
    const Shape shape{data::mnist_like(), hdc::ModelKind::binary, 800, 4096};
    Deployment deployment = build_deployment(shape, args, kRotations, trace);
    const std::size_t nproc = util::hardware_concurrency();
    const fs::path& bundle = deployment.epochs.front().bundle;

    util::Xoshiro256ss rng(util::hash_mix(args.seed, 0xba7c));
    const Batches batches = make_batches(deployment, kBatchRows, 8, rng);

    const auto setup_once = [&] {
        SetupParts parts;
        const std::int64_t t0 = now_ns();
        const api::Device device = api::Device::open_mapped(bundle);
        const std::int64_t t1 = now_ns();
        const api::InferenceSession session = device.open_session({.n_threads = nproc});
        const std::int64_t t2 = now_ns();
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        if (!deployment.matches(session.predict(batches.rows[0]), batches.starts[0],
                                deployment.epochs.front())) {
            tally.mismatched.fetch_add(1, std::memory_order_relaxed);
            tally.fail("label mismatch in setup");
        }
        const std::int64_t t3 = now_ns();
        parts.open_ms = seconds_between(t0, t1) * 1e3;
        parts.build_ms = seconds_between(t1, t2) * 1e3;
        parts.first_us = seconds_between(t2, t3) * 1e6;
        return parts;
    };

    // Setups, one thread, nproc threads and nproc threads under swaps
    // alternate in rounds, so a slow stretch of the host lands on every
    // phase, and the owner's timed rotations run between rounds.
    const api::Device device = api::Device::open_mapped(bundle);
    // Each phase of each round opens a fresh session: where the host places
    // a pool's threads moves its throughput for as long as the pool lives.
    const auto open_warm = [&](std::size_t n_threads) {
        api::InferenceSession session = device.open_session({.n_threads = n_threads});
        session.predict(batches.rows[0]);  // the first call sizes the per-slot scratch
        return session;
    };
    SetupTimes setups;
    Rounds one_thread(trace);
    Rounds all_threads(trace);
    PhaseLog swapped;
    SwapLog swaps;
    for (std::size_t r = 0; r < kRounds; ++r) {
        setups.measure(setup_once, kSetupsPerRound);
        one_thread.add(r, serve_batches(open_warm(1), deployment, batches,
                                        0.3 * args.seconds / kRounds, one_thread.trace_for(r),
                                        tally));
        all_threads.add(r, serve_batches(open_warm(nproc), deployment, batches,
                                         0.45 * args.seconds / kRounds, all_threads.trace_for(r),
                                         tally));
        const api::InferenceSession pooled = open_warm(nproc);
        const double swap_seconds = 0.25 * args.seconds / kRounds;
        const auto [phase, round_swaps] = with_swaps(
            deployment, swap_seconds, 0.025, trace,
            [&](const api::BundleSnapshot& snapshot) { pooled.swap_bundle(snapshot); },
            [&] { return serve_batches(pooled, deployment, batches, swap_seconds, trace, tally); });
        append(swapped, phase);
        append(swaps, round_swaps);
        for (std::size_t k = 0; k < kRotationsPerRound; ++k) rotate_owner(deployment, trace);
    }
    setups.record(ledger);
    record_owner_phase(deployment, ledger);
    record_single_thread(one_thread, ledger);
    set_latency(ledger, "idle_p50_us", "idle_p99_us", one_thread.merged().latencies_us());
    set_figure(ledger, "rows_per_s", all_threads.rows_per_s(), Better::higher);
    set_figure(ledger, "max_rps", all_threads.requests_per_s(), Better::higher);
    set_latency(ledger, "p50_us", "p99_us", all_threads.merged().latencies_us());
    set_latency(ledger, "api.session.service_us_p50", "api.session.service_us_p99",
                all_threads.merged().service_us());
    ledger.set("util.pool.scaling", ledger.at("rows_per_s") /
                                        (static_cast<double>(nproc) * ledger.at("rows_per_s_1t")));
    record_router_layers(nullptr, nullptr, RouterGauges{}, ledger);
    record_swaps(swapped, swaps, ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());

    if (trace.enabled()) stage_probe(device, deployment, 0.1 * args.seconds, trace, tally, ledger);
}

void run_serve_pamap(const Args& args, Trace& trace, Tally& tally, Ledger& ledger) {
    constexpr std::size_t kRotations = 4;
    constexpr double kEightRowShare = 0.1;
    // Idle stays below the rate at which the router's adaptive governor
    // starts holding requests for the coalescing window; high sits inside
    // it, at about a sixth of max_rps on a 4-core host.
    constexpr double kIdleRps = 200.0;
    constexpr double kHighRps = 4000.0;
    const std::vector<double> ladder = {16000, 32000, 48000, 64000,  80000, 96000,
                                       112000, 128000, 144000, 160000, 192000};

    const Shape shape{data::pamap_like(), hdc::ModelKind::binary, 600, 4096};
    Deployment deployment = build_deployment(shape, args, kRotations, trace);
    for (std::size_t k = 0; k < kRotations; ++k) rotate_owner(deployment, trace);
    record_owner_phase(deployment, ledger);
    const fs::path& bundle = deployment.epochs.front().bundle;

    api::RouterOptions options;
    options.n_shards = 2;
    options.placement = api::Placement::least_loaded;
    options.session.n_threads = 2;
    // Queues deep enough that nothing sheds: overload shows as latency.
    options.session.max_queue_rows = std::size_t{1} << 20;

    util::Xoshiro256ss rng(util::hash_mix(args.seed, 0x9a3a));
    SetupTimes setups;
    setups.measure(
        [&] {
            SetupParts parts;
            const std::int64_t t0 = now_ns();
            const api::Device device = api::Device::open_mapped(bundle);
            const std::int64_t t1 = now_ns();
            const api::ShardRouter router = device.open_router(options);
            const std::int64_t t2 = now_ns();
            const std::size_t start = static_cast<std::size_t>(rng.next_below(deployment.pool.rows()));
            api::Request request;
            request.rows = deployment.rows(start, 1);
            tally.attempted.fetch_add(1, std::memory_order_relaxed);
            const api::Response response = router.submit(std::move(request)).get();
            if (!response.ok() || !deployment.matches(response.labels, start, deployment.epochs.front())) {
                tally.mismatched.fetch_add(1, std::memory_order_relaxed);
                tally.fail("setup request failed");
            }
            const std::int64_t t3 = now_ns();
            parts.open_ms = seconds_between(t0, t1) * 1e3;
            parts.build_ms = seconds_between(t1, t2) * 1e3;
            parts.first_us = seconds_between(t2, t3) * 1e6;
            return parts;
        },
        15);
    setups.record(ledger);

    const api::Device device = api::Device::open_mapped(bundle);
    single_thread_pass(device, deployment, 1024, 0.15 * args.seconds, trace, tally, ledger);

    const auto run_rate = [&](const api::ShardRouter& router, double rate, double seconds) {
        const std::vector<Arrival> schedule =
            poisson_schedule(rate, seconds, kEightRowShare, deployment.pool.rows(), rng);
        return open_loop(router, schedule, deployment, trace, tally);
    };

    // Idle, high and swap phases run in rounds, each on a freshly opened
    // router: where the host places a router's dispatcher threads moves
    // its latency for as long as the router lives, so one router per run
    // would make the run, not the code, decide the result.
    constexpr std::size_t kRounds = 9;
    OpenLoopLog idle;
    OpenLoopLog high;
    PhaseLog swapped;
    SwapLog swaps;
    RouterGauges gauges;
    std::vector<double> high_rows_per_s;
    std::vector<double> swap_late_us;
    const auto append_open = [](OpenLoopLog& into, const OpenLoopLog& from) {
        append(into.phase, from.phase);
        into.late_us.insert(into.late_us.end(), from.late_us.begin(), from.late_us.end());
        into.submit_ns.insert(into.submit_ns.end(), from.submit_ns.begin(), from.submit_ns.end());
    };
    for (std::size_t r = 0; r < kRounds; ++r) {
        const api::ShardRouter router = device.open_router(options);
        append_open(idle, run_rate(router, kIdleRps, 0.3 * args.seconds / kRounds));
        {
            GaugeSampler sampler(&router, trace.enabled());
            const OpenLoopLog log = run_rate(router, kHighRps, 0.15 * args.seconds / kRounds);
            sampler.stop();
            gauges.add(router, sampler);
            high_rows_per_s.push_back(log.phase.rows_per_s());
            append_open(high, log);
        }
        const double swap_seconds = 0.15 * args.seconds / kRounds;
        const auto [phase, round_swaps] = with_swaps(
            deployment, swap_seconds, 0.025, trace,
            [&](const api::BundleSnapshot& snapshot) { router.swap_all(snapshot); },
            [&] {
                OpenLoopLog log = run_rate(router, kHighRps, swap_seconds);
                swap_late_us.insert(swap_late_us.end(), log.late_us.begin(), log.late_us.end());
                return std::move(log.phase);
            });
        append(swapped, phase);
        append(swaps, round_swaps);
    }
    // Idle latency runs from the submit call: between requests the
    // generator sleeps for milliseconds, and on a shared VM its own wake-up
    // is late by up to ~2 ms at p99, which would be reported as the
    // router's.  At the loaded rates latency runs from the due time, and
    // lateness there invalidates the run.
    ledger.note("late_us_p99.idle", windowed_quantile(idle.late_us, 0.99));
    check_lateness(high.late_us, args, ledger, "high");
    check_lateness(swap_late_us, args, ledger, "swap");
    set_latency(ledger, "idle_p50_us", "idle_p99_us", idle.phase.latencies_us(true));
    ledger.set("rows_per_s", median(high_rows_per_s));
    set_latency(ledger, "p50_us", "p99_us", high.phase.latencies_us());
    set_latency(ledger, "api.session.service_us_p50", "api.session.service_us_p99",
                high.phase.service_us());
    record_router_layers(&high.phase, &high, gauges, ledger);
    ledger.set("util.pool.scaling",
               ledger.at("rows_per_s") / (static_cast<double>(util::hardware_concurrency()) *
                                          ledger.at("rows_per_s_1t")));
    record_swaps(swapped, swaps, ledger);

    // Read before the ladder: how much backlog its overloaded top rung
    // holds depends on where the climb stops, not on the serving stack.
    ledger.set("peak_rss_mb", peak_rss_mb());

    // The ladder climbs until a rung misses the limit: p99, or the median
    // latency of the rung's last tenth of requests (a growing backlog shows
    // there), above kLadderLimitUs, more than 1% failed, or a generator that
    // could not keep the schedule (the host, not the router, is then
    // saturated).  A rung that misses gets two more tries, so host stalls do
    // not end the climb.  max_rps is the rate at which the
    // miss starts, interpolated between the last rung that met the limit
    // and the rung that missed, so noise moves it by part of a step.
    const double rung_seconds = 0.025 * args.seconds;
    struct Rung {
        double achieved = 0.0;
        double cost_us = 0.0;
        bool pass = false;
    };
    const api::ShardRouter router = device.open_router(options);
    const auto climb = [&](double rate) {
        const OpenLoopLog log = run_rate(router, rate, rung_seconds);
        Rung rung;
        rung.achieved = log.phase.requests_per_s();
        const std::vector<double> latencies = log.phase.latencies_us();
        const double backlog_us = quantile(
            std::vector<double>(latencies.end() - static_cast<std::ptrdiff_t>(latencies.size() / 10),
                                latencies.end()),
            0.5);
        rung.cost_us = std::max({windowed_quantile(latencies, 0.99), backlog_us,
                                 windowed_quantile(log.late_us, 0.99)});
        rung.pass = rung.cost_us <= kLadderLimitUs &&
                    static_cast<double>(log.phase.ok_count()) >=
                        0.99 * static_cast<double>(log.phase.samples.size());
        ledger.note("ladder.cost_us." + std::to_string(static_cast<int>(rate)), rung.cost_us);
        return rung;
    };
    double max_rps = 0.0;
    std::optional<Rung> last_pass;
    for (const double rate : ladder) {
        Rung rung = climb(rate);
        for (int retry = 0; retry < 2 && !rung.pass; ++retry) rung = climb(rate);
        if (rung.pass) {
            last_pass = rung;
            max_rps = rung.achieved;
            continue;
        }
        if (last_pass) {
            max_rps = last_pass->achieved + (rung.achieved - last_pass->achieved) *
                                                (kLadderLimitUs - last_pass->cost_us) /
                                                (rung.cost_us - last_pass->cost_us);
        }
        break;
    }
    if (!last_pass) {
        throw InvalidRun("the lowest ladder rate already misses the latency limit");
    }
    ledger.set("max_rps", max_rps);

    if (trace.enabled()) stage_probe(device, deployment, 0.1 * args.seconds, trace, tally, ledger);
}

void run_rotate_isolet(const Args& args, Trace& trace, Tally& tally, Ledger& ledger) {
    constexpr std::size_t kRequestRows = 16;
    constexpr std::size_t kCallers = 2;
    constexpr std::size_t kRotations = 4;
    const Shape shape{data::isolet_like(), hdc::ModelKind::non_binary, 520, 2048};
    Deployment deployment = build_deployment(shape, args, kRotations, trace);
    const fs::path& bundle = deployment.epochs.front().bundle;

    api::RouterOptions options;
    options.n_shards = 2;
    options.placement = api::Placement::least_loaded;
    options.session.n_threads = 2;

    util::Xoshiro256ss rng(util::hash_mix(args.seed, 0x1501));
    std::vector<std::size_t> starts;
    for (std::size_t i = 0; i < 1024; ++i) {
        starts.push_back(static_cast<std::size_t>(rng.next_below(deployment.pool.rows())));
    }

    const auto send = [&](const api::ShardRouter& router, std::size_t start, Recorder* recorder,
                          std::uint64_t request_id) {
        api::Request request;
        request.rows = deployment.rows(start, kRequestRows);
        std::future<api::Response> future;
        {
            const SpanScope span(recorder, "api.router.submit", 0, request_id);
            future = router.submit(std::move(request));
        }
        const SpanScope span(recorder, "api.response.wait", 0, request_id);
        const api::Response response = future.get();
        const Epoch* epoch = deployment.find(response.epoch);
        if (!response.ok()) {
            tally.fail(std::string("status ") + api::status_name(response.status));
            return Served{0, false, 0.0};
        }
        if (epoch == nullptr || !deployment.matches(response.labels, start, *epoch)) {
            tally.mismatched.fetch_add(1, std::memory_order_relaxed);
            tally.fail("label mismatch");
            return Served{0, false, 0.0};
        }
        return Served{kRequestRows, true,
                      std::chrono::duration<double, std::micro>(response.queue_time).count()};
    };

    const auto setup_once = [&] {
        SetupParts parts;
        const std::int64_t t0 = now_ns();
        const api::Device device = api::Device::open_mapped(bundle);
        const std::int64_t t1 = now_ns();
        const api::ShardRouter router = device.open_router(options);
        const std::int64_t t2 = now_ns();
        tally.attempted.fetch_add(1, std::memory_order_relaxed);
        send(router, starts[0], nullptr, 0);
        const std::int64_t t3 = now_ns();
        parts.open_ms = seconds_between(t0, t1) * 1e3;
        parts.build_ms = seconds_between(t1, t2) * 1e3;
        parts.first_us = seconds_between(t2, t3) * 1e6;
        return parts;
    };

    const api::Device device = api::Device::open_mapped(bundle);
    // The single-thread pass sends the callers' 16-row requests.  With
    // 256-row batches the pass ran 25% slower for a whole run in about one
    // run of five, while the router path on the same device did not.
    util::Xoshiro256ss batch_rng(util::hash_mix(args.seed, 0x1502));
    const Batches batches = make_batches(deployment, kRequestRows, 16, batch_rng);

    // Rounds, so that every measurement spreads over the run: setups, a
    // single-thread session pass, then, on a freshly opened router as in
    // serve-pamap, an idle pass (one caller) and a loaded pass (two callers,
    // swaps running), then the owner's timed rotations.
    constexpr std::size_t kRounds = 10;
    SetupTimes setups;
    Rounds one_thread(trace);
    PhaseLog idle;
    PhaseLog loaded;
    SwapLog swaps;
    RouterGauges gauges;
    std::vector<double> rows_per_s;
    std::vector<double> requests_per_s;
    for (std::size_t r = 0; r < kRounds; ++r) {
        setups.measure(setup_once, kSetupsPerRound);
        single_thread_round(device, deployment, batches, 0.1 * args.seconds / kRounds, r,
                            one_thread, tally);
        const api::ShardRouter router = device.open_router(options);
        const auto serve = [&](std::size_t caller, std::size_t i, Recorder* recorder) {
            const std::size_t start = starts[(i * kCallers + caller) % starts.size()];
            return send(router, start, recorder, (r << 48) + ((caller + 1) << 32) + i + 1);
        };
        const PhaseLog idle_round =
            closed_loop(1, 0.2 * args.seconds / kRounds, trace, tally, serve);
        ledger.note("idle_p50_us." + std::to_string(r), quantile(idle_round.latencies_us(), 0.5));
        append(idle, idle_round);
        const double main_seconds = 0.7 * args.seconds / kRounds;
        GaugeSampler sampler(&router, trace.enabled());
        const auto [phase, round_swaps] = with_swaps(
            deployment, main_seconds, 0.1, trace,
            [&](const api::BundleSnapshot& snapshot) { router.swap_all(snapshot); },
            [&] { return closed_loop(kCallers, main_seconds, trace, tally, serve); });
        sampler.stop();
        gauges.add(router, sampler);
        rows_per_s.push_back(phase.rows_per_s());
        requests_per_s.push_back(phase.requests_per_s());
        append(loaded, phase);
        append(swaps, round_swaps);
        for (std::size_t k = 0; k < kRotationsPerRound; ++k) rotate_owner(deployment, trace);
    }
    setups.record(ledger);
    record_owner_phase(deployment, ledger);
    record_single_thread(one_thread, ledger);
    set_latency(ledger, "idle_p50_us", "idle_p99_us", idle.latencies_us());
    set_figure(ledger, "rows_per_s", rows_per_s, Better::higher);
    set_figure(ledger, "max_rps", requests_per_s, Better::higher);
    set_latency(ledger, "p50_us", "p99_us", loaded.latencies_us());
    set_latency(ledger, "api.session.service_us_p50", "api.session.service_us_p99",
                loaded.service_us());
    ledger.set("util.pool.scaling",
               ledger.at("rows_per_s") / (static_cast<double>(util::hardware_concurrency()) *
                                          ledger.at("rows_per_s_1t")));
    record_router_layers(&loaded, nullptr, gauges, ledger);
    if (trace.enabled()) {
        std::vector<double> submit = trace.durations_ns("api.router.submit");
        ledger.set("api.router.submit_ns_p50", quantile(submit, 0.5));
        ledger.set("api.router.submit_ns_p99", quantile(submit, 0.99));
    }
    record_swaps(loaded, swaps, ledger);
    ledger.set("peak_rss_mb", peak_rss_mb());

    if (trace.enabled()) stage_probe(device, deployment, 0.1 * args.seconds, trace, tally, ledger);
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "error: " << why
              << "\nusage: hdlock_serving_bench --workload batch-mnist|serve-pamap|rotate-isolet"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR] [--commit SHA]\n";
    std::exit(2);
}

Args parse_args(int argc, char** argv) {
    Args args;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (flag == "--corrupt-reference") {
            args.corrupt_reference = true;
            continue;
        }
        if (i + 1 >= argc) usage(std::string(flag) + " needs a value");
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
            have_workload = true;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), &end);
            if (!(args.seconds > 0.0 && args.seconds <= 600.0)) usage("--seconds out of range");
        } else if (flag == "--trace") {
            if (value != "0" && value != "1") usage("--trace takes 0 or 1");
            args.trace = value == "1";
        } else if (flag == "--out-dir") {
            args.out_dir = value;
        } else if (flag == "--commit") {
            args.commit = value;
        } else if (flag == "--late-bound-us") {
            args.late_bound_us = std::strtod(value.c_str(), &end);
        } else {
            usage("unknown flag " + std::string(flag));
        }
        if (end != nullptr && *end != '\0') usage("bad number for " + std::string(flag));
    }
    if (!have_workload) usage("--workload is required");
    return args;
}

int run(const Args& args) {
    if (std::string_view(HDLOCK_BENCH_BUILD_TYPE) != "Release") {
        std::cerr << "error: refusing to measure a " << HDLOCK_BENCH_BUILD_TYPE
                  << " build of hdlock; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 2;
    }
    const std::function<void(const Args&, Trace&, Tally&, Ledger&)> workload =
        args.workload == "batch-mnist"     ? run_batch_mnist
        : args.workload == "serve-pamap"   ? run_serve_pamap
        : args.workload == "rotate-isolet" ? run_rotate_isolet
                                           : nullptr;
    if (!workload) usage("unknown workload " + args.workload);

    fs::create_directories(args.out_dir);
    const std::string fingerprint = fingerprint_json(args.workload, args.seed, args.commit, args.trace);
    std::cout << "fingerprint " << fingerprint << "\n";

    Trace trace(args.trace);
    Tally tally;
    Ledger ledger;
    std::optional<std::string> invalid;
    try {
        workload(args, trace, tally, ledger);
    } catch (const InvalidRun& error) {
        invalid = error.what();
    }
    fs::remove_all(args.out_dir / (args.workload + "-bundles"));
    if (invalid) {
        std::cerr << "invalid run: " << *invalid << "\n";
        return 2;
    }

    const std::uint64_t attempted = tally.attempted.load();
    const std::uint64_t failed = tally.failed.load();
    ledger.set("ok_pct", attempted == 0 ? 0.0
                                        : 100.0 * static_cast<double>(attempted - failed) /
                                              static_cast<double>(attempted));
    const bool correct = failed == 0 && tally.mismatched.load() == 0 && attempted > 0;
    {
        util::MutexLock lock(tally.mutex);
        if (!tally.first_error.empty()) std::cerr << "first failure: " << tally.first_error << "\n";
    }

    const std::string stem = (args.out_dir / (args.workload + (args.trace ? "-traced" : ""))).string();
    ledger.write(stem + "-ledger.json", fingerprint);
    if (args.trace) trace.write_jsonl(stem + "-spans.jsonl");

    std::cout << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed << ", \"metrics\": "
              << ledger.metrics_json(args.trace ? Run::traced : Run::untraced) << "}" << std::endl;
    return correct ? 0 : 1;
}

}  // namespace
}  // namespace hdlock::bench::serving

int main(int argc, char** argv) {
    try {
        return hdlock::bench::serving::run(hdlock::bench::serving::parse_args(argc, argv));
    } catch (const std::exception& error) {
        std::cerr << "error: " << error.what() << "\n";
        return 1;
    }
}
