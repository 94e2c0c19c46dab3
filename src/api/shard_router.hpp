#pragma once

/// \file shard_router.hpp
/// In-process shard router over N InferenceSession replicas.
///
/// The "millions of users" serving layer: one router owns N sessions built
/// from the same shared encoder (for mapped bundles the encoder's
/// hypervectors are views into one mmap, so N shards cost ~1x model
/// memory), places each typed Request on a shard, and refuses work past a
/// load watermark instead of letting queues grow without bound.
///
///   Placement   round-robin (uniform), least-loaded (by in-flight rows),
///               or consistent-hash on Request::shard_key (session
///               affinity; keys stay on their shard as long as the fleet
///               shape is fixed).
///   Admission   submit() never blocks.  Past `shed_watermark_rows`
///               aggregate in-flight rows the request resolves immediately
///               with Status::overloaded — unless nothing is in flight, so
///               a request larger than the watermark is served alone on an
///               idle fleet (SubmitQueue's rule); an individually full
///               shard queue likewise refuses via try_predict_async.
///   Deadlines   ride the Request into the shard's dispatcher, which drops
///               expired work before encode (see inference_session.hpp).
///
/// Labels are bit-identical across shard counts and placement policies —
/// per-row results are a pure function of the input, so sharding is purely
/// a throughput/latency decision.  The router is immutable after
/// construction, safe to share across caller threads, and neither copyable
/// nor movable: the factories return it as a prvalue.

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "api/inference_session.hpp"
#include "api/request.hpp"
#include "util/matrix.hpp"

namespace hdlock::api {

/// How submit() picks a shard for each request.
enum class Placement : std::uint8_t {
    /// Uniform rotation; cheapest, ignores load and keys.
    round_robin = 0,
    /// The shard with the fewest in-flight rows at submit time (ties go to
    /// the lowest index).  The default: tracks real load, no keys needed.
    least_loaded = 1,
    /// Virtual-node hash ring over Request::shard_key — equal keys land on
    /// the same shard.  Keyless requests fall back to round-robin.
    consistent_hash = 2,
};

constexpr const char* placement_name(Placement placement) noexcept {
    switch (placement) {
        case Placement::round_robin: return "round-robin";
        case Placement::least_loaded: return "least-loaded";
        case Placement::consistent_hash: return "consistent-hash";
    }
    return "unknown";
}

/// Parses the CLI/eval spelling of a placement policy (the names
/// placement_name() produces); nullopt for anything else.
std::optional<Placement> parse_placement(std::string_view name) noexcept;

struct RouterOptions {
    /// Session replicas to own; 0 clamps to 1.
    std::size_t n_shards = 1;
    Placement placement = Placement::least_loaded;
    /// Options each shard's InferenceSession is built with.
    SessionOptions session{};
    /// Aggregate in-flight rows past which submit() sheds with
    /// Status::overloaded.  0 derives n_shards * session.max_queue_rows
    /// (i.e. "every queue full").
    std::size_t shed_watermark_rows = 0;
};

/// Router-side counters (monotonic; approximate ordering under
/// concurrency).  Response-level outcomes (deadline_exceeded, cancelled)
/// resolve inside shard dispatchers and are tallied by callers from the
/// Response stream, not here.
struct RouterStats {
    /// Requests admitted and routed to a shard.
    std::uint64_t accepted = 0;
    /// Requests refused at the router watermark.
    std::uint64_t shed = 0;
    /// Aggregate rows currently queued or being served across shards.
    std::size_t inflight_rows = 0;
    /// Requests routed to each shard (placement skew diagnostics).
    std::vector<std::uint64_t> routed_per_shard;
};

class ShardRouter {
public:
    /// Builds n_shards sessions over one shared encoder; discretizer and
    /// model are copied per shard (they are small next to the encoder's
    /// hypervector arrays, which are shared — and for mapped bundles are
    /// views into one mmap).
    ShardRouter(std::shared_ptr<const hdc::Encoder> encoder, hdc::MinMaxDiscretizer discretizer,
                hdc::HdcModel model, RouterOptions options = {});

    /// Immovable, so a serving router cannot be moved out from under its
    /// callers.  Factories return it as a prvalue, which needs no move.
    ShardRouter(ShardRouter&&) = delete;
    ShardRouter(const ShardRouter&) = delete;
    ShardRouter& operator=(const ShardRouter&) = delete;
    ShardRouter& operator=(ShardRouter&&) = delete;

    /// The router front door: admission-checks, places, and forwards the
    /// request.  Never blocks — shed outcomes come back as an already
    /// resolved future with Status::overloaded.  Response::shard_id names
    /// the serving shard.
    std::future<Response> submit(Request request) const;

    /// Synchronous conveniences routed through placement (keyless), for
    /// callers that want the fleet but not the async contract.  Same
    /// predict-surface convention as InferenceSession.
    std::vector<int> predict(const util::Matrix<float>& rows) const;
    int predict_row(std::span<const float> row) const;

    /// Rolls an epoch hot swap across every shard (see
    /// InferenceSession::swap_bundle): each shard validates and installs the
    /// snapshot in turn, old-epoch work finishing undisturbed.  If any
    /// shard's validation fails, the shards already swapped are rolled back
    /// to their previous serving state and RotationError (naming the
    /// failing shard) is thrown — the fleet is never left serving a mix of
    /// epochs after the call returns or throws.  During the roll itself a
    /// brief mix of the two epochs is expected and safe (responses carry
    /// Response::epoch).  Returns the installed epoch.
    std::uint64_t swap_all(const BundleSnapshot& snapshot) const;

    std::size_t n_shards() const noexcept { return shards_.size(); }
    Placement placement() const noexcept { return options_.placement; }
    std::size_t shed_watermark_rows() const noexcept { return watermark_; }
    /// Aggregate in-flight rows across every shard (the admission signal).
    std::size_t inflight_rows() const noexcept;
    const InferenceSession& shard(std::size_t index) const { return *shards_[index]; }
    RouterStats stats() const;

private:
    std::uint32_t pick_shard_(const std::optional<std::uint64_t>& shard_key) const;
    std::uint32_t ring_lookup_(std::uint64_t key) const;

    RouterOptions options_;
    std::size_t watermark_ = 0;
    std::vector<std::unique_ptr<InferenceSession>> shards_;
    /// Sorted (point, shard) pairs; empty unless placement is
    /// consistent_hash.  Immutable after construction.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> ring_;
    mutable std::atomic<std::uint64_t> round_robin_{0};
    mutable std::atomic<std::uint64_t> accepted_{0};
    mutable std::atomic<std::uint64_t> shed_{0};
    mutable std::vector<std::atomic<std::uint64_t>> routed_;
};

}  // namespace hdlock::api
