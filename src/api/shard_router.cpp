#include "api/shard_router.hpp"

#include <algorithm>
#include <limits>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace hdlock::api {

namespace {

/// Salts keep ring-point hashes and request-key hashes in distinct
/// families, so a caller using small integer shard keys cannot collide
/// with the vnode points by accident.
constexpr std::uint64_t kRingSalt = 0x9e3779b97f4a7c15ULL;
constexpr std::uint64_t kKeySalt = 0xc2b2ae3d27d4eb4fULL;

}  // namespace

std::optional<Placement> parse_placement(std::string_view name) noexcept {
    if (name == "round-robin") return Placement::round_robin;
    if (name == "least-loaded") return Placement::least_loaded;
    if (name == "consistent-hash") return Placement::consistent_hash;
    return std::nullopt;
}

ShardRouter::ShardRouter(std::shared_ptr<const hdc::Encoder> encoder,
                         hdc::MinMaxDiscretizer discretizer, hdc::HdcModel model,
                         RouterOptions options)
    : options_(std::move(options)) {
    HDLOCK_EXPECTS(encoder != nullptr, "ShardRouter: null encoder");
    const std::size_t n = std::max<std::size_t>(options_.n_shards, 1);
    options_.n_shards = n;
    SessionOptions session = options_.session;
    session.adaptive_queue_delay = options_.adaptive_queue_delay;
    shards_.reserve(n);
    for (std::size_t s = 0; s < n; ++s) {
        shards_.push_back(
            std::make_unique<InferenceSession>(encoder, discretizer, model, session));
    }
    watermark_ = options_.shed_watermark_rows != 0
                     ? options_.shed_watermark_rows
                     : n * std::max<std::size_t>(session.max_queue_rows, 1);
    routed_ = std::vector<std::atomic<std::uint64_t>>(n);
    if (options_.placement == Placement::consistent_hash) {
        const std::size_t vnodes = std::max<std::size_t>(options_.hash_virtual_nodes, 1);
        ring_.reserve(n * vnodes);
        for (std::size_t s = 0; s < n; ++s) {
            for (std::size_t v = 0; v < vnodes; ++v) {
                ring_.emplace_back(util::hash_mix(util::hash_mix(kRingSalt, s + 1), v + 1),
                                   static_cast<std::uint32_t>(s));
            }
        }
        std::sort(ring_.begin(), ring_.end());
    }
}

ShardRouter::ShardRouter(ShardRouter&& other) noexcept
    : options_(std::move(other.options_)),
      watermark_(other.watermark_),
      shards_(std::move(other.shards_)),
      ring_(std::move(other.ring_)),
      round_robin_(other.round_robin_.load()),
      accepted_(other.accepted_.load()),
      shed_(other.shed_.load()),
      routed_(std::move(other.routed_)) {}

std::uint32_t ShardRouter::ring_lookup_(std::uint64_t key) const {
    const std::uint64_t point = util::hash_mix(kKeySalt, key);
    auto it = std::lower_bound(
        ring_.begin(), ring_.end(), point,
        [](const std::pair<std::uint64_t, std::uint32_t>& node, std::uint64_t p) {
            return node.first < p;
        });
    if (it == ring_.end()) it = ring_.begin();  // wrap: the ring is circular
    return it->second;
}

std::uint32_t ShardRouter::pick_shard_(const std::optional<std::uint64_t>& shard_key) const {
    const std::size_t n = shards_.size();
    if (n == 1) return 0;
    switch (options_.placement) {
        case Placement::consistent_hash:
            if (shard_key.has_value()) return ring_lookup_(*shard_key);
            break;  // keyless: fall back to round-robin below
        case Placement::least_loaded: {
            std::size_t best = 0;
            std::size_t best_rows = std::numeric_limits<std::size_t>::max();
            for (std::size_t s = 0; s < n; ++s) {
                const std::size_t rows = shards_[s]->inflight_rows();
                if (rows < best_rows) {
                    best_rows = rows;
                    best = s;
                }
            }
            return static_cast<std::uint32_t>(best);
        }
        case Placement::round_robin:
            break;
    }
    return static_cast<std::uint32_t>(round_robin_.fetch_add(1, std::memory_order_relaxed) % n);
}

std::uint64_t ShardRouter::swap_all(const BundleSnapshot& snapshot) const {
    // Capture every shard's current state first: the rollback path must be
    // able to restore shards 0..k-1 without re-validating anything.
    std::vector<std::shared_ptr<const InferenceSession::ServingState>> previous;
    previous.reserve(shards_.size());
    for (const auto& shard : shards_) previous.push_back(shard->serving_state());
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        try {
            // Per-shard copy: each shard validates independently and builds
            // its own serving state, exactly as at construction.
            shards_[s]->swap_bundle(snapshot);
        } catch (const Error& error) {
            for (std::size_t r = 0; r < s; ++r) {
                shards_[r]->install_serving_state_(previous[r]);
            }
            throw RotationError("ShardRouter::swap_all: shard " + std::to_string(s) +
                                " refused the swap; rolled " + std::to_string(s) +
                                " shard(s) back to epoch " +
                                std::to_string(previous.empty() ? 0 : previous[0]->epoch) +
                                ": " + error.what());
        }
    }
    return snapshot.epoch;
}

std::size_t ShardRouter::inflight_rows() const noexcept {
    std::size_t total = 0;
    for (const auto& shard : shards_) total += shard->inflight_rows();
    return total;
}

std::future<Response> ShardRouter::submit(Request request) const {
    const std::size_t rows = request.rows.rows();
    // Admission first, placement second: an overloaded fleet refuses in
    // O(shards) without touching any queue.  priority > 0 rides through up
    // to the configured headroom multiple of the watermark.
    const double headroom = std::max(options_.priority_headroom, 1.0);
    const std::size_t limit =
        request.priority > 0
            ? static_cast<std::size_t>(static_cast<double>(watermark_) * headroom)
            : watermark_;
    if (rows > 0 && inflight_rows() + rows > limit) {
        shed_.fetch_add(1, std::memory_order_relaxed);
        Response response;
        response.status = Status::overloaded;
        return resolved_response(std::move(response));
    }
    const std::uint32_t shard = pick_shard_(request.shard_key);
    accepted_.fetch_add(1, std::memory_order_relaxed);
    routed_[shard].fetch_add(1, std::memory_order_relaxed);
    // Non-blocking on the shard too: a full shard queue resolves as
    // overloaded rather than stalling the router's caller.
    return shards_[shard]->try_predict_async(std::move(request), shard);
}

std::vector<int> ShardRouter::predict(const util::Matrix<float>& rows) const {
    return shards_[pick_shard_(std::nullopt)]->predict(rows);
}

int ShardRouter::predict_row(std::span<const float> row) const {
    return shards_[pick_shard_(std::nullopt)]->predict_row(row);
}

RouterStats ShardRouter::stats() const {
    RouterStats stats;
    stats.accepted = accepted_.load(std::memory_order_relaxed);
    stats.shed = shed_.load(std::memory_order_relaxed);
    stats.inflight_rows = inflight_rows();
    stats.routed_per_shard.reserve(routed_.size());
    for (const auto& count : routed_) {
        stats.routed_per_shard.push_back(count.load(std::memory_order_relaxed));
    }
    return stats;
}

}  // namespace hdlock::api
