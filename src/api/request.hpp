#pragma once

/// \file request.hpp
/// Typed request/response surface for the serving tier — the one async
/// contract the router and session share:
///
///   Request  — rows plus serving metadata (deadline, priority, placement
///              key, cancellation token).
///   Response — labels plus a Status and serving telemetry (which shard,
///              how long the request sat queued).
///
/// A bare future of labels could express neither a latency budget nor a
/// withdrawn request.  Status covers the *control-flow* outcomes of serving
/// — the request was served, timed out, shed, or cancelled; these are
/// expected operating states, not errors, and resolving them through a
/// value keeps the hot path exception-free.  Genuine internal failures
/// (contract violations, encoder faults) still propagate as exceptions
/// through the future; they indicate a bug, not load.
///
/// Determinism: labels in an Ok response are a pure function of the rows —
/// identical across shard counts, placement policies, and thread counts.
/// Deadlines/priority/keys decide only *whether and where* a request is
/// served.  `queue_time` is wall-clock telemetry and is the one
/// nondeterministic field; eval scenarios must keep anything derived from
/// it under the reserved "timing" metrics key.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "util/deadline.hpp"
#include "util/matrix.hpp"

namespace hdlock::api {

/// Control-flow outcome of one served request.
enum class Status : std::uint8_t {
    /// Served; `labels` holds one class label per input row.
    ok = 0,
    /// The deadline passed before the dispatcher reached the request; it
    /// was dropped before encode and `labels` is empty.
    deadline_exceeded = 1,
    /// Refused at admission (router watermark or full submit queue);
    /// `labels` is empty.  Retry later or shed load upstream.
    overloaded = 2,
    /// The caller's CancelSource fired before dispatch; `labels` is empty.
    cancelled = 3,
};

constexpr const char* status_name(Status status) noexcept {
    switch (status) {
        case Status::ok: return "ok";
        case Status::deadline_exceeded: return "deadline_exceeded";
        case Status::overloaded: return "overloaded";
        case Status::cancelled: return "cancelled";
    }
    return "unknown";
}

/// Caller-held view of a cancellation flag.  Default-constructed tokens can
/// never fire; tokens minted by a CancelSource observe it.  Copyable and
/// safe to read from any thread.
class CancelToken {
public:
    CancelToken() noexcept = default;

    bool cancelled() const noexcept {
        return flag_ != nullptr && flag_->load(std::memory_order_acquire);
    }

private:
    friend class CancelSource;
    explicit CancelToken(std::shared_ptr<const std::atomic<bool>> flag) noexcept
        : flag_(std::move(flag)) {}

    std::shared_ptr<const std::atomic<bool>> flag_;
};

/// Owner side of a cancellation flag: hand token() to a Request, call
/// request_cancel() to withdraw it.  Cancellation is checked at submit and
/// again by the dispatcher before encode — a request already being served
/// completes normally (cancellation is advisory, like deadlines).
class CancelSource {
public:
    CancelSource() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

    CancelToken token() const noexcept { return CancelToken(flag_); }

    void request_cancel() noexcept { flag_->store(true, std::memory_order_release); }

    bool cancel_requested() const noexcept { return flag_->load(std::memory_order_acquire); }

private:
    std::shared_ptr<std::atomic<bool>> flag_;
};

/// One serving request: the rows to classify plus serving metadata.  Only
/// `rows` affects the labels; everything else shapes admission, placement
/// and latency.
struct Request {
    /// Feature rows to classify (exactly n_features() columns).
    util::Matrix<float> rows;
    /// Drop the request (Status::deadline_exceeded) if the dispatcher has
    /// not reached it by this point.  Defaults to never.
    util::Deadline deadline{};
    /// Admission-control priority.  Requests with priority > 0 ride through
    /// the router's shed watermark up to its configured headroom; 0 (the
    /// default) and below shed first.  Does not reorder the queue.
    std::int32_t priority = 0;
    /// Optional placement key for consistent-hash routing: equal keys land
    /// on the same shard (session-affinity / cache-warmth).  Ignored by the
    /// other placement policies; absent keys fall back to round-robin.
    std::optional<std::uint64_t> shard_key;
    /// Cancellation token; default-constructed tokens never fire.
    CancelToken cancel{};
};

/// The resolved outcome of a Request.
struct Response {
    /// One label per input row when status == ok; empty otherwise.
    std::vector<int> labels;
    Status status = Status::ok;
    /// Which shard served (router) or 0 when submitted straight to a
    /// session.
    std::uint32_t shard_id = 0;
    /// Bundle epoch of the serving state that resolved this request (see
    /// InferenceSession::swap_bundle).  During a hot swap, concurrent
    /// responses may carry either the old or the new epoch; labels are
    /// always consistent with the stamped epoch's model.  0 for outcomes
    /// decided at submit time (shed/expired/cancelled before enqueue).
    std::uint64_t epoch = 0;
    /// Time the request sat between submit and dispatch.  Wall-clock
    /// telemetry: report it only under timing-stripped metrics.
    std::chrono::nanoseconds queue_time{0};

    bool ok() const noexcept { return status == Status::ok; }
};

/// A future already resolved with `response` — for outcomes decided at
/// submit time (shed at admission, expired or cancelled before enqueue).
inline std::future<Response> resolved_response(Response response) {
    std::promise<Response> promise;
    promise.set_value(std::move(response));
    return promise.get_future();
}

}  // namespace hdlock::api
