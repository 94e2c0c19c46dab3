#pragma once

/// \file inference_session.hpp
/// Thread-safe batched serving over any encoder + trained model.
///
/// The repo-wide pattern used to be row-at-a-time predict_row() loops; this
/// session owns the whole discretize -> encode -> classify chain for a batch
/// and partitions it across a *persistent* util::ThreadPool it owns for its
/// lifetime.  Dispatching a batch is one lock + notify — no thread is ever
/// created on the hot path.
///
/// Scratch is pinned per pool slot: each worker keeps its own
/// hdc::EncoderScratch (levels buffer, kernel row tables, sums buffer) plus
/// reused output hypervectors across every batch the session ever serves,
/// so the steady-state row does no heap allocation and no state is shared
/// between rows.  Single-row and small-batch calls skip pool dispatch
/// entirely and run on the calling thread against a pooled caller scratch —
/// predict_row() costs one mutex handoff, not an allocation.
///
/// predict_async(Request) is the micro-batching front door: requests enter
/// a bounded SubmitQueue and a dispatcher thread serves whatever is queued
/// (up to `max_batch` rows) as one fused batch the moment it is free; what
/// arrives while it serves one batch forms the next.  So many independent
/// small callers amortise dispatch the way one big batch does, and an idle
/// session adds no wait.  Responses come back through std::future and their
/// labels are bit-identical to predict() — per-row results are a pure
/// function of the input regardless of thread count or batching (see
/// hdc::Encoder on tie breaking).
///
/// Each row takes one of three bodies, fixed per epoch by the model: binary
/// models with at most util::kernels::kMaxFusedRows features are scored by
/// the fused encode→distance kernel, larger binary models encode a query
/// hypervector and take its Hamming argmin, and non-binary models encode
/// integer sums and take the cosine argmax.  There is no switch between
/// them — fusion is a throughput choice with identical labels, and it won
/// on every backend at every paper shape measured (DESIGN.md §11).
///
/// Epochs and hot swap (DESIGN.md §12): everything a served row reads —
/// encoder, discretizer, model, fused flag, the mmap anchor — lives in one
/// immutable epoch-tagged ServingState behind a mutex-guarded shared_ptr.
/// Every predict call copies that pointer ONCE at entry, so a batch is
/// epoch-consistent even while swap_bundle() installs a rotated bundle
/// concurrently: in-flight work finishes on the old state (whose aliasing
/// anchors pin the old mmap), new work sees the new epoch, and the old state
/// frees itself when its last reader drops the snapshot.  Per-slot scratch
/// is rebuilt lazily on first touch of a new epoch.  A swap that fails
/// validation throws RotationError and leaves the old epoch serving.
///
/// The session is safe to share across caller threads, swap_bundle()
/// included: concurrent predict()/predict_async() calls only touch the
/// serving-state cell under its lock, slot-pinned or leased scratch and
/// atomic counters.  Moving a session is only legal before it starts
/// serving.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <optional>
#include <vector>

#include "api/request.hpp"
#include "data/dataset.hpp"
#include "hdc/discretize.hpp"
#include "hdc/encoder.hpp"
#include "hdc/model.hpp"
#include "util/deadline.hpp"
#include "util/matrix.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace hdlock::api {

struct SessionOptions {
    /// Worker threads for batch predict(); 0 picks the hardware concurrency.
    std::size_t n_threads = 1;
    /// Lower bound on rows per worker: a batch of R rows fans out to at
    /// most R / this workers (capped by n_threads), and when that yields a
    /// single worker the batch stays on the calling thread — dispatching a
    /// handful of rows costs more than it saves.
    std::size_t min_rows_per_thread = 16;
    /// predict_async() micro-batching: the dispatcher fuses queued requests
    /// into batches of at most this many rows.
    std::size_t max_batch = 256;
    /// Row capacity of the bounded submit queue; predict_async() blocks
    /// (backpressure) while the queue is full.
    std::size_t max_queue_rows = 8192;
    /// Epoch stamp of the initial serving state.  Bundle-derived factories
    /// (api::Device, api::Owner) pass the bundle's epoch; hand-built
    /// sessions start at 0.  Response::epoch reports the epoch that served.
    std::uint64_t epoch = 0;
};

/// The serving-facing contents of one epoch of a deployment bundle,
/// decoupled from DeploymentBundle itself so the device serving layer never
/// includes the owner-side bundle header (DeploymentBundle::make_snapshot()
/// and api::Owner/Device build these).  `backing` pins the mmap for
/// zero-copy bundles; null for owned state.
struct BundleSnapshot {
    std::uint64_t epoch = 0;
    std::shared_ptr<const hdc::Encoder> encoder;
    std::optional<hdc::MinMaxDiscretizer> discretizer;
    std::optional<hdc::HdcModel> model;
    std::shared_ptr<const void> backing;
};

/// Number of worker threads predict() fans a batch of `n_rows` out to —
/// clamped so no worker ever receives an empty range (a fixed
/// ceil(n/workers) chunking can strand trailing workers past the end, e.g.
/// 13 rows over 6 workers -> chunk 3 -> worker 5 would start at row 15).
/// Exposed for testability.
std::size_t planned_workers(std::size_t n_rows, std::size_t n_threads,
                            std::size_t min_rows_per_thread) noexcept;

/// One queued predict_async() request: the rows, the promise its Response
/// resolves, and the deadline/cancel/enqueue metadata the dispatcher needs
/// to drop a doomed request before paying for encode.
struct AsyncRequest {
    util::Matrix<float> rows;
    std::promise<Response> promise{};
    util::Deadline deadline{};
    CancelToken cancel{};
    std::uint32_t shard_id = 0;
    util::SteadyTime enqueued_at{};
};

/// Bounded MPSC hand-off between predict_async() callers and the session's
/// dispatcher thread.  push() applies backpressure (blocks while `max_rows`
/// are queued); pop_batch() takes the queued small requests as one
/// micro-batch.  close() wakes everyone: producers get an error, the
/// consumer drains what is left and then sees "done".
///
/// Lock discipline (checked under -Wthread-safety): one mutex guards every
/// mutable field; `not_empty_` wakes the dispatcher, `not_full_` wakes
/// backpressured producers.  `max_rows_` is immutable after construction
/// and deliberately unguarded.
class SubmitQueue {
public:
    explicit SubmitQueue(std::size_t max_rows);

    /// Blocks while the queue is full.  A request larger than the whole
    /// queue is admitted alone (it could never fit otherwise).  Throws
    /// ShutdownError when the queue is closed.
    void push(AsyncRequest request) HDLOCK_EXCLUDES(mutex_);

    /// Non-blocking admission: returns Status::ok and consumes the request
    /// when it fits under the row cap (same oversized-alone rule as push),
    /// or Status::overloaded leaving `request` untouched so the caller can
    /// resolve its promise with a shed response instead of blocking.  This
    /// is the refusal path admission control needs.  Throws ShutdownError
    /// when the queue is closed.
    Status try_submit(AsyncRequest&& request) HDLOCK_EXCLUDES(mutex_);

    /// Blocks until a request arrives, then takes whole queued requests in
    /// FIFO order up to `max_batch` rows (a larger first request goes
    /// alone).  Never waits for more to arrive.  Returns an empty vector
    /// once closed and drained.
    std::vector<AsyncRequest> pop_batch(std::size_t max_batch) HDLOCK_EXCLUDES(mutex_);

    void close() HDLOCK_EXCLUDES(mutex_);

    /// True once close() has been called.  The dispatcher checks this after
    /// every pop: batches popped after close are shutdown leftovers whose
    /// futures must be *failed* (ShutdownError), not served — the session
    /// is being destroyed out from under them.
    bool closed() const HDLOCK_EXCLUDES(mutex_);

    /// Rows currently queued (for tests / introspection).
    std::size_t queued_rows() const HDLOCK_EXCLUDES(mutex_);

private:
    mutable util::Mutex mutex_;
    util::CondVar not_empty_;
    util::CondVar not_full_;
    std::deque<AsyncRequest> requests_ HDLOCK_GUARDED_BY(mutex_);
    std::size_t queued_rows_ HDLOCK_GUARDED_BY(mutex_) = 0;
    std::size_t max_rows_;
    bool closed_ HDLOCK_GUARDED_BY(mutex_) = false;
};

/// Predict-surface convention (shared by InferenceSession, Owner, Device
/// and ShardRouter — see DESIGN.md §10):
///   predict(Matrix)            -> vector<int>       synchronous batch
///   predict_row(span)          -> int               synchronous single row
///   predict_async(Request)     -> future<Response>  queued, blocks when full
///   try_predict_async(Request) -> future<Response>  queued, sheds when full
/// Inputs are spans/matrices of raw feature values; async results carry a
/// Status instead of smuggling control flow through exceptions.
class InferenceSession {
public:
    /// One immutable epoch of serving state: everything a served row reads,
    /// installed and replaced atomically as a unit (RCU).  Snapshots taken
    /// at predict entry keep an epoch (and its mmap, via the shared encoder
    /// anchors and `backing`) alive until the last in-flight batch on it
    /// finishes.
    struct ServingState {
        std::uint64_t epoch = 0;
        std::shared_ptr<const hdc::Encoder> encoder;
        hdc::MinMaxDiscretizer discretizer;
        hdc::HdcModel model;
        bool fused_predict = false;
        /// Pins the mmap behind a zero-copy bundle epoch; null when owned.
        std::shared_ptr<const void> backing;
    };

    /// The encoder is shared (it is immutable); discretizer and model are
    /// copied so the session's lifetime is independent of its maker.
    InferenceSession(std::shared_ptr<const hdc::Encoder> encoder,
                     hdc::MinMaxDiscretizer discretizer, hdc::HdcModel model,
                     SessionOptions options = {});

    /// Movable so factories can return sessions by value; moving is only
    /// legal before the session starts serving (a live dispatcher or an
    /// in-flight predict() call holds internal pointers).  Not copyable.
    InferenceSession(InferenceSession&& other) noexcept;
    ~InferenceSession();
    InferenceSession(const InferenceSession&) = delete;
    InferenceSession& operator=(const InferenceSession&) = delete;
    InferenceSession& operator=(InferenceSession&&) = delete;

    /// Predicts every row of the batch. Rows are raw feature values with
    /// exactly n_features() columns; the result is one class label per row,
    /// in row order.
    std::vector<int> predict(const util::Matrix<float>& rows) const;

    /// Async serving: queues the request for the micro-batching dispatcher
    /// and resolves a Response carrying labels plus Status.  Small
    /// concurrent requests are fused into one pooled batch; backpressure
    /// blocks the caller while `max_queue_rows` are already queued, and the
    /// first call lazily starts the dispatcher thread.  Deadline and
    /// cancellation are checked at submit and again by the dispatcher
    /// *before* encode, so a doomed request never pays for inference; an Ok
    /// response's labels are byte-identical to predict() on the same rows.
    /// A wrong feature count throws ContractViolation in the caller.
    /// Genuine internal failures surface as exceptions through the future
    /// (they are bugs, not load).  `shard_id` is stamped into
    /// Response::shard_id verbatim (the router passes the chosen shard's
    /// index; direct callers leave it 0).
    std::future<Response> predict_async(Request request, std::uint32_t shard_id = 0) const;

    /// Like predict_async(Request) but never blocks: when the submit queue
    /// is full the returned future is already resolved with
    /// Status::overloaded.  This is the admission-control entry the shard
    /// router uses.
    std::future<Response> try_predict_async(Request request, std::uint32_t shard_id = 0) const;

    /// Single-row inference: same output as predict() on a 1-row batch, but
    /// skips dispatch entirely — it runs on the calling thread against a
    /// leased scratch.
    int predict_row(std::span<const float> row) const;

    /// RCU hot swap: validates the rotated bundle's serving state (trained
    /// model, matching shapes, same feature count as the current epoch),
    /// builds the new immutable ServingState — fused path re-decided for
    /// the new model while the old epoch still serves — and swaps it into
    /// the cell under its lock.  In-flight requests finish on the old
    /// epoch's snapshot; requests submitted after the swap serve the new
    /// epoch; per-slot scratch rebuilds lazily on first touch of the new
    /// epoch.  Throws RotationError on any validation failure, leaving the
    /// old epoch serving untouched.  Returns the installed epoch.
    std::uint64_t swap_bundle(BundleSnapshot snapshot) const;

    /// The current epoch's immutable serving state (the pointer copied
    /// under the cell's lock).  The returned snapshot stays valid — old mmap
    /// included — for as long as the caller holds it, even across
    /// concurrent swaps.
    std::shared_ptr<const ServingState> serving_state() const noexcept
        HDLOCK_EXCLUDES(serving_mutex_) {
        const util::MutexLock lock(serving_mutex_);
        return serving_;
    }

    /// Epoch currently being served (new submissions land here).
    std::uint64_t epoch() const noexcept { return serving_state()->epoch; }

    /// Fraction of the labeled dataset classified correctly (batched
    /// through predict()); 0 for an empty dataset.
    double evaluate(const data::Dataset& dataset) const;

    std::size_t n_features() const noexcept { return serving_state()->encoder->n_features(); }
    std::size_t n_threads() const noexcept { return n_threads_; }
    /// True when rows are served through the fused encode→distance kernel
    /// path: the current epoch's model is binary and n_features() is at
    /// most util::kernels::kMaxFusedRows.
    bool fused_predict_active() const noexcept { return serving_state()->fused_predict; }

    /// Total rows served by this session across all predict calls (atomic;
    /// approximate ordering under concurrency).
    std::uint64_t rows_served() const noexcept { return rows_served_.load(); }

    /// Rows admitted to the async path and not yet resolved (queued or
    /// being served).  The router's least-loaded placement and watermark
    /// admission read this; approximate under concurrency.
    std::size_t inflight_rows() const noexcept {
        const std::int64_t rows = inflight_rows_.load(std::memory_order_relaxed);
        return rows > 0 ? static_cast<std::size_t>(rows) : 0;
    }

    /// Always zero: the dispatcher never holds a request to wait for more.
    /// Kept only because bench/serving samples it; it goes together with
    /// the benchmark's `api.session.coalesce_delay_us` metric in a later
    /// change to the benchmark.
    std::chrono::microseconds current_queue_delay() const noexcept {
        return std::chrono::microseconds{0};
    }

private:
    friend class ShardRouter;  // swap_all rollback re-installs captured states

    struct WorkerState;
    struct Runtime;

    /// Validates and assembles one epoch of serving state (fused path
    /// decided).  Throws ContractViolation naming the violation; swap_bundle
    /// wraps that in RotationError, the constructor lets it surface as-is.
    std::shared_ptr<const ServingState> build_serving_state_(
        std::uint64_t epoch, std::shared_ptr<const hdc::Encoder> encoder,
        hdc::MinMaxDiscretizer discretizer, hdc::HdcModel model,
        std::shared_ptr<const void> backing) const;
    /// Installs an already-built state (construction, swap_bundle and the
    /// router's rollback path).  The previous state leaves the cell under
    /// the lock but is dropped after unlocking: dropping its last reference
    /// can unmap an old epoch's file.
    void install_serving_state_(std::shared_ptr<const ServingState> state) const noexcept
        HDLOCK_EXCLUDES(serving_mutex_) {
        {
            const util::MutexLock lock(serving_mutex_);
            serving_.swap(state);
        }
        state.reset();
    }

    std::future<Response> submit_async_(Request request, std::uint32_t shard_id,
                                        bool blocking) const;
    std::vector<int> predict_with_(const ServingState& state,
                                   const util::Matrix<float>& rows) const;
    void predict_into_(const ServingState& state, const util::Matrix<float>& rows,
                       std::span<int> out) const;
    /// The one serving inner body (discretize -> encode -> classify) every
    /// path funnels through — predict_range_ per batch row, predict_row via
    /// a leased scratch — so they cannot diverge.
    int predict_one_(const ServingState& state, std::span<const float> row,
                     WorkerState& worker) const;
    void predict_range_(const ServingState& state, const util::Matrix<float>& rows,
                        std::size_t begin, std::size_t end, std::span<int> out,
                        WorkerState& worker) const;

    std::size_t n_threads_ = 1;
    std::size_t min_rows_per_thread_ = 16;
    std::size_t max_batch_ = 256;
    std::size_t max_queue_rows_ = 8192;
    /// The RCU cell: the current epoch's immutable serving state.  Readers
    /// copy the pointer once per predict call; installs swap it.
    mutable util::Mutex serving_mutex_;
    mutable std::shared_ptr<const ServingState> serving_ HDLOCK_GUARDED_BY(serving_mutex_);
    /// Pool, slot-pinned worker scratch, leased caller scratch and the lazy
    /// async core live behind one stable pointer so moves stay cheap.
    mutable std::unique_ptr<Runtime> runtime_;
    mutable std::atomic<std::uint64_t> rows_served_{0};
    mutable std::atomic<std::int64_t> inflight_rows_{0};
};

}  // namespace hdlock::api
