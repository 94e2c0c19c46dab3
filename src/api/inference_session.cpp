#include "api/inference_session.hpp"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/fault_inject.hpp"
#include "util/kernels.hpp"
#include "util/sync.hpp"
#include "util/thread_pool.hpp"

namespace hdlock::api {

// ---------------------------------------------------------------------------
// SubmitQueue
// ---------------------------------------------------------------------------

SubmitQueue::SubmitQueue(std::size_t max_rows) : max_rows_(std::max<std::size_t>(max_rows, 1)) {}

void SubmitQueue::push(AsyncRequest request) {
    const std::size_t rows = request.rows.rows();
    const util::MutexLock lock(mutex_);
    // An oversized request is admitted once the queue is empty — it could
    // never satisfy the cap, and the dispatcher takes whole requests, so
    // admitting it alone keeps FIFO order and bounds.
    while (!closed_ && queued_rows_ + rows > max_rows_ && !requests_.empty()) {
        not_full_.wait(mutex_);
    }
    if (closed_) throw ShutdownError("SubmitQueue: session is shutting down");
    queued_rows_ += rows;
    requests_.push_back(std::move(request));
    not_empty_.notify_one();
}

Status SubmitQueue::try_submit(AsyncRequest&& request) {
    const std::size_t rows = request.rows.rows();
    const util::MutexLock lock(mutex_);
    if (closed_) throw ShutdownError("SubmitQueue: session is shutting down");
    // Same admission rule as push() (oversized requests go in alone once
    // the queue is empty), but a full queue refuses instead of blocking —
    // the request is left untouched for the caller to resolve as shed.
    if (queued_rows_ + rows > max_rows_ && !requests_.empty()) return Status::overloaded;
    queued_rows_ += rows;
    requests_.push_back(std::move(request));
    not_empty_.notify_one();
    return Status::ok;
}

std::vector<AsyncRequest> SubmitQueue::pop_batch(std::size_t max_batch) {
    max_batch = std::max<std::size_t>(max_batch, 1);
    const util::MutexLock lock(mutex_);
    while (!closed_ && requests_.empty()) not_empty_.wait(mutex_);
    if (requests_.empty()) return {};  // closed and drained

    std::vector<AsyncRequest> batch;
    std::size_t rows = 0;
    while (!requests_.empty()) {
        const std::size_t next = requests_.front().rows.rows();
        if (!batch.empty() && rows + next > max_batch) break;
        rows += next;
        queued_rows_ -= next;
        batch.push_back(std::move(requests_.front()));
        requests_.pop_front();
        if (rows >= max_batch) break;
    }
    not_full_.notify_all();
    return batch;
}

void SubmitQueue::close() {
    {
        const util::MutexLock lock(mutex_);
        closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
}

bool SubmitQueue::closed() const {
    const util::MutexLock lock(mutex_);
    return closed_;
}

std::size_t SubmitQueue::queued_rows() const {
    const util::MutexLock lock(mutex_);
    return queued_rows_;
}

// ---------------------------------------------------------------------------
// Internal runtime state
// ---------------------------------------------------------------------------

/// Per-worker pinned buffers: reused across every batch the session serves,
/// so the steady-state row performs zero heap allocations.
struct InferenceSession::WorkerState {
    hdc::EncoderScratch scratch;
    hdc::IntHV sums;
    hdc::BinaryHV query;
    std::uint64_t epoch = 0;
    bool primed = false;

    /// Lazy epoch invalidation: the first row a worker serves on a new
    /// epoch drops buffers sized for the old epoch's shapes and starts
    /// fresh.  Workers the new epoch never touches keep their old scratch
    /// (harmless — it is plain capacity) until they next serve.
    void refresh(std::uint64_t serving_epoch) {
        if (primed && epoch == serving_epoch) return;
        scratch = hdc::EncoderScratch{};
        sums = hdc::IntHV{};
        query = hdc::BinaryHV{};
        epoch = serving_epoch;
        primed = true;
    }
};

/// Everything mutable behind the serving fast path, kept behind one stable
/// pointer: the persistent pool with its slot-pinned scratch, the caller
/// free-list, and the lazily-started async core.  Distinct from the RCU'd
/// ServingState: the runtime (threads, scratch) survives epoch swaps; the
/// serving state (encoder/model) is what swaps.
struct InferenceSession::Runtime {
    /// Free-list of WorkerStates for the inline paths (predict_row, small
    /// batches) where the caller thread does the work itself: concurrent
    /// callers each lease their own scratch for one mutex handoff — far
    /// cheaper than the per-call allocations the old cold path made.
    class ScratchFreeList {
    public:
        std::unique_ptr<WorkerState> acquire() HDLOCK_EXCLUDES(mutex_) {
            {
                const util::MutexLock lock(mutex_);
                if (!free_.empty()) {
                    auto state = std::move(free_.back());
                    free_.pop_back();
                    return state;
                }
            }
            return std::make_unique<WorkerState>();
        }

        void release(std::unique_ptr<WorkerState> state) HDLOCK_EXCLUDES(mutex_) {
            const util::MutexLock lock(mutex_);
            free_.push_back(std::move(state));
        }

    private:
        util::Mutex mutex_;
        std::vector<std::unique_ptr<WorkerState>> free_ HDLOCK_GUARDED_BY(mutex_);
    };

    class ScratchLease {
    public:
        explicit ScratchLease(ScratchFreeList& list) : list_(list), state_(list.acquire()) {}
        ~ScratchLease() { list_.release(std::move(state_)); }
        ScratchLease(const ScratchLease&) = delete;
        ScratchLease& operator=(const ScratchLease&) = delete;

        WorkerState& operator*() noexcept { return *state_; }

    private:
        ScratchFreeList& list_;
        std::unique_ptr<WorkerState> state_;
    };

    // Pool first / async last: the async dispatcher drives batches through
    // the pool, so reverse destruction order shuts the dispatcher down
    // before the workers go away.
    std::unique_ptr<util::ThreadPool> pool;
    std::vector<std::unique_ptr<WorkerState>> slots;  // indexed by pool slot ID
    ScratchFreeList caller_scratch;

    struct AsyncCore {
        const InferenceSession* session;
        SubmitQueue queue;
        util::Thread dispatcher;

        AsyncCore(const InferenceSession* owner, std::size_t max_rows)
            : session(owner), queue(max_rows) {
            dispatcher = util::Thread([this] { run(); });
        }

        ~AsyncCore() {
            queue.close();
            dispatcher.join();
        }

        void run() {
            for (;;) {
                std::vector<AsyncRequest> batch = queue.pop_batch(session->max_batch_);
                if (batch.empty()) return;  // closed and drained
                if (queue.closed()) {
                    // Shutdown leftovers: the session is being destroyed, so
                    // serving now would race teardown.  Fail every queued
                    // future with a typed broken-promise error instead of
                    // hanging or abandoning it.
                    fail_shutdown(batch);
                    continue;
                }
                serve(batch);
            }
        }

        void fail_shutdown(std::vector<AsyncRequest>& batch) {
            for (auto& request : batch) {
                resolve_error(request,
                              std::make_exception_ptr(ShutdownError(
                                  "InferenceSession: destroyed with queued predict_async "
                                  "work; the request was never served")));
            }
        }

        /// Settles the in-flight accounting for a request.  resolve and
        /// resolve_error call it *before* resolving the promise, so a caller
        /// that has observed the response also observes the decremented
        /// counter (the router's watermark and tests rely on that ordering).
        void finish(const AsyncRequest& request) {
            session->inflight_rows_.fetch_sub(static_cast<std::int64_t>(request.rows.rows()),
                                              std::memory_order_relaxed);
        }

        void resolve(AsyncRequest& request, Status status, std::vector<int> labels,
                     util::SteadyTime now, std::uint64_t epoch) {
            finish(request);
            Response response;
            response.labels = std::move(labels);
            response.status = status;
            response.shard_id = request.shard_id;
            response.epoch = epoch;
            response.queue_time = std::chrono::duration_cast<std::chrono::nanoseconds>(
                now - request.enqueued_at);
            request.promise.set_value(std::move(response));
        }

        void resolve_error(AsyncRequest& request, std::exception_ptr error) {
            finish(request);
            request.promise.set_exception(std::move(error));
        }

        void serve_one(AsyncRequest& request, util::SteadyTime now, const ServingState& state) {
            try {
                resolve(request, Status::ok, session->predict_with_(state, request.rows), now,
                        state.epoch);
            } catch (...) {
                resolve_error(request, std::current_exception());
            }
        }

        void serve(std::vector<AsyncRequest>& batch) {
            // One snapshot per dispatched batch: every request in the batch
            // is served — and its Response::epoch stamped — by the same
            // epoch, even when swap_bundle() installs a new one mid-batch.
            // The snapshot pins the epoch's state (mmap included) until the
            // batch resolves.
            const std::shared_ptr<const ServingState> state = session->serving_state();
            // Pre-encode drop: cancelled or expired requests resolve here,
            // before any discretize/encode work is spent on rows whose
            // answer nobody is waiting for.
            const util::SteadyTime now = util::steady_now();
            std::vector<AsyncRequest> live;
            live.reserve(batch.size());
            for (auto& request : batch) {
                if (request.cancel.cancelled()) {
                    resolve(request, Status::cancelled, {}, now, state->epoch);
                } else if (request.deadline.expired_at(now)) {
                    resolve(request, Status::deadline_exceeded, {}, now, state->epoch);
                } else {
                    live.push_back(std::move(request));
                }
            }
            if (live.empty()) return;
            if (live.size() == 1) {
                serve_one(live.front(), now, *state);
                return;
            }
            std::size_t resolved = 0;
            try {
                // Fuse the micro-batch into one matrix so dispatch, scratch
                // reuse and worker fan-out amortise across every caller.
                std::size_t total = 0;
                for (const auto& request : live) total += request.rows.rows();
                util::Matrix<float> fused(total, state->encoder->n_features());
                const std::span<float> fused_values = fused.data();
                std::size_t at = 0;
                for (const auto& request : live) {
                    const auto source = request.rows.data();
                    std::copy(source.begin(), source.end(),
                              fused_values.begin() +
                                  static_cast<std::ptrdiff_t>(at * fused.cols()));
                    at += request.rows.rows();
                }
                const std::vector<int> labels = session->predict_with_(*state, fused);
                at = 0;
                for (auto& request : live) {
                    const auto first = labels.begin() + static_cast<std::ptrdiff_t>(at);
                    const auto rows = static_cast<std::ptrdiff_t>(request.rows.rows());
                    resolve(request, Status::ok, std::vector<int>(first, first + rows), now,
                            state->epoch);
                    ++resolved;
                    at += request.rows.rows();
                }
            } catch (...) {
                // Failure scoping: a fused batch mixes independent callers,
                // so one poisoned request must not fail its peers.  Retry
                // each not-yet-resolved request individually — the failure
                // lands only on whichever request reproduces it, and the
                // innocent ones pay a re-encode (the cheap side of the
                // trade).
                for (std::size_t r = resolved; r < live.size(); ++r) {
                    serve_one(live[r], now, *state);
                }
            }
        }
    };

    // `async` is set exactly once (first predict_async call) and never
    // reset; the guard makes the lazy start race-free and lets the move
    // constructor re-point a live dispatcher safely.
    util::Mutex async_init;
    std::unique_ptr<AsyncCore> async HDLOCK_GUARDED_BY(async_init);
};

// ---------------------------------------------------------------------------
// InferenceSession
// ---------------------------------------------------------------------------

InferenceSession::InferenceSession(std::shared_ptr<const hdc::Encoder> encoder,
                                   hdc::MinMaxDiscretizer discretizer, hdc::HdcModel model,
                                   SessionOptions options)
    : min_rows_per_thread_(std::max<std::size_t>(options.min_rows_per_thread, 1)),
      max_batch_(std::max<std::size_t>(options.max_batch, 1)),
      max_queue_rows_(std::max<std::size_t>(options.max_queue_rows, 1)),
      runtime_(std::make_unique<Runtime>()) {
    n_threads_ = options.n_threads != 0 ? options.n_threads : util::hardware_concurrency();
    install_serving_state_(build_serving_state_(options.epoch, std::move(encoder),
                                                std::move(discretizer), std::move(model),
                                                nullptr));
    if (n_threads_ > 1) {
        runtime_->pool = std::make_unique<util::ThreadPool>(n_threads_);
        runtime_->slots.reserve(n_threads_);
        for (std::size_t slot = 0; slot < n_threads_; ++slot) {
            runtime_->slots.push_back(std::make_unique<WorkerState>());
        }
    }
}

InferenceSession::InferenceSession(InferenceSession&& other) noexcept
    : n_threads_(other.n_threads_),
      min_rows_per_thread_(other.min_rows_per_thread_),
      max_batch_(other.max_batch_),
      max_queue_rows_(other.max_queue_rows_),
      serving_(other.serving_state()),
      runtime_(std::move(other.runtime_)),
      rows_served_(other.rows_served_.load()),
      inflight_rows_(other.inflight_rows_.load()) {
    // Re-point a (contract-violating but easy to be robust about) live
    // dispatcher at the new address; legal moves happen before serving.
    if (runtime_ != nullptr) {
        const util::MutexLock lock(runtime_->async_init);
        if (runtime_->async != nullptr) runtime_->async->session = this;
    }
}

InferenceSession::~InferenceSession() = default;

std::shared_ptr<const InferenceSession::ServingState> InferenceSession::build_serving_state_(
    std::uint64_t epoch, std::shared_ptr<const hdc::Encoder> encoder,
    hdc::MinMaxDiscretizer discretizer, hdc::HdcModel model,
    std::shared_ptr<const void> backing) const {
    HDLOCK_EXPECTS(encoder != nullptr, "InferenceSession: null encoder");
    HDLOCK_EXPECTS(model.n_classes() > 0, "InferenceSession: untrained model");
    HDLOCK_EXPECTS(model.dim() == encoder->dim(),
                   "InferenceSession: model dimensionality does not match encoder");
    HDLOCK_EXPECTS(discretizer.n_levels() == encoder->n_levels(),
                   "InferenceSession: discretizer levels do not match encoder");
    auto state = std::make_shared<ServingState>();
    state->epoch = epoch;
    state->encoder = std::move(encoder);
    state->discretizer = std::move(discretizer);
    state->model = std::move(model);
    state->backing = std::move(backing);
    state->fused_predict = state->model.kind() == hdc::ModelKind::binary &&
                           state->encoder->n_features() <= util::kernels::kMaxFusedRows;
    return state;
}

std::uint64_t InferenceSession::swap_bundle(BundleSnapshot snapshot) const {
    const std::uint64_t epoch = snapshot.epoch;
    const std::shared_ptr<const ServingState> current = serving_state();
    // Validate before touching anything: every refusal below leaves the
    // current epoch serving exactly as it was.
    if (snapshot.encoder == nullptr) {
        throw RotationError("swap_bundle: snapshot has no encoder; epoch " +
                            std::to_string(current->epoch) + " keeps serving");
    }
    if (!snapshot.discretizer.has_value() || !snapshot.model.has_value()) {
        throw RotationError(
            "swap_bundle: snapshot cannot serve (no discretizer/model); epoch " +
            std::to_string(current->epoch) + " keeps serving");
    }
    if (snapshot.encoder->n_features() != current->encoder->n_features()) {
        throw RotationError("swap_bundle: snapshot has " +
                            std::to_string(snapshot.encoder->n_features()) +
                            " features but epoch " + std::to_string(current->epoch) +
                            " serves " + std::to_string(current->encoder->n_features()) +
                            "; queued requests would be torn — old epoch keeps serving");
    }
    std::shared_ptr<const ServingState> next;
    try {
        next = build_serving_state_(epoch, std::move(snapshot.encoder),
                                    std::move(*snapshot.discretizer),
                                    std::move(*snapshot.model), std::move(snapshot.backing));
    } catch (const Error& error) {
        throw RotationError("swap_bundle: validation failed; epoch " +
                            std::to_string(current->epoch) +
                            " keeps serving: " + error.what());
    }
    if (util::fault::should_fail(util::fault::kSwapValidate)) {
        throw RotationError("swap_bundle: fault-injected validation failure; epoch " +
                            std::to_string(current->epoch) + " keeps serving");
    }
    // The RCU install: one pointer swap under the cell's lock.  Readers
    // that already snapshotted finish on the old state (their shared_ptr
    // pins it, and through it the old mmap); the state frees itself after
    // the last reader drops it.
    install_serving_state_(std::move(next));
    return epoch;
}

std::size_t planned_workers(std::size_t n_rows, std::size_t n_threads,
                            std::size_t min_rows_per_thread) noexcept {
    min_rows_per_thread = std::max<std::size_t>(min_rows_per_thread, 1);
    const std::size_t workers =
        std::min(n_threads, std::max<std::size_t>(n_rows / min_rows_per_thread, 1));
    if (workers <= 1) return 1;
    // Re-derive the fan-out from the chunk size: with chunk =
    // ceil(n/workers), only ceil(n/chunk) workers receive a non-empty
    // [begin, end) range — the remainder would start past the last row.
    const std::size_t chunk = (n_rows + workers - 1) / workers;
    return (n_rows + chunk - 1) / chunk;
}

int InferenceSession::predict_one_(const ServingState& state, std::span<const float> row,
                                   WorkerState& worker) const {
    const bool binary = state.model.kind() == hdc::ModelKind::binary;
    std::vector<int>& levels = worker.scratch.levels(state.encoder->n_features());
    state.discretizer.transform_row(row, levels);
    if (binary) {
        if (state.fused_predict) {
            // Fused encode→distance: one kernel pass scores every class
            // while the count planes are register/L1-resident; the query
            // hypervector never exists.  Bit-identical labels to the
            // two-step path below on every backend.
            return state.model.predict_fused(*state.encoder, levels, worker.scratch);
        }
        // Two-step: only past the fused kernel's row cap (kMaxFusedRows).
        state.encoder->encode_binary_into(levels, worker.scratch, worker.query);
        return state.model.predict(worker.query);
    }
    state.encoder->encode_into(levels, worker.scratch, worker.sums);
    return state.model.predict(worker.sums);
}

void InferenceSession::predict_range_(const ServingState& state, const util::Matrix<float>& rows,
                                      std::size_t begin, std::size_t end, std::span<int> out,
                                      WorkerState& worker) const {
    worker.refresh(state.epoch);  // first touch of a new epoch rebuilds scratch
    for (std::size_t r = begin; r < end; ++r) out[r] = predict_one_(state, rows.row(r), worker);
}

void InferenceSession::predict_into_(const ServingState& state, const util::Matrix<float>& rows,
                                     std::span<int> out) const {
    const std::size_t n = rows.rows();
    const std::size_t workers = planned_workers(n, n_threads_, min_rows_per_thread_);

    if (workers <= 1) {
        // Single-worker fast path: no dispatch at all, just a leased scratch
        // on the calling thread (concurrent callers each lease their own).
        Runtime::ScratchLease lease(runtime_->caller_scratch);
        predict_range_(state, rows, 0, n, out, *lease);
        return;
    }

    // workers > 1 implies n_threads_ > 1, so the pool exists.
    util::parallel_for(*runtime_->pool, n, workers,
                       [&](std::size_t begin, std::size_t end, std::size_t slot) {
                           predict_range_(state, rows, begin, end, out, *runtime_->slots[slot]);
                       });
}

std::vector<int> InferenceSession::predict_with_(const ServingState& state,
                                                 const util::Matrix<float>& rows) const {
    if (rows.rows() == 0) return {};
    HDLOCK_EXPECTS(rows.cols() == state.encoder->n_features(),
                   "InferenceSession::predict: batch has wrong feature count");
    std::vector<int> out(rows.rows());
    predict_into_(state, rows, out);
    rows_served_.fetch_add(rows.rows(), std::memory_order_relaxed);
    return out;
}

std::vector<int> InferenceSession::predict(const util::Matrix<float>& rows) const {
    // One snapshot per call: the whole batch — including its worker fan-out
    // — serves a single epoch even if swap_bundle() lands mid-batch.
    const std::shared_ptr<const ServingState> state = serving_state();
    return predict_with_(*state, rows);
}

std::future<Response> InferenceSession::predict_async(Request request,
                                                      std::uint32_t shard_id) const {
    return submit_async_(std::move(request), shard_id, /*blocking=*/true);
}

std::future<Response> InferenceSession::try_predict_async(Request request,
                                                          std::uint32_t shard_id) const {
    return submit_async_(std::move(request), shard_id, /*blocking=*/false);
}

std::future<Response> InferenceSession::submit_async_(Request request, std::uint32_t shard_id,
                                                      bool blocking) const {
    if (request.rows.rows() != 0) {
        HDLOCK_EXPECTS(request.rows.cols() == n_features(),
                       "InferenceSession::predict_async: request has wrong feature count");
    }
    // Outcomes decidable at submit time resolve immediately — an empty
    // batch, a withdrawn request, or one whose budget is already spent
    // never touches the queue.
    Response early;
    early.shard_id = shard_id;
    if (request.rows.rows() == 0) return resolved_response(std::move(early));
    if (request.cancel.cancelled()) {
        early.status = Status::cancelled;
        return resolved_response(std::move(early));
    }
    if (request.deadline.expired()) {
        early.status = Status::deadline_exceeded;
        return resolved_response(std::move(early));
    }

    Runtime::AsyncCore* core = nullptr;
    {
        const util::MutexLock lock(runtime_->async_init);
        if (runtime_->async == nullptr) {
            runtime_->async = std::make_unique<Runtime::AsyncCore>(this, max_queue_rows_);
        }
        core = runtime_->async.get();
    }

    const std::int64_t n = static_cast<std::int64_t>(request.rows.rows());
    AsyncRequest queued{.rows = std::move(request.rows),
                        .deadline = request.deadline,
                        .cancel = std::move(request.cancel),
                        .shard_id = shard_id,
                        .enqueued_at = util::steady_now()};
    std::future<Response> future = queued.promise.get_future();
    inflight_rows_.fetch_add(n, std::memory_order_relaxed);
    Status admitted = Status::ok;
    try {
        if (blocking) {
            core->queue.push(std::move(queued));
        } else {
            admitted = core->queue.try_submit(std::move(queued));
        }
    } catch (...) {
        inflight_rows_.fetch_sub(n, std::memory_order_relaxed);
        throw;
    }
    if (admitted == Status::overloaded) {
        // try_submit refused without consuming the request, so its promise
        // is still ours to resolve with the shed outcome.
        inflight_rows_.fetch_sub(n, std::memory_order_relaxed);
        Response shed;
        shed.status = Status::overloaded;
        shed.shard_id = shard_id;
        queued.promise.set_value(std::move(shed));
    }
    return future;
}

double InferenceSession::evaluate(const data::Dataset& dataset) const {
    dataset.validate();
    if (dataset.n_samples() == 0) return 0.0;
    const auto predictions = predict(dataset.X);
    std::size_t correct = 0;
    for (std::size_t s = 0; s < dataset.n_samples(); ++s) {
        correct += predictions[s] == dataset.y[s] ? 1u : 0u;
    }
    return static_cast<double>(correct) / static_cast<double>(dataset.n_samples());
}

int InferenceSession::predict_row(std::span<const float> row) const {
    const std::shared_ptr<const ServingState> state = serving_state();
    HDLOCK_EXPECTS(row.size() == state->encoder->n_features(),
                   "InferenceSession::predict_row: wrong feature count");
    Runtime::ScratchLease lease(runtime_->caller_scratch);
    (*lease).refresh(state->epoch);
    const int label = predict_one_(*state, row, *lease);
    rows_served_.fetch_add(1, std::memory_order_relaxed);
    return label;
}

}  // namespace hdlock::api
