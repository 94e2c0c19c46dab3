#pragma once

// A test encoder that steers the async dispatcher without a timing window.
// It is bit-identical to a RecordEncoder over the same ItemMemory and tie
// seed, but it holds its first encode call until the test releases it, and
// it throws on a chosen set of encode calls.
//
// The shared kernel reads feature_hv_array() exactly once per row encode,
// so with a single-threaded session the call counter enumerates encoded
// rows in dispatch order.  Holding call 0 keeps the dispatcher busy inside
// request 0 while the test queues more requests behind it; those form the
// dispatcher's next batch, because it takes whatever is queued once free.
// Fit the model with a plain RecordEncoder over the same memory: training
// through this one would hold on its first encode.

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "hdc/encoder.hpp"
#include "hdc/item_memory.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace hdlock::fixtures {

class HeldEncoder final : public hdc::Encoder {
public:
    /// Encode calls whose index is in `fail_on` throw std::runtime_error.
    HeldEncoder(std::shared_ptr<const hdc::ItemMemory> memory, std::uint64_t tie_seed,
                std::vector<int> fail_on = {})
        : Encoder(tie_seed), memory_(std::move(memory)), fail_on_(std::move(fail_on)) {}

    std::size_t dim() const override { return memory_->dim(); }
    std::size_t n_features() const override { return memory_->n_features(); }
    std::size_t n_levels() const override { return memory_->n_levels(); }

    /// Blocks until encode call 0 has started and is being held.
    void wait_until_held() const HDLOCK_EXCLUDES(mutex_) {
        const util::MutexLock lock(mutex_);
        while (!held_) changed_.wait(mutex_);
    }

    /// Lets the held call, and every later one, run.
    void release() HDLOCK_EXCLUDES(mutex_) {
        {
            const util::MutexLock lock(mutex_);
            released_ = true;
        }
        changed_.notify_all();
    }

protected:
    std::span<const hdc::BinaryHV> feature_hv_array() const override {
        const int index = calls_.fetch_add(1);
        if (index == 0) hold_();
        for (const int fail : fail_on_) {
            if (fail == index) throw std::runtime_error("poisoned encode");
        }
        return memory_->feature_hvs();
    }
    std::span<const hdc::BinaryHV> value_hv_array() const override {
        return memory_->value_hvs();
    }

private:
    void hold_() const HDLOCK_EXCLUDES(mutex_) {
        const util::MutexLock lock(mutex_);
        held_ = true;
        changed_.notify_all();
        while (!released_) changed_.wait(mutex_);
    }

    std::shared_ptr<const hdc::ItemMemory> memory_;
    std::vector<int> fail_on_;
    mutable std::atomic<int> calls_{0};
    mutable util::Mutex mutex_;
    mutable util::CondVar changed_;
    mutable bool held_ HDLOCK_GUARDED_BY(mutex_) = false;
    bool released_ HDLOCK_GUARDED_BY(mutex_) = false;
};

}  // namespace hdlock::fixtures
