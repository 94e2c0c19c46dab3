#pragma once

/// \file ledger.hpp
/// Measurement plumbing for the serving benchmark (serving_bench.cpp): the
/// table of every metric it prints, order statistics, the in-memory span
/// recorder a traced run uses, the host/build fingerprint, and JSON output.
///
/// Spans are recorded by the benchmark around its own calls into each
/// layer's public functions — the library itself is not instrumented.  Each
/// recording thread owns one Recorder and appends without locking; the
/// spans are read only after every recording thread has been joined, and
/// written out once when the run ends.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/deadline.hpp"
#include "util/kernels.hpp"
#include "util/sync.hpp"

namespace hdlock::bench::serving {

// ---------------------------------------------------------------------------
// Metric table
// ---------------------------------------------------------------------------

/// Which run prints a metric: end-to-end metrics come from the untraced run
/// (--trace 0), per-layer metrics from the traced run (--trace 1).
enum class Run : std::uint8_t { untraced, traced };

struct MetricSpec {
    const char* name;
    const char* unit;
    Run run;
};

/// Every metric the benchmark prints, with its unit.  BENCHMARK.json at the
/// repository root declares the same names and units (tests/selftest.py
/// checks that the two agree).
inline constexpr MetricSpec kMetrics[] = {
    {"setup_s", "s", Run::untraced},
    {"rows_per_s", "rows/s", Run::untraced},
    {"rows_per_s_1t", "rows/s", Run::untraced},
    {"p50_us", "us", Run::untraced},
    {"p99_us", "us", Run::untraced},
    {"idle_p50_us", "us", Run::untraced},
    {"idle_p99_us", "us", Run::untraced},
    {"max_rps", "1/s", Run::untraced},
    {"swap_p99_us", "us", Run::untraced},
    {"swap_ms", "ms", Run::untraced},
    {"rotate_s", "s", Run::untraced},
    {"peak_rss_mb", "MB", Run::untraced},
    {"ok_pct", "%", Run::untraced},

    {"hdc.discretize_ns_per_row", "ns", Run::traced},
    {"hdc.fused_ns_per_row", "ns", Run::traced},
    {"hdc.encode_ns_per_row", "ns", Run::traced},
    {"hdc.score_ns_per_row", "ns", Run::traced},
    {"hdc.train_s", "s", Run::traced},
    {"util.kernels.encode_gbps", "GB/s", Run::traced},
    {"util.pool.scaling", "ratio", Run::traced},
    {"api.session.ns_per_row_1t", "ns", Run::traced},
    {"api.session.overhead_ns_per_row", "ns", Run::traced},
    {"api.session.stage_share", "ratio", Run::traced},
    {"api.session.queue_us_p50", "us", Run::traced},
    {"api.session.queue_us_p99", "us", Run::traced},
    {"api.session.coalesce_delay_us", "us", Run::traced},
    {"api.session.service_us_p50", "us", Run::traced},
    {"api.session.service_us_p99", "us", Run::traced},
    {"api.session.build_ms", "ms", Run::traced},
    {"api.session.first_us", "us", Run::traced},
    {"api.router.submit_ns_p50", "ns", Run::traced},
    {"api.router.submit_ns_p99", "ns", Run::traced},
    {"api.router.shed", "count", Run::traced},
    {"api.router.route_skew", "ratio", Run::traced},
    {"api.router.inflight_rows_max", "rows", Run::traced},
    {"api.bundle.open_ms", "ms", Run::traced},
    {"api.bundle.export_ms", "ms", Run::traced},
    {"api.swap.snapshot_ms", "ms", Run::traced},
    {"api.swap.swap_all_ms", "ms", Run::traced},
    {"api.swap.window_requests", "count", Run::traced},
    {"core.rekey_ms", "ms", Run::traced},
    {"load.late_us_p99", "us", Run::traced},
    {"trace.overhead_pct", "%", Run::traced},
};

/// Measured values by metric name, printed in kMetrics order.
class Ledger {
public:
    void set(const std::string& name, double value) {
        if (!std::isfinite(value)) {
            throw std::runtime_error("metric " + name + " is not a finite number");
        }
        values_[name] = value;
    }

    double at(const std::string& name) const { return values_.at(name); }

    /// A supporting number kept in the ledger file only (sample counts,
    /// ladder rungs, per-phase lateness).
    void note(const std::string& name, double value) { notes_[name] = value; }

    /// The "metrics" object of the result line: every metric of `run`, each
    /// with its unit.  A metric the workload failed to measure is a bug in
    /// the benchmark, not a slow system, so it throws.
    std::string metrics_json(Run run) const;

    /// Writes the fingerprint, every measured value and every note.
    void write(const std::string& path, const std::string& fingerprint) const;

private:
    std::map<std::string, double> values_;
    std::map<std::string, double> notes_;
};

// ---------------------------------------------------------------------------
// Order statistics
// ---------------------------------------------------------------------------

/// The q-quantile with linear interpolation between closest ranks (the
/// numpy default); 0 for an empty sample.
inline double quantile(std::vector<double> values, double q) {
    if (values.empty()) return 0.0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

inline double median(std::vector<double> values) { return quantile(std::move(values), 0.5); }

inline double mean(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (const double value : values) sum += value;
    return sum / static_cast<double>(values.size());
}

/// The mean of the middle half of a sample (the interquartile mean); the
/// median below four values.  Like the median it ignores up to a quarter of
/// outliers on either side, but when the sample mixes two modes -- rounds
/// whose threads the host placed well or badly -- it moves with the share
/// of each mode, where the median jumps from one mode to the other.
inline double interquartile_mean(std::vector<double> values) {
    if (values.size() < 4) return median(std::move(values));
    std::sort(values.begin(), values.end());
    const std::size_t cut = values.size() / 4;
    return mean(std::vector<double>(values.begin() + static_cast<std::ptrdiff_t>(cut),
                                    values.end() - static_cast<std::ptrdiff_t>(cut)));
}

/// The q-quantile of each of the consecutive windows that a time-ordered
/// sample is cut into.  Windows hold 50 requests, or down to 20 when that
/// is what it takes to cut a small sample of slow calls into 10 windows;
/// one plain quantile below two windows' worth of samples.
inline std::vector<double> window_quantiles(const std::vector<double>& ordered, double q) {
    const std::size_t size = std::clamp<std::size_t>(ordered.size() / 10, 20, 50);
    const std::size_t windows = ordered.size() / size;
    if (windows < 2) return {quantile(ordered, q)};
    std::vector<double> per_window;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = ordered.begin() + static_cast<std::ptrdiff_t>(ordered.size() * w / windows);
        const auto end =
            ordered.begin() + static_cast<std::ptrdiff_t>(ordered.size() * (w + 1) / windows);
        per_window.push_back(quantile(std::vector<double>(begin, end), q));
    }
    return per_window;
}

/// A quantile of a time-ordered sample, made robust to host stalls: the
/// interquartile mean of its windows' quantiles, so a stall moves the
/// quantile of the window it falls in, not the result.
inline double windowed_quantile(const std::vector<double>& ordered, double q) {
    return interquartile_mean(window_quantiles(ordered, q));
}

/// Which way a figure improves.
enum class Better { lower, higher };

/// The share of a run's figures (per call, per round or per window) that
/// may be better than the reported one.
constexpr double kQuietQuantile = 0.05;

/// The quiet end of a run's figures: their 5th percentile when lower is
/// better, their 95th when higher is.  Another tenant of a shared host only
/// ever slows a window down -- on the development host the same
/// Owner::rotate took 0.30 s or 0.45 s of user CPU time, in stretches of
/// seconds to minutes -- so the quiet end tracks the code, where a median
/// tracks how long a neighbour was busy during the run.
inline double quiet_end(std::vector<double> figures, Better better) {
    return quantile(std::move(figures),
                    better == Better::lower ? kQuietQuantile : 1.0 - kQuietQuantile);
}

// ---------------------------------------------------------------------------
// Time
// ---------------------------------------------------------------------------

/// Nanoseconds since the first call in this process (the trace time base).
inline std::int64_t now_ns() {
    static const util::SteadyTime origin = util::steady_now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(util::steady_now() - origin)
        .count();
}

/// Sleeps until shortly before `due_ns`, then yields until it passes.
/// Spinning for the whole gap would take a core from the serving threads.
inline void wait_until_ns(std::int64_t due_ns) {
    constexpr std::int64_t spin_ns = 30'000;
    const std::int64_t gap = due_ns - now_ns();
    if (gap > spin_ns) {
        util::sleep_for(std::chrono::microseconds((gap - spin_ns) / 1000));
    }
    while (now_ns() < due_ns) util::yield_now();
}

inline double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// ---------------------------------------------------------------------------
// Spans
// ---------------------------------------------------------------------------

struct Span {
    const char* name = "";
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   ///< the span that caused this one; 0 for none
    std::uint64_t request = 0;  ///< shared by the spans of one request; 0 for none
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;   ///< -1 while open
};

/// One thread's span buffer.  Bounded: past `capacity` spans are counted
/// as dropped instead of growing the buffer without limit.
class Recorder {
public:
    Recorder(std::uint64_t id_base, std::size_t capacity)
        : id_base_(id_base), capacity_(capacity) {}

    /// Opens a span and returns its id (0 when the buffer is full).
    std::uint64_t open(const char* name, std::uint64_t parent = 0, std::uint64_t request = 0) {
        if (spans_.size() >= capacity_) {
            ++dropped_;
            return 0;
        }
        const std::uint64_t id = id_base_ + spans_.size() + 1;
        spans_.push_back({name, id, parent, request, now_ns(), -1});
        return id;
    }

    void close(std::uint64_t id) {
        if (id != 0) spans_[id - id_base_ - 1].end_ns = now_ns();
    }

    /// Records an already-timed span (times from now_ns()).
    std::uint64_t add(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                      std::uint64_t parent = 0, std::uint64_t request = 0) {
        const std::uint64_t id = open(name, parent, request);
        if (id != 0) {
            spans_[id - id_base_ - 1].start_ns = start_ns;
            spans_[id - id_base_ - 1].end_ns = end_ns;
        }
        return id;
    }

    const std::vector<Span>& spans() const noexcept { return spans_; }
    std::uint64_t dropped() const noexcept { return dropped_; }

private:
    std::uint64_t id_base_;
    std::size_t capacity_;
    std::vector<Span> spans_;
    std::uint64_t dropped_ = 0;
};

/// RAII span: a no-op when `recorder` is null (the untraced run).
class SpanScope {
public:
    SpanScope(Recorder* recorder, const char* name, std::uint64_t parent = 0,
              std::uint64_t request = 0)
        : recorder_(recorder), id_(recorder ? recorder->open(name, parent, request) : 0) {}
    ~SpanScope() {
        if (recorder_ != nullptr) recorder_->close(id_);
    }
    SpanScope(const SpanScope&) = delete;
    SpanScope& operator=(const SpanScope&) = delete;

    std::uint64_t id() const noexcept { return id_; }

private:
    Recorder* recorder_;
    std::uint64_t id_;
};

/// The run's span store: hands each recording thread its own Recorder.
class Trace {
public:
    explicit Trace(bool enabled) : enabled_(enabled) {}

    bool enabled() const noexcept { return enabled_; }

    /// A fresh recorder for the calling thread, or null when tracing is off.
    Recorder* recorder() HDLOCK_EXCLUDES(mutex_) {
        if (!enabled_) return nullptr;
        util::MutexLock lock(mutex_);
        const std::uint64_t base = static_cast<std::uint64_t>(recorders_.size() + 1) << 40;
        recorders_.push_back(std::make_unique<Recorder>(base, kSpansPerRecorder));
        return recorders_.back().get();
    }

    /// Durations in ns of every closed span called `name`.  Call only after
    /// every recording thread has been joined.
    std::vector<double> durations_ns(const std::string& name) const HDLOCK_EXCLUDES(mutex_) {
        util::MutexLock lock(mutex_);
        std::vector<double> out;
        for (const auto& recorder : recorders_) {
            for (const Span& span : recorder->spans()) {
                if (span.end_ns >= 0 && name == span.name) {
                    out.push_back(static_cast<double>(span.end_ns - span.start_ns));
                }
            }
        }
        return out;
    }

    /// Writes every span as one JSON object per line.
    void write_jsonl(const std::string& path) const HDLOCK_EXCLUDES(mutex_) {
        util::MutexLock lock(mutex_);
        std::ofstream out(path, std::ios::trunc);
        std::uint64_t dropped = 0;
        for (const auto& recorder : recorders_) {
            dropped += recorder->dropped();
            for (const Span& span : recorder->spans()) {
                out << "{\"name\":\"" << span.name << "\",\"id\":" << span.id
                    << ",\"parent\":" << span.parent << ",\"request\":" << span.request
                    << ",\"start_ns\":" << span.start_ns << ",\"end_ns\":" << span.end_ns
                    << "}\n";
            }
        }
        out << "{\"dropped\":" << dropped << "}\n";
        if (!out) throw std::runtime_error("cannot write trace file " + path);
    }

private:
    static constexpr std::size_t kSpansPerRecorder = 300'000;

    bool enabled_;
    mutable util::Mutex mutex_;
    std::deque<std::unique_ptr<Recorder>> recorders_ HDLOCK_GUARDED_BY(mutex_);
};

// ---------------------------------------------------------------------------
// JSON and fingerprint
// ---------------------------------------------------------------------------

inline std::string json_string(const std::string& text) {
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char escaped[8];
            std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
            out += escaped;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/// A number with all its significant digits.
inline std::string json_number(double value) {
    char buffer[32];
    std::snprintf(buffer, sizeof buffer, "%.17g", value);
    return buffer;
}

inline std::string Ledger::metrics_json(Run run) const {
    std::string out = "{";
    bool first = true;
    for (const MetricSpec& spec : kMetrics) {
        if (spec.run != run) continue;
        const auto found = values_.find(spec.name);
        if (found == values_.end()) {
            throw std::logic_error(std::string("metric ") + spec.name + " was not measured");
        }
        out += first ? "" : ", ";
        out += json_string(spec.name) + ": {\"value\": " + json_number(found->second) +
               ", \"unit\": " + json_string(spec.unit) + "}";
        first = false;
    }
    return out + "}";
}

inline void Ledger::write(const std::string& path, const std::string& fingerprint) const {
    const auto object = [](const std::map<std::string, double>& values) {
        std::string out = "{";
        for (const auto& [name, value] : values) {
            out += (out.size() > 1 ? ",\n    " : "\n    ") + json_string(name) + ": " +
                   json_number(value);
        }
        return out + "\n  }";
    };
    std::ofstream out(path, std::ios::trunc);
    out << "{\n  \"fingerprint\": " << fingerprint << ",\n  \"values\": " << object(values_)
        << ",\n  \"notes\": " << object(notes_) << "\n}\n";
    if (!out) throw std::runtime_error("cannot write ledger file " + path);
}

/// First line of `path` starting with `key` (value after the ':' when
/// `key` is given), or `fallback` when unreadable.
inline std::string read_field(const std::string& path, const std::string& key,
                              const std::string& fallback) {
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (key.empty()) return line;
        if (line.rfind(key, 0) == 0) {
            const auto colon = line.find(':');
            if (colon == std::string::npos) return line;
            const auto begin = line.find_first_not_of(" \t", colon + 1);
            return begin == std::string::npos ? "" : line.substr(begin);
        }
    }
    return fallback;
}

/// Host and build facts stamped into every result: where and with what the
/// numbers were measured.
inline std::string fingerprint_json(const std::string& workload, std::uint64_t seed,
                                    const std::string& commit, bool traced) {
    std::ostringstream out;
    out << "{\"workload\": " << json_string(workload) << ", \"seed\": " << seed
        << ", \"traced\": " << (traced ? "true" : "false")
        << ", \"commit\": " << json_string(commit)
        << ", \"nproc\": " << util::hardware_concurrency()
        << ", \"cpu_model\": " << json_string(read_field("/proc/cpuinfo", "model name", "unknown"))
        << ", \"cpu_features\": " << json_string(util::kernels::cpu_feature_string())
        << ", \"kernel_backend\": " << json_string(util::kernels::active_name())
        << ", \"governor\": "
        << json_string(read_field("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor", "",
                                  "unreadable"))
        << ", \"compiler\": " << json_string(HDLOCK_BENCH_COMPILER)
        << ", \"build_type\": " << json_string(HDLOCK_BENCH_BUILD_TYPE)
        << ", \"flags\": " << json_string(HDLOCK_BENCH_FLAGS) << "}";
    return out.str();
}

}  // namespace hdlock::bench::serving
