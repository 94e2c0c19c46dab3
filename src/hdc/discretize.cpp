#include "hdc/discretize.hpp"

#include <algorithm>

namespace hdlock::hdc {

MinMaxDiscretizer MinMaxDiscretizer::fit(const util::Matrix<float>& X, std::size_t n_levels,
                                         DiscretizerMode mode) {
    HDLOCK_EXPECTS(n_levels >= 2, "MinMaxDiscretizer: at least two levels required");
    HDLOCK_EXPECTS(!X.empty(), "MinMaxDiscretizer: empty training matrix");

    MinMaxDiscretizer d;
    d.n_levels_ = n_levels;
    d.mode_ = mode;

    if (mode == DiscretizerMode::global) {
        float lo = X(0, 0), hi = X(0, 0);
        for (const float v : X.data()) {
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        d.mins_ = {lo};
        d.maxs_ = {hi};
    } else {
        d.mins_.assign(X.cols(), 0.0f);
        d.maxs_.assign(X.cols(), 0.0f);
        for (std::size_t c = 0; c < X.cols(); ++c) {
            float lo = X(0, c), hi = X(0, c);
            for (std::size_t r = 1; r < X.rows(); ++r) {
                lo = std::min(lo, X(r, c));
                hi = std::max(hi, X(r, c));
            }
            d.mins_[c] = lo;
            d.maxs_[c] = hi;
        }
    }
    return d;
}

MinMaxDiscretizer MinMaxDiscretizer::with_range(float min_value, float max_value,
                                                std::size_t n_levels) {
    HDLOCK_EXPECTS(n_levels >= 2, "MinMaxDiscretizer: at least two levels required");
    HDLOCK_EXPECTS(min_value <= max_value, "MinMaxDiscretizer: min must not exceed max");
    MinMaxDiscretizer d;
    d.n_levels_ = n_levels;
    d.mode_ = DiscretizerMode::global;
    d.mins_ = {min_value};
    d.maxs_ = {max_value};
    return d;
}

namespace {

/// The level of `value` in [lo, hi] split into n_levels equal bins:
/// int(clamp(scaled, 0, top)) for scaled = (value - lo) / (hi - lo) *
/// n_levels, in doubles.  That equals clamp(floor(scaled), 0, top) on
/// every non-NaN scaled (below 0 both give 0, above top both give top, and
/// in between truncation is floor), and clamping before the conversion
/// keeps every float-to-int cast defined.  Non-finite inputs reach this
/// path in practice (std::from_chars parses "nan"/"inf" from CSV fields):
/// a NaN fails the first compare and maps to level 0, whether it is the
/// value or comes from a range fitted on infinities; +/-inf clamp to the
/// boundary levels.  A degenerate range (!(hi > lo)) maps to level 0.
/// Branch-free, so transform_row's loop vectorizes.
inline int level_in_range(float value, float lo, float hi, double n_levels, double top) noexcept {
    const double scaled =
        (static_cast<double>(value) - lo) / (static_cast<double>(hi) - lo) * n_levels;
    const double floored_at_zero = scaled > 0.0 ? scaled : 0.0;
    const double clamped = floored_at_zero < top ? floored_at_zero : top;
    return hi > lo ? static_cast<int>(clamped) : 0;
}

}  // namespace

int MinMaxDiscretizer::level_of(float value, std::size_t feature) const {
    HDLOCK_EXPECTS(!mins_.empty(), "MinMaxDiscretizer: not fitted");
    const std::size_t slot = mode_ == DiscretizerMode::global ? 0 : feature;
    HDLOCK_EXPECTS(slot < mins_.size(), "MinMaxDiscretizer: feature out of range");
    return level_in_range(value, mins_[slot], maxs_[slot], static_cast<double>(n_levels_),
                          static_cast<double>(n_levels_ - 1));
}

void MinMaxDiscretizer::transform_row(std::span<const float> row, std::span<int> levels) const {
    HDLOCK_EXPECTS(row.size() == levels.size(), "MinMaxDiscretizer: size mismatch");
    const std::size_t n = row.size();
    if (n == 0) return;
    HDLOCK_EXPECTS(!mins_.empty(), "MinMaxDiscretizer: not fitted");
    const float* values = row.data();
    int* out = levels.data();
    const auto n_levels = static_cast<double>(n_levels_);
    const auto top = static_cast<double>(n_levels_ - 1);
    if (mode_ == DiscretizerMode::global) {
        const float lo = mins_[0];
        const float hi = maxs_[0];
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = level_in_range(values[i], lo, hi, n_levels, top);
        }
    } else {
        HDLOCK_EXPECTS(n <= mins_.size(), "MinMaxDiscretizer: feature out of range");
        const float* los = mins_.data();
        const float* his = maxs_.data();
        for (std::size_t i = 0; i < n; ++i) {
            out[i] = level_in_range(values[i], los[i], his[i], n_levels, top);
        }
    }
}

std::vector<int> MinMaxDiscretizer::transform_row(std::span<const float> row) const {
    std::vector<int> levels(row.size());
    transform_row(row, levels);
    return levels;
}

util::Matrix<int> MinMaxDiscretizer::transform(const util::Matrix<float>& X) const {
    util::Matrix<int> out(X.rows(), X.cols());
    for (std::size_t r = 0; r < X.rows(); ++r) transform_row(X.row(r), out.row(r));
    return out;
}

void MinMaxDiscretizer::save(util::BinaryWriter& writer) const {
    writer.write_tag("DSC1");
    writer.write_u64(n_levels_);
    writer.write_u8(static_cast<std::uint8_t>(mode_));
    writer.write_span(std::span<const float>(mins_));
    writer.write_span(std::span<const float>(maxs_));
}

MinMaxDiscretizer MinMaxDiscretizer::load(util::BinaryReader& reader) {
    reader.expect_tag("DSC1");
    MinMaxDiscretizer d;
    d.n_levels_ = static_cast<std::size_t>(reader.read_u64());
    const auto mode = reader.read_u8();
    if (mode > 1) throw FormatError("MinMaxDiscretizer::load: bad mode");
    d.mode_ = static_cast<DiscretizerMode>(mode);
    d.mins_ = reader.read_vector<float>();
    d.maxs_ = reader.read_vector<float>();
    if (d.mins_.size() != d.maxs_.size()) {
        throw FormatError("MinMaxDiscretizer::load: min/max size mismatch");
    }
    return d;
}

}  // namespace hdlock::hdc
