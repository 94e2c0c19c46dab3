// Tests for min-max discretization (src/hdc/discretize.*).

#include "hdc/discretize.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "util/rng.hpp"

using hdlock::ContractViolation;
using hdlock::hdc::DiscretizerMode;
using hdlock::hdc::MinMaxDiscretizer;
using hdlock::util::Matrix;
using hdlock::util::Xoshiro256ss;

TEST(Discretizer, GlobalModeMapsRangeLinearly) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 4);
    EXPECT_EQ(d.level_of(0.0f), 0);
    EXPECT_EQ(d.level_of(0.24f), 0);
    EXPECT_EQ(d.level_of(0.25f), 1);
    EXPECT_EQ(d.level_of(0.5f), 2);
    EXPECT_EQ(d.level_of(0.75f), 3);
    EXPECT_EQ(d.level_of(1.0f), 3);  // max clamps into the top level
}

TEST(Discretizer, OutOfRangeValuesClamp) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 10.0f, 8);
    EXPECT_EQ(d.level_of(-100.0f), 0);
    EXPECT_EQ(d.level_of(100.0f), 7);
}

TEST(Discretizer, NonFiniteValuesClampDeterministically) {
    // Regression: NaN reached std::floor + an integer cast, which is
    // undefined behavior ("nan" parses fine from a CSV field).  The contract
    // is now: NaN -> level 0, +inf -> top level, -inf -> level 0.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 8);

    EXPECT_EQ(d.level_of(nan), 0);
    EXPECT_EQ(d.level_of(inf), 7);
    EXPECT_EQ(d.level_of(-inf), 0);

    // Same clamping through the row path, mixed with finite values.
    const std::vector<float> row = {nan, inf, -inf, 0.5f};
    Matrix<float> X(1, 4);
    for (std::size_t c = 0; c < row.size(); ++c) X(0, c) = row[c];
    const auto per_feature = MinMaxDiscretizer::fit(
        Matrix<float>(2, 4, 1.0f), 8, DiscretizerMode::per_feature);
    // fit on constant columns -> degenerate ranges -> all level 0, finite or not.
    for (std::size_t c = 0; c < row.size(); ++c) {
        EXPECT_EQ(per_feature.level_of(row[c], c), 0) << "col " << c;
    }
    const auto levels = d.transform_row(row);
    EXPECT_EQ(levels, (std::vector<int>{0, 7, 0, 4}));
}

TEST(Discretizer, HugeFiniteValuesClampWithoutOverflow) {
    // Values whose scaled position exceeds the int64 range used to overflow
    // in the float -> integer cast; they must clamp like any out-of-range
    // value.
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1e-30f, 4);
    EXPECT_EQ(d.level_of(3e38f), 3);
    EXPECT_EQ(d.level_of(-3e38f), 0);
}

TEST(Discretizer, DegenerateRangeMapsToZero) {
    const auto d = MinMaxDiscretizer::with_range(5.0f, 5.0f, 16);
    EXPECT_EQ(d.level_of(5.0f), 0);
    EXPECT_EQ(d.level_of(123.0f), 0);
}

TEST(Discretizer, FitGlobalUsesDatasetWideRange) {
    // The paper discretizes "based on the minimum and maximum values across
    // the entire dataset" — one range shared by all features.
    Matrix<float> X(2, 2);
    X(0, 0) = 0.0f;
    X(0, 1) = 2.0f;
    X(1, 0) = 6.0f;
    X(1, 1) = 8.0f;
    const auto d = MinMaxDiscretizer::fit(X, 4, DiscretizerMode::global);
    EXPECT_EQ(d.level_of(0.0f), 0);
    EXPECT_EQ(d.level_of(8.0f), 3);
    EXPECT_EQ(d.level_of(2.0f, /*feature=*/1), 1);  // feature ignored in global mode
    EXPECT_EQ(d.level_of(4.1f), 2);
}

TEST(Discretizer, FitPerFeatureUsesColumnRanges) {
    Matrix<float> X(2, 2);
    X(0, 0) = 0.0f;
    X(0, 1) = 100.0f;
    X(1, 0) = 1.0f;
    X(1, 1) = 200.0f;
    const auto d = MinMaxDiscretizer::fit(X, 2, DiscretizerMode::per_feature);
    EXPECT_EQ(d.level_of(0.4f, 0), 0);
    EXPECT_EQ(d.level_of(0.6f, 0), 1);
    EXPECT_EQ(d.level_of(140.0f, 1), 0);
    EXPECT_EQ(d.level_of(160.0f, 1), 1);
    EXPECT_THROW(d.level_of(0.0f, 2), ContractViolation);
}

TEST(Discretizer, TransformRowAndMatrix) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 2);
    const std::vector<float> row = {0.1f, 0.9f, 0.49f, 0.51f};
    const auto levels = d.transform_row(row);
    EXPECT_EQ(levels, (std::vector<int>{0, 1, 0, 1}));

    Matrix<float> X(2, 2);
    X(0, 0) = 0.1f;
    X(0, 1) = 0.9f;
    X(1, 0) = 0.6f;
    X(1, 1) = 0.2f;
    const auto L = d.transform(X);
    EXPECT_EQ(L(0, 0), 0);
    EXPECT_EQ(L(0, 1), 1);
    EXPECT_EQ(L(1, 0), 1);
    EXPECT_EQ(L(1, 1), 0);
}

TEST(Discretizer, AllLevelsReachableOnUniformGrid) {
    const std::size_t n_levels = 16;
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, n_levels);
    std::vector<bool> seen(n_levels, false);
    for (int i = 0; i <= 1000; ++i) {
        const int level = d.level_of(static_cast<float>(i) / 1000.0f);
        ASSERT_GE(level, 0);
        ASSERT_LT(level, static_cast<int>(n_levels));
        seen[static_cast<std::size_t>(level)] = true;
    }
    for (std::size_t l = 0; l < n_levels; ++l) EXPECT_TRUE(seen[l]) << "level " << l;
}

TEST(Discretizer, InvalidConfigsThrow) {
    EXPECT_THROW(MinMaxDiscretizer::with_range(0.0f, 1.0f, 1), ContractViolation);
    EXPECT_THROW(MinMaxDiscretizer::with_range(2.0f, 1.0f, 4), ContractViolation);
    Matrix<float> empty;
    EXPECT_THROW(MinMaxDiscretizer::fit(empty, 4), ContractViolation);
    MinMaxDiscretizer unfitted;
    EXPECT_THROW(unfitted.level_of(0.0f), ContractViolation);
    EXPECT_THROW(unfitted.transform_row(std::vector<float>{0.0f}), ContractViolation);
    EXPECT_TRUE(unfitted.transform_row(std::vector<float>{}).empty());
}

TEST(Discretizer, TransformRowSizeMismatchThrows) {
    const auto d = MinMaxDiscretizer::with_range(0.0f, 1.0f, 4);
    const std::vector<float> row = {0.1f, 0.2f};
    std::vector<int> levels(3);
    EXPECT_THROW(d.transform_row(row, levels), ContractViolation);
}

TEST(Discretizer, SerializationRoundTrip) {
    Matrix<float> X(3, 2);
    X(0, 0) = -1.0f;
    X(0, 1) = 5.0f;
    X(1, 0) = 2.0f;
    X(1, 1) = 7.5f;
    X(2, 0) = 0.0f;
    X(2, 1) = 6.0f;
    const auto d = MinMaxDiscretizer::fit(X, 8, DiscretizerMode::per_feature);

    std::stringstream stream;
    hdlock::util::BinaryWriter writer(stream);
    d.save(writer);
    hdlock::util::BinaryReader reader(stream);
    const auto loaded = MinMaxDiscretizer::load(reader);
    EXPECT_EQ(loaded, d);
    EXPECT_EQ(loaded.level_of(2.0f, 0), d.level_of(2.0f, 0));
}

namespace {

/// The level formula as it stood before transform_row went branch-free:
/// floor, then clamp, with explicit NaN exits.  The reference the
/// discretizer must match on every input.
int floor_then_clamp_level(float value, float lo, float hi, std::size_t n_levels) {
    if (!(hi > lo)) return 0;
    if (std::isnan(value)) return 0;
    const double scaled = (static_cast<double>(value) - lo) / (static_cast<double>(hi) - lo) *
                          static_cast<double>(n_levels);
    if (std::isnan(scaled)) return 0;
    const double top = static_cast<double>(n_levels - 1);
    return static_cast<int>(std::clamp(std::floor(scaled), 0.0, top));
}

/// Inputs where the two forms could part: NaN, +/-inf, +/-0, denormals,
/// +/-FLT_MAX, the range ends, and every bin edge lo + k * (hi - lo) / M
/// with its float neighbours.
std::vector<float> edge_values(float lo, float hi, std::size_t n_levels) {
    constexpr float inf = std::numeric_limits<float>::infinity();
    constexpr float denorm = std::numeric_limits<float>::denorm_min();
    std::vector<float> values = {std::numeric_limits<float>::quiet_NaN(),
                                 -std::numeric_limits<float>::quiet_NaN(),
                                 inf, -inf, 0.0f, -0.0f, denorm, -denorm, 1e-40f, -1e-40f,
                                 FLT_MIN, -FLT_MIN, FLT_MAX, -FLT_MAX, lo, hi};
    for (std::size_t k = 0; k <= n_levels; ++k) {
        const double edge = static_cast<double>(lo) + (static_cast<double>(hi) - lo) *
                                                          static_cast<double>(k) /
                                                          static_cast<double>(n_levels);
        const auto f = static_cast<float>(edge);
        values.insert(values.end(), {f, std::nextafter(f, -inf), std::nextafter(f, inf)});
    }
    return values;
}

/// A random value: an edge value or a uniform draw around [lo, hi].
float random_value(const std::vector<float>& edges, float lo, float hi, Xoshiro256ss& rng) {
    if (rng.next_below(3) == 0) return edges[rng.next_below(edges.size())];
    const double span = std::isfinite(static_cast<double>(hi) - lo) && hi > lo
                            ? static_cast<double>(hi) - lo
                            : 1.0;
    const double base = std::isfinite(lo) ? lo : 0.0;
    const double value = base + (rng.next_double() * 1.5 - 0.25) * span;
    // A double outside the float range has no defined conversion.
    return static_cast<float>(std::clamp(value, -static_cast<double>(FLT_MAX),
                                         static_cast<double>(FLT_MAX)));
}

}  // namespace

TEST(Discretizer, TransformRowMatchesFloorThenClampInGlobalMode) {
    constexpr float inf = std::numeric_limits<float>::infinity();
    constexpr float denorm = std::numeric_limits<float>::denorm_min();
    const std::pair<float, float> ranges[] = {
        {0.0f, 1.0f},       {-3.5f, 17.25f},   {5.0f, 5.0f},  // degenerate
        {-FLT_MAX, FLT_MAX}, {0.0f, 1e-30f},   {-8 * denorm, 100 * denorm},
        {-inf, 1.0f},        {0.0f, inf},      {-inf, inf}};
    Xoshiro256ss rng(20);
    std::size_t rows = 0;
    for (const std::size_t n_levels : {std::size_t{2}, std::size_t{3}, std::size_t{16},
                                       std::size_t{255}}) {
        for (const auto& [lo, hi] : ranges) {
            const auto d = MinMaxDiscretizer::with_range(lo, hi, n_levels);
            const auto edges = edge_values(lo, hi, n_levels);
            // Every edge value once, then random rows of odd lengths, so the
            // vectorized loop's remainder handling is covered too.
            std::vector<std::vector<float>> batch{edges};
            for (int r = 0; r < 300; ++r) {
                std::vector<float> row(1 + rng.next_below(67));
                for (float& v : row) v = random_value(edges, lo, hi, rng);
                batch.push_back(std::move(row));
            }
            for (const auto& row : batch) {
                const std::vector<int> levels = d.transform_row(row);
                for (std::size_t i = 0; i < row.size(); ++i) {
                    const int expected = floor_then_clamp_level(row[i], lo, hi, n_levels);
                    ASSERT_EQ(levels[i], expected) << "value " << row[i] << " range [" << lo
                                                   << ", " << hi << "] M=" << n_levels;
                    ASSERT_EQ(d.level_of(row[i], i), expected) << "value " << row[i];
                }
                ++rows;
            }
        }
    }
    EXPECT_GT(rows, 10000u);
}

TEST(Discretizer, TransformRowMatchesFloorThenClampInPerFeatureMode) {
    constexpr float inf = std::numeric_limits<float>::infinity();
    constexpr float denorm = std::numeric_limits<float>::denorm_min();
    // One column per range, degenerate and infinite ones included; fit()
    // on the two rows (lo, hi) learns exactly these ranges.
    const std::vector<std::pair<float, float>> ranges = {
        {0.0f, 1.0f}, {-3.5f, 17.25f}, {5.0f, 5.0f},        {-FLT_MAX, FLT_MAX}, {0.0f, 1e-30f},
        {-8 * denorm, 100 * denorm},   {-inf, 1.0f},        {0.0f, inf},         {-inf, inf},
        {-0.0f, 0.0f}, {2.0f, 2.0f},   {-1.0f, 1.0f},       {1e-40f, 2e-40f}};
    const std::size_t n_features = ranges.size();
    Matrix<float> bounds(2, n_features);
    for (std::size_t c = 0; c < n_features; ++c) {
        bounds(0, c) = ranges[c].first;
        bounds(1, c) = ranges[c].second;
    }
    Xoshiro256ss rng(21);
    for (const std::size_t n_levels : {std::size_t{2}, std::size_t{7}, std::size_t{16},
                                       std::size_t{256}}) {
        const auto d = MinMaxDiscretizer::fit(bounds, n_levels, DiscretizerMode::per_feature);
        ASSERT_EQ(d.n_ranges(), n_features);
        std::vector<std::vector<float>> edges;
        for (const auto& [lo, hi] : ranges) edges.push_back(edge_values(lo, hi, n_levels));
        for (int r = 0; r < 2000; ++r) {
            // Rows up to the fitted width: a per-feature row may be shorter.
            std::vector<float> row(1 + rng.next_below(n_features));
            for (std::size_t c = 0; c < row.size(); ++c) {
                row[c] = random_value(edges[c], ranges[c].first, ranges[c].second, rng);
            }
            const std::vector<int> levels = d.transform_row(row);
            for (std::size_t c = 0; c < row.size(); ++c) {
                ASSERT_EQ(levels[c], floor_then_clamp_level(row[c], ranges[c].first,
                                                            ranges[c].second, n_levels))
                    << "value " << row[c] << " feature " << c << " M=" << n_levels;
            }
        }
    }
}

TEST(Discretizer, PerFeatureRowLongerThanTheFittedRangesThrows) {
    Matrix<float> X(2, 3);
    for (std::size_t c = 0; c < 3; ++c) X(1, c) = 1.0f;
    const auto d = MinMaxDiscretizer::fit(X, 4, DiscretizerMode::per_feature);
    const std::vector<float> row(4, 0.5f);
    std::vector<int> levels(4);
    EXPECT_THROW(d.transform_row(row, levels), ContractViolation);
    EXPECT_THROW(d.level_of(0.5f, 3), ContractViolation);
    // The global mode has one range for every feature.
    const auto global = MinMaxDiscretizer::fit(X, 4);
    EXPECT_EQ(global.transform_row(row), (std::vector<int>(4, 2)));
}
