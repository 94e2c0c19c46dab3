#pragma once

/// \file item_memory.hpp
/// Item memory: the base hypervectors an HDC encoder draws from.
///
/// Following Sec. 2 of the paper, an encoding module for N features with M
/// discretized value levels holds:
///  - N feature hypervectors (FeaHV), i.i.d. random and hence mutually
///    quasi-orthogonal (Eq. 1a);
///  - M value/level hypervectors (ValHV), *linearly correlated*: ValHV_1 is
///    random, ValHV_M is quasi-orthogonal to it, and intermediate levels
///    interpolate so that Hamm(ValHV_a, ValHV_b) ~ 0.5 |a-b| / (M-1)
///    (Eq. 1b).  Levels are built by flipping nested position sets of
///    cumulative size round(l * D/2 / (M-1)).

#include <cstdint>
#include <vector>

#include "hdc/hypervector.hpp"

namespace hdlock::hdc {

struct ItemMemoryConfig {
    std::size_t dim = 10000;   ///< hypervector dimensionality D
    std::size_t n_features = 0;  ///< N
    std::size_t n_levels = 2;  ///< M (at least 2)
    std::uint64_t seed = 1;
};

class ItemMemory {
public:
    ItemMemory() = default;

    /// Generates fresh feature and value hypervectors per the config.
    static ItemMemory generate(const ItemMemoryConfig& config);

    /// Generates only value hypervectors (n_features == 0 is allowed); used
    /// by HDLock, where feature hypervectors come from the locked base pool.
    static std::vector<BinaryHV> generate_level_hvs(std::size_t dim, std::size_t n_levels,
                                                    std::uint64_t seed);

    std::size_t dim() const noexcept { return dim_; }
    std::size_t n_features() const noexcept { return feature_hvs_.size(); }
    std::size_t n_levels() const noexcept { return value_hvs_.size(); }

    const BinaryHV& feature_hv(std::size_t feature) const;
    const BinaryHV& value_hv(std::size_t level) const;
    const std::vector<BinaryHV>& feature_hvs() const noexcept { return feature_hvs_; }
    const std::vector<BinaryHV>& value_hvs() const noexcept { return value_hvs_; }

    /// Builds an item memory from existing hypervectors (used when the
    /// attacker reconstructs an encoder from reasoned mappings).
    static ItemMemory from_hypervectors(std::vector<BinaryHV> feature_hvs,
                                        std::vector<BinaryHV> value_hvs);

private:
    std::size_t dim_ = 0;
    std::vector<BinaryHV> feature_hvs_;
    std::vector<BinaryHV> value_hvs_;
};

}  // namespace hdlock::hdc
