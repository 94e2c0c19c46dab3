#include "hdc/item_memory.hpp"

#include <cmath>
#include <numeric>

namespace hdlock::hdc {

ItemMemory ItemMemory::generate(const ItemMemoryConfig& config) {
    HDLOCK_EXPECTS(config.dim > 0, "ItemMemory: dim must be positive");
    HDLOCK_EXPECTS(config.n_levels >= 2, "ItemMemory: at least two value levels required");

    ItemMemory memory;
    memory.dim_ = config.dim;

    util::Xoshiro256ss feature_rng(util::hash_mix(config.seed, 0xFEA));
    memory.feature_hvs_.reserve(config.n_features);
    for (std::size_t i = 0; i < config.n_features; ++i) {
        memory.feature_hvs_.push_back(BinaryHV::random(config.dim, feature_rng));
    }

    memory.value_hvs_ =
        generate_level_hvs(config.dim, config.n_levels, util::hash_mix(config.seed, 0x7A1));
    return memory;
}

std::vector<BinaryHV> ItemMemory::generate_level_hvs(std::size_t dim, std::size_t n_levels,
                                                     std::uint64_t seed) {
    HDLOCK_EXPECTS(dim > 0, "generate_level_hvs: dim must be positive");
    HDLOCK_EXPECTS(n_levels >= 2, "generate_level_hvs: at least two levels required");

    util::Xoshiro256ss rng(seed);
    std::vector<BinaryHV> levels;
    levels.reserve(n_levels);
    levels.push_back(BinaryHV::random(dim, rng));

    // A fixed random half of the positions is flipped progressively: level l
    // differs from level 0 in the first round(l * D/2 / (M-1)) positions of
    // the shuffled set.  Nested flip sets give exactly the linear pairwise
    // profile of Eq. 1b.
    std::vector<std::uint32_t> positions(dim);
    std::iota(positions.begin(), positions.end(), 0u);
    rng.shuffle(std::span<std::uint32_t>(positions));
    const std::size_t flip_budget = dim / 2;

    std::size_t flipped = 0;
    for (std::size_t level = 1; level < n_levels; ++level) {
        BinaryHV hv = levels.back();
        const auto target = static_cast<std::size_t>(std::llround(
            static_cast<double>(level) * static_cast<double>(flip_budget) /
            static_cast<double>(n_levels - 1)));
        for (; flipped < target; ++flipped) {
            const std::size_t p = positions[flipped];
            hv.set(p, -hv.get(p));
        }
        levels.push_back(std::move(hv));
    }
    return levels;
}

const BinaryHV& ItemMemory::feature_hv(std::size_t feature) const {
    HDLOCK_EXPECTS(feature < feature_hvs_.size(), "ItemMemory::feature_hv: index out of range");
    return feature_hvs_[feature];
}

const BinaryHV& ItemMemory::value_hv(std::size_t level) const {
    HDLOCK_EXPECTS(level < value_hvs_.size(), "ItemMemory::value_hv: level out of range");
    return value_hvs_[level];
}

ItemMemory ItemMemory::from_hypervectors(std::vector<BinaryHV> feature_hvs,
                                         std::vector<BinaryHV> value_hvs) {
    HDLOCK_EXPECTS(!value_hvs.empty(), "ItemMemory::from_hypervectors: value HVs required");
    const std::size_t dim = value_hvs.front().dim();
    for (const auto& hv : feature_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "ItemMemory::from_hypervectors: dimension mismatch");
    }
    for (const auto& hv : value_hvs) {
        HDLOCK_EXPECTS(hv.dim() == dim, "ItemMemory::from_hypervectors: dimension mismatch");
    }
    ItemMemory memory;
    memory.dim_ = dim;
    memory.feature_hvs_ = std::move(feature_hvs);
    memory.value_hvs_ = std::move(value_hvs);
    return memory;
}

}  // namespace hdlock::hdc
