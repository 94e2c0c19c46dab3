#include "util/bitslice.hpp"

namespace hdlock::util {

void naive_accumulate(std::span<const bits::Word> row, std::size_t n_bits,
                      std::span<std::int32_t> counts) {
    HDLOCK_EXPECTS(counts.size() == n_bits, "naive_accumulate: size mismatch");
    for (std::size_t j = 0; j < n_bits; ++j) {
        counts[j] += bits::get_bit(row, j) ? 1 : 0;
    }
}

}  // namespace hdlock::util
