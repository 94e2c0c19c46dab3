#pragma once

/// \file bitslice.hpp
/// The naive column-count reference.
///
/// Bundling (Eq. 2) needs, for every output dimension j, the count of set
/// bits across N packed rows — a column sum of an N x D bit matrix.  The
/// production count is the Harley–Seal column_counts kernel
/// (util/kernels.hpp), which folds rows into bit-sliced count planes in
/// registers and unpacks them per word block.  naive_accumulate is the slow,
/// obviously-correct definition it is tested against
/// (tests/util/kernels_test.cc).

#include <cstdint>
#include <span>

#include "util/bitvec.hpp"

namespace hdlock::util {

/// Adds each bit of `row` to `counts` individually (counts.size() == n_bits).
void naive_accumulate(std::span<const bits::Word> row, std::size_t n_bits,
                      std::span<std::int32_t> counts);

}  // namespace hdlock::util
