// Conversion between application values (doubles, ties allowed) and the
// distinct Keys the protocols operate on.
#pragma once

#include <span>
#include <vector>

#include "sim/key.hpp"

namespace gq {

// Wraps each value into a Key tie-broken by node id.  The i-th key belongs
// to node i.  Resulting keys are pairwise distinct whenever ids are.  NaN
// values are rejected: NaN compares unordered, so it has no place in Key's
// total order.
[[nodiscard]] std::vector<Key> make_keys(std::span<const double> values);

// Projects keys back to application values.
[[nodiscard]] std::vector<double> key_values(std::span<const Key> keys);

}  // namespace gq
