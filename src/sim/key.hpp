// Key: the totally ordered node payload used by all quantile protocols.
//
// The paper assumes w.l.o.g. that all node values are distinct.  Real
// workloads have ties, so the library orders payloads by the lexicographic
// triple (value, id, tag):
//   * value — the application's double;
//   * id    — the originating node, breaking ties between equal values;
//   * tag   — a duplication tag used by the exact algorithm when a value is
//             replicated into many copies (Algorithm 3, Step 7); 0 initially.
// Any two keys held by different nodes compare unequal, which restores the
// paper's distinctness assumption without constraining inputs.
//
// A Key fits in O(log n) bits in the model's sense: value (one machine word),
// id and tag (indices).  Message-size accounting uses key_bits().
#pragma once

#include <compare>
#include <cstdint>
#include <limits>

namespace gq {

struct Key {
  double value = 0.0;
  std::uint32_t id = 0;
  std::uint64_t tag = 0;

  friend constexpr auto operator<=>(const Key&, const Key&) = default;

  // The "valueless" marker of Algorithm 3 Step 6: compares above every real
  // payload (x_v <- infinity in the paper).  A genuine +inf input is a real
  // payload that sorts below it, so "has a value" is `key != infinite()`,
  // never a test of the double.
  [[nodiscard]] static constexpr Key infinite() noexcept {
    return Key{std::numeric_limits<double>::infinity(),
               std::numeric_limits<std::uint32_t>::max(),
               std::numeric_limits<std::uint64_t>::max()};
  }

  // Sentinel comparing at or below every real payload (used when spreading
  // a maximum over nodes that have no contribution).  It equals node 0's
  // key for a genuine -inf input, the smallest key a network can hold.
  [[nodiscard]] static constexpr Key neg_infinite() noexcept {
    return Key{-std::numeric_limits<double>::infinity(), 0, 0};
  }

  // Two keys carry the same application value (ignoring duplication tags).
  [[nodiscard]] constexpr bool same_value(const Key& o) const noexcept {
    return value == o.value && id == o.id;
  }
};

// Message size of one key under the model's O(log n)-bit budget: one value
// word plus two index fields of ceil(log2 n) bits each.
[[nodiscard]] constexpr std::uint64_t key_bits(std::uint32_t n) noexcept {
  std::uint64_t log2n = 1;
  while ((1ull << log2n) < n) ++log2n;
  return 64 + 2 * log2n;
}

}  // namespace gq
