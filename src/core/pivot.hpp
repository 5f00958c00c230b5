// Uniform pivot sampling: agree, network-wide, on one uniformly random key
// among the candidate nodes.  The standard gossip trick: every candidate
// draws a random priority and the (priority, key) pair with the maximum
// priority is spread to all nodes in O(log n) rounds.  Used by the
// selection endgame of the exact algorithm and by the KDG03 baseline.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"
#include "sim/network.hpp"

namespace gq {

struct PivotSample {
  Key pivot = Key::infinite();
  std::uint64_t rounds = 0;
  bool found = false;  // false iff no candidate participated
};

namespace pivot_detail {

// The spread payload: priority 0 marks non-candidates; ties (never expected
// from 64-bit draws) break towards the larger key.  Shared between the
// sequential protocol and the engine kernel so both spread identical pairs.
struct PriorityKey {
  std::uint64_t priority = 0;  // 0 = not a candidate
  Key key = Key::infinite();

  friend bool operator==(const PriorityKey&, const PriorityKey&) = default;
};

struct PriorityLess {
  bool operator()(const PriorityKey& a, const PriorityKey& b) const {
    if (a.priority != b.priority) return a.priority < b.priority;
    return a.key < b.key;
  }
};

// Message size of one (priority, key) pair.
[[nodiscard]] constexpr std::uint64_t priority_key_bits(
    std::uint32_t n) noexcept {
  return 64 + key_bits(n);
}

}  // namespace pivot_detail

// candidate[v] marks whether node v's key inst[v] competes.
[[nodiscard]] PivotSample sample_uniform_candidate(
    Network& net, std::span<const Key> inst,
    const std::vector<bool>& candidate);

}  // namespace gq
