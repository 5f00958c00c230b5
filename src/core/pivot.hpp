// Uniform pivot sampling: agree, network-wide, on one uniformly random key
// among the candidate nodes.  The standard gossip trick: every candidate
// draws a random priority and the (priority, key) pair with the maximum
// priority is spread to all nodes in O(log n) rounds.  Used by the
// selection endgame of the exact algorithm and by the KDG03 baseline.
//
// One template over the executor: the priority draw is one for_each_node
// pass, and the spread is the executor's round kernel spread_best, found by
// argument-dependent lookup (agg/spread.hpp, engine/pipelines.hpp).
#pragma once

#include <concepts>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "agg/spread.hpp"
#include "sim/executor.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {

struct PivotSample {
  Key pivot = Key::infinite();
  std::uint64_t rounds = 0;
  bool found = false;  // false iff no candidate participated
};

namespace pivot_detail {

// The spread payload: priority 0 marks non-candidates; ties (never expected
// from 64-bit draws) break towards the larger key.
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

}  // namespace pivot_detail

// candidate[v] marks whether node v's key inst[v] competes.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] PivotSample sample_uniform_candidate(
    Exec& exec, std::span<const Key> inst,
    const std::vector<bool>& candidate) {
  using pivot_detail::PriorityKey;
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(inst.size() == n && candidate.size() == n,
             "one key and one candidate flag per node required");

  // One local round in which every candidate draws its priority; failed
  // nodes sit this pivot out, which keeps the choice uniform over the
  // participating candidates.
  exec.begin_round();
  std::vector<PriorityKey> pairs(n);
  exec.for_each_node([&](std::uint32_t v, Metrics& local) {
    if (!candidate[v]) return;
    if (exec.node_fails(v)) {
      ++local.failed_operations;
      return;
    }
    SplitMix64 stream = exec.node_stream(v);
    pairs[v] = PriorityKey{stream() | 1ull, inst[v]};
  });

  // A message carries one (priority, key) pair.
  const GenericSpreadResult<PriorityKey> spread =
      spread_best(exec, std::move(pairs),
                  KeepBetter<pivot_detail::PriorityLess>{}, 64 + key_bits(n));

  PivotSample out;
  out.rounds = 1 + spread.rounds;
  const PriorityKey& winner = spread.values.front();
  if (winner.priority != 0 && spread.converged) {
    out.found = true;
    out.pivot = winner.key;
  }
  return out;
}

}  // namespace gq
