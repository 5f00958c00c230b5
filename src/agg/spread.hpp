// Rumor-spreading primitives: max/min broadcast over uniform gossip.
//
// Each round every node pulls from a uniformly random other node and keeps
// the "better" of the two payloads, lane by lane for multi-lane payloads.
// A single extreme value reaches all nodes in O(log n) rounds w.h.p.
// [FG85, Pit87]; under the Section-5 failure model the same bound holds
// with a 1/(1-mu) slowdown [ES09].
//
// Termination: the simulator stops as soon as all nodes agree (an omniscient
// check) and additionally enforces a cap.  A deployed system would stop
// after a fixed c*log n schedule or when a node's value is stable for a
// constant number of rounds; the round counts reported here are the honest
// cost of the process itself.
//
// spread_min, spread_max and spread_min_max are one template each over the
// executor.  They reach it only through the round kernel spread_best, found
// by argument-dependent lookup: the Network's below, the Engine's in
// engine/pipelines.hpp.
#pragma once

#include <algorithm>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "sim/executor.hpp"
#include "sim/key.hpp"
#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

// Default cap on spreading rounds: generous multiple of log2 n, scaled for
// failures.  Both executors' spread kernels derive it from (n, failures).
[[nodiscard]] std::uint64_t spread_rounds_cap(std::uint32_t n,
                                              const FailureModel& failures);

template <typename T>
struct GenericSpreadResult {
  std::vector<T> values;     // per-node final payload
  std::uint64_t rounds = 0;  // rounds consumed
  bool converged = false;    // all nodes hold the target payload
};

using SpreadResult = GenericSpreadResult<Key>;

// A spread's merge rule, its `Join`: after pulling a peer, a node keeps
// `join(own, peer)`.  The target is the join of every initial payload in
// node order; the run stops once every node holds it.  Joins are applied
// per lane, so a multi-lane payload spreads all its lanes off the same
// pulls.

// The one-lane extreme spread: keep the better payload under `less`, a
// total order on the payload type; the target is the maximum.
template <typename Less>
struct KeepBetter {
  Less less;

  template <typename T>
  const T& operator()(const T& own, const T& peer) const {
    return less(own, peer) ? peer : own;
  }
};

// The two-lane payload of the exact pipeline's bracket spread: lane `min`
// spreads the smallest key, lane `max` the largest.
struct MinMaxKeys {
  Key min;
  Key max;

  friend bool operator==(const MinMaxKeys&, const MinMaxKeys&) = default;
};

struct MinMaxJoin {
  MinMaxKeys operator()(const MinMaxKeys& own, const MinMaxKeys& peer) const {
    return {std::min(own.min, peer.min), std::max(own.max, peer.max)};
  }
};

// Zips one payload per node and lane into spread_min_max's initial state,
// releasing the inputs.
[[nodiscard]] std::vector<MinMaxKeys> min_max_payloads(
    std::vector<Key> min_init, std::vector<Key> max_init);

// The Network's spread round kernel: spreads `cur` under `join`;
// `bits_per_message` is the accounted size of one payload (max_rounds 0 =
// spread_rounds_cap).  Takes the payloads by value so callers can hand over
// their buffer.  The Engine's batched twin is declared in
// engine/pipelines.hpp.
template <typename T, typename Join>
GenericSpreadResult<T> spread_best(Network& net, std::vector<T> cur,
                                   Join join, std::uint64_t bits_per_message,
                                   std::uint64_t max_rounds = 0) {
  GQ_SPAN("agg/spread");
  const std::uint32_t n = net.size();
  GQ_REQUIRE(cur.size() == n, "one payload per node required");
  if (max_rounds == 0) max_rounds = spread_rounds_cap(n, net.failures());

  T target = cur.front();
  for (std::uint32_t v = 1; v < n; ++v) target = join(target, cur[v]);

  GenericSpreadResult<T> out;
  std::vector<T> next(n);
  const auto all_done = [&] {
    return std::all_of(cur.begin(), cur.end(),
                       [&](const T& k) { return k == target; });
  };
  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    if (all_done()) {
      out.converged = true;
      break;
    }
    const std::vector<std::uint32_t> peers = net.pull_round(bits_per_message);
    ++out.rounds;
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t p = peers[v];
      next[v] = p != Network::kNoPeer ? join(cur[v], cur[p]) : cur[v];
    }
    cur.swap(next);
  }
  if (!out.converged) out.converged = all_done();
  out.values = std::move(cur);
  return out;
}

namespace spread_detail {

// NaN has no place in Key's order, so the spreads below reject it before
// any round, on both executors (the Engine's interned lanes could not rank
// it, and the Network's joins would spread it under an unordered compare).
[[nodiscard]] inline bool any_nan(std::span<const Key> keys) noexcept {
  return std::any_of(keys.begin(), keys.end(),
                     [](const Key& k) { return std::isnan(k.value); });
}

}  // namespace spread_detail

// Max-spreading: every node ends up with max(init) w.h.p.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] SpreadResult spread_max(Exec& exec, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  GQ_REQUIRE(!spread_detail::any_nan(init),
             "spread payloads must not carry NaN values");
  return spread_best(exec, std::vector<Key>(init.begin(), init.end()),
                     KeepBetter<std::less<Key>>{}, key_bits(exec.size()),
                     max_rounds);
}

// Min-spreading: every node ends up with min(init) w.h.p.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] SpreadResult spread_min(Exec& exec, std::span<const Key> init,
                                      std::uint64_t max_rounds = 0) {
  GQ_REQUIRE(!spread_detail::any_nan(init),
             "spread payloads must not carry NaN values");
  return spread_best(exec, std::vector<Key>(init.begin(), init.end()),
                     KeepBetter<std::greater<Key>>{}, key_bits(exec.size()),
                     max_rounds);
}

// Both at once: every node ends up with {min(min_init), max(max_init)}
// w.h.p.  Each pull carries both lanes (2 x key_bits(n) bits) and the run
// stops once both lanes agree at every node, so it costs the slower lane's
// rounds instead of the sum of two spreads.  The inputs are released before
// the first round.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] GenericSpreadResult<MinMaxKeys> spread_min_max(
    Exec& exec, std::vector<Key> min_init, std::vector<Key> max_init,
    std::uint64_t max_rounds = 0) {
  GQ_REQUIRE(!spread_detail::any_nan(min_init) &&
                 !spread_detail::any_nan(max_init),
             "spread payloads must not carry NaN values");
  return spread_best(
      exec, min_max_payloads(std::move(min_init), std::move(max_init)),
      MinMaxJoin{}, 2 * key_bits(exec.size()), max_rounds);
}

}  // namespace gq
