// Exact gossip counting (Algorithm 3, Step 5): compute #{v : x_v <= z} at
// every node by running push-sum on 0/1 indicators long enough that the
// relative error is below 1/(2n), then rounding to the nearest integer.
//
// Each entry point is one template over the executor.  It reaches the
// executor only through the push-sum round kernel push_sum_average_multi,
// found by argument-dependent lookup: agg/push_sum.hpp's for the Network,
// engine/pipelines.hpp's for the Engine.
#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "sim/executor.hpp"
#include "sim/key.hpp"
#include "util/require.hpp"

namespace gq {

struct CountResult {
  std::vector<std::uint64_t> counts;  // per-node rounded count
  std::uint64_t rounds = 0;
};

// Three exact counts in one diffusion (shared-weight 3D push-sum): per-node
// rounded counts of each indicator vector.
struct TripleCountResult {
  std::vector<std::uint64_t> a, b, c;
  std::uint64_t rounds = 0;
};

namespace count_detail {

// D counts in one diffusion: one 0/1 lane per indicator, all sharing one
// push-sum weight (rounds 0 = push_sum_rounds_for_exact).  Each node's
// lane estimate of the average, times n, rounds to the nearest
// non-negative integer in counts[j]; returns the rounds run.
template <std::size_t D, typename Exec>
std::uint64_t count_lanes(
    Exec& exec, const std::array<const std::vector<bool>*, D>& indicators,
    const std::array<std::vector<std::uint64_t>*, D>& counts,
    std::uint64_t rounds) {
  const std::uint32_t n = exec.size();
  for (const std::vector<bool>* indicator : indicators) {
    GQ_REQUIRE(indicator->size() == n, "one indicator bit per node required");
  }

  std::vector<std::array<double, D>> x(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < D; ++j) {
      x[v][j] = (*indicators[j])[v] ? 1.0 : 0.0;
    }
  }
  const MultiPushSumResult<D> avg = push_sum_average_multi(
      exec, std::span<const std::array<double, D>>(x), rounds);

  for (std::size_t j = 0; j < D; ++j) {
    counts[j]->resize(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      const double rounded =
          std::round(avg.estimates[v][j] * static_cast<double>(n));
      (*counts[j])[v] =
          rounded <= 0.0 ? 0 : static_cast<std::uint64_t>(rounded);
    }
  }
  return avg.rounds;
}

}  // namespace count_detail

// Counts the number of true entries in `indicator` at every node.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] CountResult gossip_count(Exec& exec,
                                       const std::vector<bool>& indicator,
                                       std::uint64_t rounds = 0) {
  CountResult out;
  out.rounds =
      count_detail::count_lanes<1>(exec, {&indicator}, {&out.counts}, rounds);
  return out;
}

// Rank of `threshold` within `keys`: #{v : keys[v] <= threshold}.
template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] CountResult gossip_rank(Exec& exec, std::span<const Key> keys,
                                      const Key& threshold,
                                      std::uint64_t rounds = 0) {
  std::vector<bool> indicator(keys.size());
  for (std::size_t v = 0; v < keys.size(); ++v) {
    indicator[v] = keys[v] <= threshold;
  }
  return gossip_count(exec, indicator, rounds);
}

template <std::derived_from<ExecutorCore> Exec>
[[nodiscard]] TripleCountResult gossip_count3(
    Exec& exec, const std::vector<bool>& ind_a,
    const std::vector<bool>& ind_b, const std::vector<bool>& ind_c,
    std::uint64_t rounds = 0) {
  TripleCountResult out;
  out.rounds = count_detail::count_lanes<3>(exec, {&ind_a, &ind_b, &ind_c},
                                            {&out.a, &out.b, &out.c}, rounds);
  return out;
}

}  // namespace gq
