// The Doerr-Goldberg-Minder-Sauerwald-Scheideler median rule (SPAA'11),
// cited by the paper as the strongest prior gossip dynamics for the median:
// in each iteration every node samples two random values and replaces its
// own with the median of {own, sample1, sample2}.  O(log n) iterations
// converge to a +-O(sqrt(log n / n)) approximation of the MEDIAN — but the
// rule has no mechanism for general phi, no schedule to stop early at a
// requested eps, and no final amplification step.
//
// Provided as a baseline so bench_dynamics can show what the paper's
// 2-TOURNAMENT shift + scheduled 3-TOURNAMENT add on top of raw dynamics.
// The parallel Engine runs the same rule as a batched kernel
// (median_rule_keys(Engine&) in engine/kernels.hpp), bit-identical to the
// Network overload below.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"
#include "sim/network.hpp"

namespace gq {

struct MedianRuleParams {
  // Number of median-rule iterations (2 pull rounds each); 0 = the
  // paper-suggested c*log2(n) with c = 4.
  std::uint64_t iterations = 0;
};

// The iteration count a run with `params` performs on n nodes.
[[nodiscard]] inline std::uint64_t median_rule_iterations(
    std::uint32_t n, const MedianRuleParams& params) {
  if (params.iterations != 0) return params.iterations;
  return 4 * static_cast<std::uint64_t>(
                 std::bit_width(static_cast<std::uint64_t>(n) - 1));
}

struct MedianRuleResult {
  std::vector<Key> outputs;     // per-node final value
  std::uint64_t iterations = 0;
  std::uint64_t rounds = 0;
};

[[nodiscard]] MedianRuleResult median_rule(Network& net,
                                           std::span<const double> values,
                                           const MedianRuleParams& params);

[[nodiscard]] MedianRuleResult median_rule_keys(Network& net,
                                                std::span<const Key> keys,
                                                const MedianRuleParams& params);

}  // namespace gq
