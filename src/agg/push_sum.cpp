#include "agg/push_sum.hpp"

#include <bit>
#include <cmath>

namespace gq {
namespace {

std::uint64_t ceil_log2(std::uint64_t n) {
  return static_cast<std::uint64_t>(std::bit_width(n - 1));
}

std::uint64_t scale_for_failures(const FailureModel& failures,
                                 std::uint64_t rounds) {
  const double mu = failures.max_probability();
  if (mu <= 0.0) return rounds;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(rounds) / (1.0 - mu)));
}

}  // namespace

std::uint64_t push_sum_rounds_for_exact(std::uint32_t n,
                                        const FailureModel& failures) {
  // Calibrated: the rounding cliff (first integer-exact counts across all
  // nodes) sits near 2 log2 n + 30 for n up to 2^18; this schedule clears
  // it with ~1/3 margin.  The GossipCount and GossipRank cases of
  // tests/test_agg.cpp check every node's count on it, with and without
  // failures, and every exact-quantile run re-checks its answer with one.
  return scale_for_failures(failures, 3 * ceil_log2(n) + 20);
}

std::uint64_t push_sum_rounds_for_exact(const Network& net) {
  return push_sum_rounds_for_exact(net.size(), net.failures());
}

}  // namespace gq
