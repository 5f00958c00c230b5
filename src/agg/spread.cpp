#include "agg/spread.hpp"

#include <bit>
#include <cmath>
#include <utility>

namespace gq {

std::uint64_t spread_rounds_cap(std::uint32_t n,
                                const FailureModel& failures) {
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n) - 1));
  const std::uint64_t base = 8 * log2n + 50;
  const double mu = failures.max_probability();
  if (mu <= 0.0) return base;
  return static_cast<std::uint64_t>(
      std::ceil(static_cast<double>(base) / (1.0 - mu)));
}

std::vector<MinMaxKeys> min_max_payloads(std::vector<Key> min_init,
                                         std::vector<Key> max_init) {
  GQ_REQUIRE(min_init.size() == max_init.size(),
             "one payload per node and lane required");
  std::vector<MinMaxKeys> out(min_init.size());
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = {min_init[v], max_init[v]};
  }
  // By-value parameters may outlive the call until the caller's full
  // expression ends, which here spans the whole spread: free them now.
  min_init = std::vector<Key>();
  max_init = std::vector<Key>();
  return out;
}

}  // namespace gq
