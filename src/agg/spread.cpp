#include "agg/spread.hpp"

#include <bit>
#include <cmath>
#include <functional>
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

std::uint64_t spread_rounds_cap(const Network& net) {
  return spread_rounds_cap(net.size(), net.failures());
}

SpreadResult spread_max(Network& net, std::span<const Key> init,
                        std::uint64_t max_rounds) {
  return spread_best(net, std::vector<Key>(init.begin(), init.end()),
                     KeepBetter<std::less<Key>>{}, key_bits(net.size()),
                     max_rounds);
}

SpreadResult spread_min(Network& net, std::span<const Key> init,
                        std::uint64_t max_rounds) {
  return spread_best(net, std::vector<Key>(init.begin(), init.end()),
                     KeepBetter<std::greater<Key>>{}, key_bits(net.size()),
                     max_rounds);
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

GenericSpreadResult<MinMaxKeys> spread_min_max(Network& net,
                                               std::vector<Key> min_init,
                                               std::vector<Key> max_init,
                                               std::uint64_t max_rounds) {
  return spread_best(
      net, min_max_payloads(std::move(min_init), std::move(max_init)),
      MinMaxJoin{}, 2 * key_bits(net.size()), max_rounds);
}

}  // namespace gq
