#include "baselines/median_rule.hpp"

#include "core/robust_pipeline.hpp"  // robust_detail::median3
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

MedianRuleResult median_rule_keys(Network& net, std::span<const Key> keys,
                                  const MedianRuleParams& params) {
  const std::uint32_t n = net.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");

  const std::uint64_t iterations = median_rule_iterations(n, params);
  const std::uint64_t bits = key_bits(n);

  MedianRuleResult out;
  out.iterations = iterations;
  std::vector<Key> cur(keys.begin(), keys.end());
  std::vector<Key> next(n);
  std::vector<std::uint32_t> first(n, Network::kNoPeer);
  for (std::uint64_t it = 0; it < iterations; ++it) {
    // Two pulls per iteration, both reading the iteration-start snapshot.
    net.begin_round();
    ++out.rounds;
    for (std::uint32_t v = 0; v < n; ++v) {
      first[v] = Network::kNoPeer;
      if (net.node_fails(v)) {
        net.record_failed_operation();
        continue;
      }
      SplitMix64 stream = net.node_stream(v);
      first[v] = net.sample_peer(v, stream);
      net.record_message(bits);
    }
    net.begin_round();
    ++out.rounds;
    for (std::uint32_t v = 0; v < n; ++v) {
      next[v] = cur[v];
      if (first[v] == Network::kNoPeer) continue;  // lost the whole iteration
      if (net.node_fails(v)) {
        net.record_failed_operation();
        continue;
      }
      SplitMix64 stream = net.node_stream(v);
      const std::uint32_t second = net.sample_peer(v, stream);
      net.record_message(bits);
      next[v] = robust_detail::median3(cur[v], cur[first[v]], cur[second]);
    }
    cur.swap(next);
  }
  out.outputs = std::move(cur);
  return out;
}

MedianRuleResult median_rule(Network& net, std::span<const double> values,
                             const MedianRuleParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return median_rule_keys(net, keys, params);
}

}  // namespace gq
