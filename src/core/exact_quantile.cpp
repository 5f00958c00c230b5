#include "core/exact_quantile.hpp"

#include <utility>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_pipeline.hpp"
#include "core/multi_quantile.hpp"
#include "core/pivot.hpp"
#include "core/token_split.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

// The sequential instantiation of the shared Algorithm-3 control flow in
// core/exact_pipeline.hpp: every substrate is the Network-bound primitive.
// engine/pipelines.cpp provides the batched twin; the two must stay
// bit-identical (pinned by tests/test_engine.cpp).
struct NetworkExactOps {
  Network& net;

  [[nodiscard]] std::uint32_t size() const { return net.size(); }
  [[nodiscard]] std::uint64_t seed() const { return net.seed(); }
  [[nodiscard]] std::uint64_t round() const { return net.round(); }
  [[nodiscard]] const Metrics& metrics() const { return net.metrics(); }

  ApproxQuantileResult approx(std::span<const Key> keys,
                              const ApproxQuantileParams& params) {
    return approx_quantile_keys(net, keys, params);
  }
  MultiQuantileResult multi(std::span<const Key> keys,
                            const MultiQuantileParams& params) {
    return multi_quantile_keys(net, keys, params);
  }
  SpreadResult spread_min_keys(std::span<const Key> init) {
    return spread_min(net, init);
  }
  SpreadResult spread_max_keys(std::span<const Key> init) {
    return spread_max(net, init);
  }
  GenericSpreadResult<MinMaxKeys> spread_min_max_keys(
      std::vector<Key> min_init, std::vector<Key> max_init) {
    return spread_min_max(net, std::move(min_init), std::move(max_init));
  }
  CountResult count(const std::vector<bool>& indicator) {
    return gossip_count(net, indicator);
  }
  CountResult rank(std::span<const Key> keys, const Key& threshold) {
    return gossip_rank(net, keys, threshold);
  }
  TripleCountResult count3(const std::vector<bool>& a,
                           const std::vector<bool>& b,
                           const std::vector<bool>& c) {
    return gossip_count3(net, a, b, c);
  }
  PivotSample pivot(std::span<const Key> inst,
                    const std::vector<bool>& candidate) {
    return sample_uniform_candidate(net, inst, candidate);
  }
  TokenSplitResult token_split(std::span<const Key> inst,
                               std::uint64_t multiplier,
                               std::uint64_t tag_base) {
    return token_split_distribute(net, inst, multiplier, tag_base);
  }
  [[nodiscard]] std::uint64_t exact_count_rounds() const {
    return push_sum_rounds_for_exact(net);
  }
};

}  // namespace

ExactQuantileResult exact_quantile_keys(Network& net,
                                        std::span<const Key> keys,
                                        const ExactQuantileParams& params) {
  NetworkExactOps ops{net};
  return exact_detail::exact_quantile_keys_impl(ops, keys, params);
}

ExactQuantileResult exact_quantile(Network& net,
                                   std::span<const double> values,
                                   const ExactQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return exact_quantile_keys(net, keys, params);
}

}  // namespace gq
