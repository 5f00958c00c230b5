#include "core/exact_quantile.hpp"

#include "core/exact_pipeline.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

ExactQuantileResult exact_quantile_keys(Network& net,
                                        std::span<const Key> keys,
                                        const ExactQuantileParams& params) {
  return exact_detail::exact_quantile_keys_impl(net, keys, params);
}

ExactQuantileResult exact_quantile(Network& net,
                                   std::span<const double> values,
                                   const ExactQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return exact_quantile_keys(net, keys, params);
}

}  // namespace gq
