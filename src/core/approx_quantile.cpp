#include "core/approx_quantile.hpp"

#include "core/approx_pipeline.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

ApproxQuantileResult approx_quantile_keys(Network& net,
                                          std::span<const Key> keys,
                                          const ApproxQuantileParams& params) {
  return approx_detail::approx_quantile_keys_impl(net, keys, params);
}

ApproxQuantileResult approx_quantile(Network& net,
                                     std::span<const double> values,
                                     const ApproxQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return approx_quantile_keys(net, keys, params);
}

}  // namespace gq
