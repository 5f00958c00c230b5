// Network instantiation of the adversarially-robust pipelines: the
// sequential reference transcript the Engine overloads are differentially
// pinned against (tests/test_adversary.cpp).
#include "core/adversarial.hpp"

#include "workload/tiebreak.hpp"

namespace gq {

AdversarialQuantileResult adversarial_quantile_keys(
    Network& net, std::span<const Key> keys,
    const AdversarialQuantileParams& params) {
  return adversary_detail::adversarial_quantile_impl(net, keys, params);
}

AdversarialQuantileResult adversarial_quantile(
    Network& net, std::span<const double> values,
    const AdversarialQuantileParams& params) {
  const auto keys = make_keys(values);
  return adversarial_quantile_keys(net, keys, params);
}

AdversarialMeanResult adversarial_mean(Network& net,
                                       std::span<const double> values,
                                       const AdversarialMeanParams& params) {
  const auto keys = make_keys(values);
  return adversary_detail::adversarial_mean_impl(net, values, keys, params);
}

}  // namespace gq
