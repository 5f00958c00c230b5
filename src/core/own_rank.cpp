#include "core/own_rank.hpp"

namespace gq {

OwnRankResult own_rank(Network& net, std::span<const double> values,
                       const OwnRankParams& params) {
  return own_rank_detail::own_rank_impl(net, values, params);
}

}  // namespace gq
