#include "core/three_tournament.hpp"

#include "core/multi_pipeline.hpp"

namespace gq {

ThreeTournamentOutcome three_tournament(Network& net, std::vector<Key>& state,
                                        double eps,
                                        std::uint32_t final_sample_size,
                                        const TournamentObserver& observer) {
  return multi_detail::three_tournament_impl(net, state, eps,
                                             final_sample_size, observer);
}

}  // namespace gq
