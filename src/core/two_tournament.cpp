#include "core/two_tournament.hpp"

#include <algorithm>

#include "core/multi_pipeline.hpp"

namespace gq {

std::pair<TournamentSide, double> tournament_side(double phi, double eps) {
  const double h0 = std::clamp(1.0 - (phi + eps), 0.0, 1.0);
  const double l0 = std::clamp(phi - eps, 0.0, 1.0);
  if (h0 >= l0) return {TournamentSide::kSuppressHigh, h0};
  return {TournamentSide::kSuppressLow, l0};
}

TwoTournamentOutcome two_tournament(Network& net, std::vector<Key>& state,
                                    double phi, double eps,
                                    bool truncate_last,
                                    const TournamentObserver& observer) {
  return multi_detail::two_tournament_impl(net, state, phi, eps,
                                           truncate_last, observer);
}

}  // namespace gq
