// Algorithm 2: 3-TOURNAMENT — Phase II of the approximate quantile pipeline.
//
// Every node repeatedly replaces its value with the MEDIAN of three
// uniformly sampled values.  Both tail fractions follow the map
// l_{i+1} = 3 l_i^2 - 2 l_i^3: they grow towards the median for the first
// O(log 1/eps) iterations, then collapse doubly exponentially until fewer
// than ~n^(2/3) nodes hold a value outside the eps-window around the
// median (Lemmas 2.12-2.16).  A final step samples K = O(1) values and
// outputs their median, which lands inside the window w.h.p. (Lemma 2.17).
//
// Each iteration costs three gossip rounds; the final step costs K rounds.
//
// three_tournament runs one lane of the shared tournament kernels
// (core/multi_pipeline.hpp: three_tournament_impl) on either executor; the
// Engine overload is declared in engine/kernels.hpp.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analysis/recurrences.hpp"
#include "core/two_tournament.hpp"  // TournamentObserver
#include "sim/key.hpp"
#include "sim/network.hpp"

namespace gq {

struct ThreeTournamentOutcome {
  std::size_t iterations = 0;
  std::vector<Key> outputs;        // per-node final answer (median of K)
  ThreeTournamentSchedule schedule;
};

// Runs Algorithm 2 on `state` (modified in place) in the failure-free
// model; returns per-node outputs whose quantile lies in [1/2-eps, 1/2+eps]
// w.h.p.  `final_sample_size` is forced odd.  The observer's last view is
// the state the call leaves behind.
ThreeTournamentOutcome three_tournament(
    Network& net, std::vector<Key>& state, double eps,
    std::uint32_t final_sample_size = 15,
    const TournamentObserver& observer = {});

}  // namespace gq
