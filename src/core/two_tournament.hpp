// Algorithm 1: 2-TOURNAMENT — Phase I of the approximate quantile pipeline.
//
// Shifts the quantiles around the target phi to the quantiles around the
// median: if the mass above phi+eps dominates, every node repeatedly
// replaces its value with the MINIMUM of two uniformly sampled values
// (suppressing the high side, whose fraction squares each iteration:
// h_{i+1} = h_i^2); the symmetric case uses the maximum.  The final
// iteration performs the tournament only with probability delta per node so
// the expected surviving tail lands exactly on T = 1/2 - eps (Lemma 2.4).
//
// Each iteration costs two gossip rounds (two pulls).  Both pulls observe
// the configuration at the start of the iteration, matching the process the
// paper analyzes.
//
// two_tournament runs one lane of the shared tournament kernels
// (core/multi_pipeline.hpp: two_tournament_impl) on either executor; the
// Engine overload is declared in engine/kernels.hpp.  The approx pipeline
// does not call it: its failure-free route runs the same lane kernels
// through the shared schedule directly.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "analysis/recurrences.hpp"
#include "sim/key.hpp"
#include "sim/network.hpp"

namespace gq {

// Which side the tournament suppresses.
enum class TournamentSide {
  kSuppressHigh,  // take min of two samples (mass above phi dominates)
  kSuppressLow,   // take max of two samples
};

// Observation hook for experiments: called with the state after every
// iteration (iteration index is 1-based).
using TournamentObserver =
    std::function<void(std::size_t iteration, std::span<const Key> state)>;

struct TwoTournamentOutcome {
  std::size_t iterations = 0;
  TournamentSide side = TournamentSide::kSuppressHigh;
  TwoTournamentSchedule schedule;  // the analytic schedule that was executed
};

// Runs Algorithm 1 in place on `state` (one key per node) in the
// failure-free model.  `truncate_last=false` replaces the delta-truncated
// final iteration with a full tournament (ablation A1).  The observer's
// last view is the state the call leaves behind.
TwoTournamentOutcome two_tournament(Network& net, std::vector<Key>& state,
                                    double phi, double eps,
                                    bool truncate_last = true,
                                    const TournamentObserver& observer = {});

// The side and initial tail fraction Algorithm 1 uses for a given target.
[[nodiscard]] std::pair<TournamentSide, double> tournament_side(double phi,
                                                                double eps);

}  // namespace gq
