// Parameter structs for the quantile protocols.
#pragma once

#include <cstdint>

namespace gq {

struct ApproxQuantileParams {
  double phi = 0.5;  // target quantile in [0,1]
  double eps = 0.1;  // approximation slack in (0,1)

  // K in Algorithm 2's final step: number of values sampled before emitting
  // the median.  Forced odd; Lemma 2.17 needs only O(1).
  std::uint32_t final_sample_size = 15;

  // The delta-truncation of the last 2-TOURNAMENT iteration (Lemma 2.4).
  // Disabling it (ablation A1) overshoots the target tail fraction by up to
  // eps and degrades accuracy.
  bool truncate_last = true;

  // Run the tournament pipeline even when eps is below
  // eps_tournament_floor(n) instead of falling back to the exact algorithm.
  // Used by ablation benches to demonstrate *why* the floor exists.
  bool force_tournament = false;

  // Extra coverage rounds under the failure model: after the tournaments,
  // nodes without an output pull until they find one; all but ~n/2^t nodes
  // are served after t rounds (Theorem 1.4).
  std::uint32_t robust_coverage_rounds = 12;
};

// How the exact algorithm finishes once bracketing has crushed the
// candidate set (one of the deviations listed in core/exact_quantile.hpp):
//   * kAuto compares the predicted round cost of the paper's duplication
//     route against the selection endgame and picks the cheaper one — at
//     practical n the duplication multiplier m is 1-4 (the paper's
//     m >= n^0.04/4 only exceeds 2 beyond n ~ 2^75), so the endgame often
//     wins; asymptotically duplication always wins.
//   * kPreferDuplication forces the paper's Step-7 route whenever m >= 2.
//   * kPreferEndgame switches to selection phases after the first filter.
enum class ExactStrategy { kAuto, kPreferDuplication, kPreferEndgame };

struct ExactQuantileParams {
  double phi = 0.5;  // target quantile in [0,1]

  // Per-iteration bracketing slack for the inner approximate runs.
  // 0 = automatic: eps_tournament_floor(n), the tightest slack at which
  // the tournament pipeline stays reliable.  (The paper's n^-0.05/2
  // exceeds that floor for every practically simulable n — they cross
  // only near n ~ 10^2 — so auto mode is simply the floor; the knob
  // exists for bench_ablation_exact.)
  double slack = 0.0;

  ExactStrategy strategy = ExactStrategy::kAuto;
};

struct OwnRankParams {
  double eps = 0.125;  // additive quantile accuracy for every node

  // Knobs forwarded to the underlying approximate quantile runs.
  std::uint32_t final_sample_size = 15;
};

}  // namespace gq
