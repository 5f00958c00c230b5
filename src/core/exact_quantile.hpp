// Algorithm 3: exact phi-quantile computation in O(log n) rounds
// (Theorem 1.1).
//
// The algorithm tracks the target rank k (initially ceil(phi*n)) through a
// sequence of *bracketing iterations*.  Each iteration:
//   1. obtains per-node brackets around the k/n-quantile, both brackets
//      as two lanes of one shared tournament run, and spreads their min
//      and max as two lanes of one spread [Step 3-4];
//   2. counts, exactly via push-sum, the ranks of both brackets and the
//      number of surviving values [Step 5];
//   3. discards every value outside [min, max] [Step 6]; and
//   4. re-inflates the instance by duplicating every surviving value into
//      m (a power of two) copies, scattered by the token process [Step 7],
//      updating k <- m * (k - R + 1) [Step 8].
// The duplicated block of answer copies grows geometrically; once it covers
// the final approximation window, a single approximate query returns the
// answer at every node [Step 10].
//
// Deviations from the paper:
//   * termination is adaptive (block coverage) instead of a fixed 25
//     iterations, whose constants only close at astronomical n;
//   * both bracket ranks are counted exactly, which makes the bracketing
//     bookkeeping deterministic rather than w.h.p.;
//   * when the duplication multiplier degenerates to 1 (small n), the
//     remaining candidates are resolved by uniform-pivot selection phases
//     (the same primitive as the KDG03 baseline) — a selection *endgame*;
//   * the final answer is verified against the original input with one
//     exact count, and the pipeline retries on mismatch (w.h.p. never).
//
// The substrates (tournaments, spreading, counting, token process) all
// tolerate the Section-5 failure model, so this entry point serves the
// robust Theorem 1.4 claim as well.
#pragma once

#include <span>

#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/network.hpp"

namespace gq {

// Public entry point: `values[v]` is node v's input.
[[nodiscard]] ExactQuantileResult exact_quantile(
    Network& net, std::span<const double> values,
    const ExactQuantileParams& params);

// Key-level entry point for callers operating on tie-broken instances.
[[nodiscard]] ExactQuantileResult exact_quantile_keys(
    Network& net, std::span<const Key> keys,
    const ExactQuantileParams& params);

}  // namespace gq
