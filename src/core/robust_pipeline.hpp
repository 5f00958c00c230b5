// The executor-independent control flow of the Section-5.1 robust
// tournaments (Theorem 1.4).
//
// Like Algorithm 3 before it (core/exact_pipeline.hpp), the robust variants
// historically lived as Network-bound functions; porting them to the
// parallel engine would have duplicated the schedule bookkeeping whose every
// branch is observable in round counts and Metrics — a bit-identity hazard.
// The control flow — pull fan-out sizing, tournament schedules, the
// delta-truncation, the robust final sampling step, the coverage loop with
// its early exit — is shared here, templated over an `Ops` provider that
// executes the per-phase gossip mechanics:
//
//   * core/robust.cpp      — Ops over the sequential Network (per-round
//     node loops, exactly the pre-refactor mechanics);
//   * engine/kernels.cpp   — Ops over the parallel Engine (fused fan-out
//     pull kernels on engine-pooled ping-pong state).
//
// Bit-identity of the two paths then reduces to bit-identity of each phase
// kernel, which tests/test_engine_robust.cpp pins at 1/2/8 threads.
//
// The tournament Ops concept (duck-typed; see NetworkRobustOps /
// EngineRobustOps):
//   uint32_t size();
//   double   max_failure_probability();
//   // One robust 2-TOURNAMENT iteration: `pulls` fan-out pull rounds
//   // reading the iteration-start state/good snapshot, then the delta-coin
//   // round committing min/max of the first two good samples; updates
//   // state and good in place (nodes short of two good pulls turn bad).
//   void two_iteration(uint32_t pulls, double delta, bool suppress_high);
//   // One robust 3-TOURNAMENT iteration: `pulls` fan-out pull rounds, then
//   // the in-place median-of-three commit (no extra round — the commit
//   // draws no randomness).
//   void three_iteration(uint32_t pulls);
//   // The robust final step: `final_pulls` rounds collecting k good
//   // samples per node; good nodes that gathered all k output the median.
//   void final_median_sample(uint32_t final_pulls, uint32_t k,
//                            std::vector<Key>& outputs,
//                            std::vector<bool>& valid);
//
// The coverage Ops concept (see NetworkCoverageOps / EngineCoverageOps):
//   bool all_served();
//   void coverage_round();  // unserved nodes pull; adopt any served answer
//
// The fan-out pulls are pull-shaped — every puller folds its own good-pull
// count and samples from the immutable round-start snapshot, touching no
// other node's slots — so the batched kernels parallelise with per-node
// output slots exactly like the failure-free tournament kernels, and no
// scatter is involved.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "analysis/recurrences.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"
#include "sim/key.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

struct RobustTwoTournamentOutcome {
  std::size_t iterations = 0;
  TournamentSide side = TournamentSide::kSuppressHigh;
  std::uint32_t pulls_per_iteration = 0;
};

struct RobustThreeTournamentOutcome {
  std::size_t iterations = 0;
  std::uint32_t pulls_per_iteration = 0;
  std::vector<Key> outputs;      // per-node answer (meaningful iff valid)
  std::vector<bool> valid;       // nodes that produced an output
};

namespace robust_detail {

// The commit rules are templated over the ordered state representation:
// the sequential Network ops run them on Key, the engine kernels on the
// 32-bit interned ranks of sim/key_intern.hpp.  Rank order is key order by
// construction, so one copy of each rule serves both — a tie-break tweak
// cannot diverge the bit-identity twins.
//
// median3 is max(min(a, b), min(max(a, b), c)) written as value selects,
// which compile to branch-free cmov chains on ranks (the 3-TOURNAMENT
// commit's three samples are random, so branches would mispredict).  On
// ties it may pick a different argument than a branching version, but the
// median's value is unique, so the result is the same.
template <typename T>
inline T median3(const T& a, const T& b, const T& c) {
  const T lo = b < a ? b : a;
  const T hi = b < a ? a : b;
  const T mid = c < hi ? c : hi;
  return mid < lo ? lo : mid;
}

// Commit rule of one good node in a robust 2-TOURNAMENT iteration: the
// tournament (when the delta coin lands) takes min/max of the first two
// good samples; otherwise the node adopts the first sample unchanged.
template <typename T>
inline T two_tournament_commit(const T& s0, const T& s1, bool tournament,
                               bool suppress_high) {
  if (!tournament) return s0;
  return suppress_high ? std::min(s0, s1) : std::max(s0, s1);
}

// Robust Algorithm 1 (see core/robust.hpp for the model).
template <typename Ops>
RobustTwoTournamentOutcome robust_two_tournament_impl(Ops& ops, double phi,
                                                      double eps,
                                                      bool truncate_last) {
  GQ_REQUIRE(phi >= 0.0 && phi <= 1.0, "phi must lie in [0,1]");
  GQ_REQUIRE(eps > 0.0 && eps < 0.5, "eps must lie in (0, 1/2)");

  RobustTwoTournamentOutcome out;
  const double mu = ops.max_failure_probability();
  out.pulls_per_iteration = robust_pull_count(mu, 4.0);
  const auto [side, start] = tournament_side(phi, eps);
  out.side = side;
  const bool suppress_high = side == TournamentSide::kSuppressHigh;
  const TwoTournamentSchedule schedule = two_tournament_schedule(start, eps);

  for (std::size_t iter = 0; iter < schedule.iterations(); ++iter) {
    GQ_SPAN("robust/two_iteration");
    const double delta = truncate_last ? schedule.delta[iter] : 1.0;
    ops.two_iteration(out.pulls_per_iteration, delta, suppress_high);
    ++out.iterations;
  }
  return out;
}

// Robust Algorithm 2, including the robust final sampling step.
template <typename Ops>
RobustThreeTournamentOutcome robust_three_tournament_impl(
    Ops& ops, double eps, std::uint32_t final_sample_size) {
  GQ_REQUIRE(eps > 0.0 && eps < 0.5, "eps must lie in (0, 1/2)");

  RobustThreeTournamentOutcome out;
  const double mu = ops.max_failure_probability();
  out.pulls_per_iteration = robust_pull_count(mu, 6.0);
  const ThreeTournamentSchedule schedule =
      three_tournament_schedule(eps, ops.size());
  const std::uint32_t k_samples = (final_sample_size | 1u);

  for (std::size_t iter = 0; iter < schedule.iterations(); ++iter) {
    GQ_SPAN("robust/three_iteration");
    ops.three_iteration(out.pulls_per_iteration);
    ++out.iterations;
  }

  // Robust final step: collect K good pulls out of Theta(K/(1-mu) log ...)
  // attempts and output their median.
  GQ_SPAN("robust/final_median_sample");
  const std::uint32_t final_pulls =
      robust_pull_count(mu, 2.0 * static_cast<double>(k_samples));
  ops.final_median_sample(final_pulls, k_samples, out.outputs, out.valid);
  return out;
}

// Coverage tail (Theorem 1.4's caveat): for `t` rounds every unserved node
// pulls and adopts the output of any served node it reaches.  Returns the
// rounds consumed.
template <typename Ops>
std::uint64_t robust_coverage_impl(Ops& ops, std::uint32_t t) {
  GQ_SPAN("robust/coverage");
  std::uint64_t rounds = 0;
  for (std::uint32_t r = 0; r < t; ++r) {
    // Early exit once everyone is served keeps reported costs honest: a
    // deployed node would simply stop asking.
    if (ops.all_served()) break;
    ops.coverage_round();
    ++rounds;
  }
  return rounds;
}

}  // namespace robust_detail
}  // namespace gq
