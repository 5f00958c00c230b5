// The executor-independent control flow of the shared-schedule
// multi-quantile pipeline (Corollary 1.5: all q targets in one gossip run).
//
// Same rationale as core/approx_pipeline.hpp: the dedupe, the lane
// schedules, the per-iteration activity/coin decisions, the shared Phase-2
// schedule, and the fallback routing are all observable in outputs, round
// counts, and Metrics, so the sequential Network path and the parallel
// Engine must execute ONE copy of this logic.
//
// ## The shared schedule
//
// Each unique target phi_l becomes a *lane*: per-node state is a q-lane
// vector instead of a single key, and every gossip round is shared — one
// peer draw serves all q lanes, and a round's message carries the sender's
// whole lane vector (billed as lanes x key_bits(n)).
//
// Phase 1 (2-TOURNAMENT, Algorithm 1) runs each lane's own schedule —
// (side_l, start_l) = tournament_side(phi_l, eps), schedule_l =
// two_tournament_schedule(start_l, eps) — superimposed over
// max_l iterations(schedule_l) shared iterations of two rounds each:
//
//   * Round A: every node draws ONE first sample (same draw as the
//     single-target kernel) and sends its vector: one message of
//     (#active lanes) x key_bits(n) bits.
//   * Round B: every node flips each *active* lane's delta coin in lane
//     order (delta >= 1.0 short-circuits without consuming a draw, exactly
//     as in core/two_tournament.cpp), then — if any lane tournaments —
//     draws ONE shared second sample and sends one message of
//     (#tournament lanes) x key_bits(n) bits.  Commits are per-lane against
//     the iteration-start snapshot: tournament lanes take min/max by their
//     side, non-tournament active lanes adopt the first sample, lanes whose
//     own schedule has ended keep their value.
//
// Phase 2 (3-TOURNAMENT, Algorithm 2) needs no per-lane schedule at all:
// three_tournament_schedule(eps/4, n) depends only on (eps, n), so every
// lane runs the same iterations off the same three shared pulls per
// iteration (one draw per node per round, messages of q x key_bits(n)),
// committing median-of-three per lane; the final K sampling rounds share
// their draws the same way, with a per-lane nth_element median.
//
// Consequences, pinned by tests/test_multi_quantile.cpp:
//   * q = 1 is bit-identical to the single-target approx_quantile pipeline
//     (same draws, same rounds, same Metrics).
//   * q targets cost max-of-schedules Phase-1 iterations instead of
//     sum-of-schedules, and exactly one Phase 2 — for p50/p90/p99/p999 at
//     eps = 0.1 that is ~1.2x a single run's rounds, against ~4x for four
//     independent runs.  Bits scale with q only where lanes are live.
//
// Routing: the shared schedule is the failure-free tournament path.  When
// eps sits below eps_tournament_floor(n) (exact-fallback territory), a
// failure model or adversary is installed (robust kernels own per-node
// good-flag dynamics that are per-lane-divergent), or the unique-target
// count exceeds kMaxSharedLanes, each unique target pays its own
// approx_quantile run — still deduped, so duplicated phis never cost extra
// rounds on either route.
//
// The template takes the executor itself and calls, by argument-dependent
// lookup, approx_quantile_keys (the per-target route) and the four lane
// kernels declared below for Network and in engine/kernels.hpp for Engine:
//
//   multi_tournament_begin(exec, keys, lanes);  // broadcast keys to lanes
//   multi_two_iteration(exec, steps);           // one shared Phase-1 step
//   multi_three_iteration(exec);                // one shared Phase-2 step
//   multi_final_sample(exec, k_samples, outputs);
//
// Their lane state lives in the executor's pooled scratch, so it persists
// from begin to final_sample and keeps its capacity across runs.
//
// Instantiated by core/multi_quantile.cpp (Network) and
// engine/pipelines.cpp (Engine); bit-identity of the two is pinned by
// tests/test_engine_multi.cpp at 1/2/8 threads.  Callers: the public
// multi_quantile batch, the service's kMultiQuantile queries, and
// Algorithm 3's Steps 3-4 (core/exact_pipeline.hpp), whose two brackets
// ride one run and whose robust/adversarial iterations take the
// per-target route.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "analysis/recurrences.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/two_tournament.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

// Lane cap of the shared schedule: per-node tournament flags travel as a
// uint64_t bitmask through the engine kernel, and beyond ~64 lanes the
// q x key_bits messages stop being meaningfully cheaper than more runs.
inline constexpr std::size_t kMaxSharedLanes = 64;

// One lane's instructions for one shared Phase-1 iteration.
struct MultiLaneStep {
  bool active = false;        // lane still inside its own schedule
  bool suppress_high = true;  // lane's tournament side
  double delta = 1.0;         // lane's coin this iteration (>= 1.0: no coin)
};

// The sequential lane kernels (core/multi_quantile.cpp): per-node state is
// q plain Key vectors, every round is a for-loop over nodes reading the
// iteration-start snapshot, and the per-node draw order — one shared peer
// pick per round, per-lane delta coins in lane order — is the contract the
// Engine kernels reproduce bit for bit (tests/test_engine_multi.cpp).
void multi_tournament_begin(Network& net, std::span<const Key> keys,
                            std::uint32_t lanes);
void multi_two_iteration(Network& net, std::span<const MultiLaneStep> steps);
void multi_three_iteration(Network& net);
void multi_final_sample(Network& net, std::uint32_t k_samples,
                        std::vector<std::vector<Key>>& outputs);

namespace multi_detail {

struct MultiLaneSpec {
  bool suppress_high = true;
  TwoTournamentSchedule schedule;
};

template <typename Exec>
MultiQuantileResult multi_quantile_keys_impl(
    Exec& exec, std::span<const Key> keys, const MultiQuantileParams& params) {
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(!params.phis.empty(), "at least one quantile target required");
  for (const double phi : params.phis) {
    // NaN and +/-inf compare false here, so non-finite targets are
    // rejected by the same check (pinned by tests/test_multi_quantile.cpp).
    GQ_REQUIRE(phi >= 0.0 && phi <= 1.0, "phi must lie in [0,1]");
  }
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");
  GQ_REQUIRE(params.final_sample_size >= 1,
             "final sample size must be positive");

  GQ_SPAN("pipeline/multi_quantile");
  const Metrics before = exec.metrics();

  // Stable first-appearance dedupe: duplicated targets share one lane (one
  // run on the fallback route), so they cost nothing extra; `slot` maps
  // each caller position back to its unique lane.  Dedupe happens before
  // any randomness so a duplicated target list leaves the transcript of
  // its deduped equivalent untouched.
  std::vector<double> unique;
  std::vector<std::size_t> slot(params.phis.size());
  for (std::size_t i = 0; i < params.phis.size(); ++i) {
    std::size_t u = 0;
    while (u < unique.size() && unique[u] != params.phis[i]) ++u;
    if (u == unique.size()) unique.push_back(params.phis[i]);
    slot[i] = u;
  }

  MultiQuantileResult out;
  out.unique_targets = unique.size();
  std::vector<ApproxQuantileResult> per_unique(unique.size());

  const bool shared = exec.faultless() &&
                      !(params.eps < eps_tournament_floor(n)) &&
                      unique.size() <= kMaxSharedLanes;
  if (!shared) {
    // Deduped independent runs; the approx route supplies the exact
    // fallback and the robust failure-model branch per target.
    ApproxQuantileParams ap;
    ap.eps = params.eps;
    ap.final_sample_size = params.final_sample_size;
    ap.robust_coverage_rounds = params.robust_coverage_rounds;
    for (std::size_t u = 0; u < unique.size(); ++u) {
      ap.phi = unique[u];
      per_unique[u] = approx_quantile_keys(exec, keys, ap);
    }
  } else {
    std::vector<MultiLaneSpec> lanes(unique.size());
    std::size_t phase1_max = 0;
    for (std::size_t u = 0; u < unique.size(); ++u) {
      const auto [side, start] = tournament_side(unique[u], params.eps);
      lanes[u].suppress_high = side == TournamentSide::kSuppressHigh;
      lanes[u].schedule = two_tournament_schedule(start, params.eps);
      phase1_max = std::max(phase1_max, lanes[u].schedule.iterations());
    }
    // Lemma 2.11 as in the single-target pipeline: Phase 2 approximates
    // the median of each lane's Phase-1 configuration to eps/4, and its
    // schedule depends only on (eps, n) — identical for every lane.
    const double phase2_eps = params.eps / 4.0;
    const ThreeTournamentSchedule phase2 =
        three_tournament_schedule(phase2_eps, n);
    const std::uint32_t k_samples = params.final_sample_size | 1u;

    multi_tournament_begin(exec, keys,
                           static_cast<std::uint32_t>(lanes.size()));
    {
      GQ_SPAN("multi/two_tournament");
      std::vector<MultiLaneStep> steps(lanes.size());
      for (std::size_t iter = 0; iter < phase1_max; ++iter) {
        for (std::size_t u = 0; u < lanes.size(); ++u) {
          steps[u].active = iter < lanes[u].schedule.iterations();
          steps[u].suppress_high = lanes[u].suppress_high;
          steps[u].delta =
              steps[u].active ? lanes[u].schedule.delta[iter] : 1.0;
        }
        multi_two_iteration(exec, steps);
      }
    }
    std::vector<std::vector<Key>> outputs;
    {
      GQ_SPAN("multi/three_tournament");
      for (std::size_t iter = 0; iter < phase2.iterations(); ++iter) {
        multi_three_iteration(exec);
      }
      multi_final_sample(exec, k_samples, outputs);
    }
    for (std::size_t u = 0; u < unique.size(); ++u) {
      per_unique[u].outputs = std::move(outputs[u]);
      per_unique[u].valid.assign(n, true);
      per_unique[u].phase1_iterations = lanes[u].schedule.iterations();
      per_unique[u].phase2_iterations = phase2.iterations();
    }
  }

  out.metrics = exec.metrics().since(before);
  out.rounds = out.metrics.rounds;
  out.shared_schedule = shared;
  if (shared) {
    // Every target's answer cost the whole shared run.
    for (ApproxQuantileResult& r : per_unique) r.rounds = out.rounds;
  }
  out.per_phi.resize(params.phis.size());
  for (std::size_t i = 0; i < params.phis.size(); ++i) {
    out.per_phi[i] = per_unique[slot[i]];
  }
  return out;
}

}  // namespace multi_detail
}  // namespace gq
