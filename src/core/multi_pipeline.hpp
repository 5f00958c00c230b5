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
//   * Round A: every node draws ONE first sample and sends its vector:
//     one message of (#active lanes) x key_bits(n) bits.
//   * Round B: every node flips each *active* lane's delta coin in lane
//     order (delta >= 1.0 short-circuits without consuming a draw), then —
//     if any lane tournaments — draws ONE shared second sample and sends
//     one message of (#tournament lanes) x key_bits(n) bits.  Commits are
//     per-lane against the iteration-start snapshot: tournament lanes take
//     min/max by their side, non-tournament active lanes adopt the first
//     sample, lanes whose own schedule has ended keep their value.
//
// Phase 2 (3-TOURNAMENT, Algorithm 2) needs no per-lane schedule at all:
// three_tournament_schedule(eps/4, n) depends only on (eps, n), so every
// lane runs the same iterations off the same three shared pulls per
// iteration (one draw per node per round, messages of q x key_bits(n)),
// committing median-of-three per lane; the final K sampling rounds share
// their draws the same way, with a per-lane nth_element median.
//
// Consequences, pinned by tests/test_multi_quantile.cpp:
//   * q = 1 is the single-target pipeline: approx_quantile's failure-free
//     route and the public two_tournament / three_tournament run one lane
//     of these kernels on both executors.
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
// The templates take the executor itself and call, by argument-dependent
// lookup, approx_quantile_keys (the per-target route) and the five lane
// kernels declared below for Network and in engine/kernels.hpp for Engine:
//
//   multi_tournament_begin(exec, keys, lanes);  // broadcast keys to lanes
//   multi_two_iteration(exec, steps);           // one shared Phase-1 step
//   multi_three_iteration(exec);                // one shared Phase-2 step
//   multi_final_sample(exec, k_samples, outputs);
//   multi_lane_export(exec, lane, state);       // one lane's current state
//
// Their lane state lives in the executor's pooled scratch, so it persists
// from begin to final_sample and keeps its capacity across runs.
//
// Instantiated by core/multi_quantile.cpp, core/two_tournament.cpp and
// core/three_tournament.cpp (Network), and by engine/pipelines.cpp and
// engine/kernels.cpp (Engine); bit-identity of the two is pinned by
// tests/test_engine_multi.cpp and tests/test_engine.cpp at 1/2/8 threads.
// Callers: the public multi_quantile batch, approx_quantile (and with it
// the exact pipeline's Step 10 and the service's quantile queries), the
// service's kMultiQuantile queries, and Algorithm 3's Steps 3-4
// (core/exact_pipeline.hpp), whose two brackets ride one run and whose
// robust/adversarial iterations take the per-target route.
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
#include "core/three_tournament.hpp"
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
// Copies lane `lane`'s current state (one key per node) into `state`.
void multi_lane_export(Network& net, std::uint32_t lane,
                       std::span<Key> state);

namespace multi_detail {

// Trace names of a shared run's two phases.  Each route interns its own
// once, so traces keep telling the approx and multi routes apart.
struct PhaseSpans {
  telemetry::SpanId two_tournament = 0;
  telemetry::SpanId three_tournament = 0;
};

// The shared route: every target in `phis` is one lane of ONE failure-free
// tournament run (the protocol above), and lane l's outputs, valid mask
// and phase iteration counts land in results[l].  The key intern (on the
// Engine) happens inside the Phase-1 span.  `truncate_last = false` runs
// every lane's last Phase-1 iteration as a full tournament (ablation A1).
template <typename Exec>
void shared_tournament(Exec& exec, std::span<const Key> keys,
                       std::span<const double> phis, double eps,
                       std::uint32_t final_sample_size, bool truncate_last,
                       const PhaseSpans& spans,
                       std::span<ApproxQuantileResult> results) {
  const std::uint32_t n = exec.size();
  const std::size_t q = phis.size();
  std::vector<TwoTournamentSchedule> schedules(q);
  std::vector<MultiLaneStep> steps(q);
  std::size_t phase1_max = 0;
  for (std::size_t l = 0; l < q; ++l) {
    const auto [side, start] = tournament_side(phis[l], eps);
    steps[l].suppress_high = side == TournamentSide::kSuppressHigh;
    schedules[l] = two_tournament_schedule(start, eps);
    phase1_max = std::max(phase1_max, schedules[l].iterations());
  }
  // Lemma 2.11: Phase 2 approximates the median of each lane's Phase-1
  // configuration to eps/4, because every quantile in [1/2 - eps/4,
  // 1/2 + eps/4] of it lies in the lane's original [phi - eps, phi + eps]
  // window.  Its schedule depends only on (eps, n), identical for every
  // lane.
  const ThreeTournamentSchedule phase2 =
      three_tournament_schedule(eps / 4.0, n);

  {
    const telemetry::Span span(spans.two_tournament);
    multi_tournament_begin(exec, keys, static_cast<std::uint32_t>(q));
    for (std::size_t iter = 0; iter < phase1_max; ++iter) {
      for (std::size_t l = 0; l < q; ++l) {
        steps[l].active = iter < schedules[l].iterations();
        steps[l].delta = steps[l].active && truncate_last
                             ? schedules[l].delta[iter]
                             : 1.0;
      }
      multi_two_iteration(exec, steps);
    }
  }
  std::vector<std::vector<Key>> outputs;
  {
    const telemetry::Span span(spans.three_tournament);
    for (std::size_t iter = 0; iter < phase2.iterations(); ++iter) {
      multi_three_iteration(exec);
    }
    multi_final_sample(exec, final_sample_size | 1u, outputs);
  }
  for (std::size_t l = 0; l < q; ++l) {
    results[l].outputs = std::move(outputs[l]);
    results[l].valid.assign(n, true);
    results[l].phase1_iterations = schedules[l].iterations();
    results[l].phase2_iterations = phase2.iterations();
  }
}

// Algorithm 1 on `state` in place, as one lane of the shared kernels; the
// body of both executors' two_tournament.  The observer (Network only)
// sees the lane exported after every iteration.
template <typename Exec>
TwoTournamentOutcome two_tournament_impl(Exec& exec, std::vector<Key>& state,
                                         double phi, double eps,
                                         bool truncate_last,
                                         const TournamentObserver& observer) {
  GQ_REQUIRE(state.size() == exec.size(), "one key per node required");
  GQ_REQUIRE(phi >= 0.0 && phi <= 1.0, "phi must lie in [0,1]");
  GQ_REQUIRE(eps > 0.0 && eps < 0.5, "eps must lie in (0, 1/2)");
  GQ_REQUIRE(exec.faultless(),
             "two_tournament is the failure-free variant; use "
             "robust_two_tournament under a failure model or adversary");

  TwoTournamentOutcome out;
  const auto [side, start] = tournament_side(phi, eps);
  out.side = side;
  out.schedule = two_tournament_schedule(start, eps);
  MultiLaneStep step{.active = true,
                     .suppress_high = side == TournamentSide::kSuppressHigh};
  multi_tournament_begin(exec, state, 1);
  while (out.iterations < out.schedule.iterations()) {
    step.delta = truncate_last ? out.schedule.delta[out.iterations] : 1.0;
    multi_two_iteration(exec, std::span<const MultiLaneStep>(&step, 1));
    ++out.iterations;
    if (observer) {
      multi_lane_export(exec, 0, state);
      observer(out.iterations, state);
    }
  }
  multi_lane_export(exec, 0, state);
  return out;
}

// Algorithm 2 on `state` in place, as one lane of the shared kernels; the
// body of both executors' three_tournament.
template <typename Exec>
ThreeTournamentOutcome three_tournament_impl(
    Exec& exec, std::vector<Key>& state, double eps,
    std::uint32_t final_sample_size, const TournamentObserver& observer) {
  GQ_REQUIRE(state.size() == exec.size(), "one key per node required");
  GQ_REQUIRE(eps > 0.0 && eps < 0.5, "eps must lie in (0, 1/2)");
  GQ_REQUIRE(final_sample_size >= 1, "final sample size must be positive");
  GQ_REQUIRE(exec.faultless(),
             "three_tournament is the failure-free variant; use "
             "robust_three_tournament under a failure model or adversary");

  ThreeTournamentOutcome out;
  out.schedule = three_tournament_schedule(eps, exec.size());
  multi_tournament_begin(exec, state, 1);
  while (out.iterations < out.schedule.iterations()) {
    multi_three_iteration(exec);
    ++out.iterations;
    if (observer) {
      multi_lane_export(exec, 0, state);
      observer(out.iterations, state);
    }
  }
  std::vector<std::vector<Key>> outputs;
  multi_final_sample(exec, final_sample_size | 1u, outputs);
  out.outputs = std::move(outputs[0]);
  multi_lane_export(exec, 0, state);
  return out;
}

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
    static const PhaseSpans spans{
        telemetry::register_span("multi/two_tournament"),
        telemetry::register_span("multi/three_tournament")};
    shared_tournament(exec, keys, unique, params.eps,
                      params.final_sample_size, /*truncate_last=*/true,
                      spans, per_unique);
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
