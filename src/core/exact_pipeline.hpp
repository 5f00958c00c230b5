// The executor-independent control flow of Algorithm 3 (exact quantile).
//
// Every branch of the bracketing bookkeeping is observable in round counts
// and Metrics, so the pipeline is ONE template over the executor and both
// executors instantiate the same control flow:
//
//   * core/exact_quantile.cpp  — over the sequential Network;
//   * engine/pipelines.cpp     — over the parallel Engine.
//
// The template calls each substrate by argument-dependent lookup on the
// executor: the per-executor entry points approx_quantile_keys,
// multi_quantile_keys and token_split_distribute, and the collectives
// spread_min, spread_max, spread_min_max (agg/spread.hpp), gossip_count,
// gossip_rank, gossip_count3 (agg/rank_count.hpp) and
// sample_uniform_candidate (core/pivot.hpp), which are one template each
// over the executor's two round kernels, push_sum_average_multi and
// spread_best; plus the executor's own size / seed / round / metrics /
// failures.  Bit-identity of the two paths then reduces to bit-identity of
// each kernel, which tests/test_engine.cpp pins kernel by kernel.
//
// Steps 3-4 run on the shared schedule of core/multi_pipeline.hpp: the
// (k/n - s)- and (k/n + s)-quantile brackets are two lanes of ONE
// tournament run, and their extremes spread as two lanes of ONE pull
// sequence (spread_min_max), which stops once both lanes agree everywhere.
// When multi_quantile routes per target instead (a failure model or
// adversary is installed, or the slack sits below the tournament floor),
// the iteration runs two approx runs and then two single-lane spreads, so
// robust and adversarial transcripts do not depend on the shared schedule.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/approx_quantile.hpp"
#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/pivot.hpp"
#include "core/result.hpp"
#include "core/token_split.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq::exact_detail {

// Safety cap on bracketing iterations (the paper uses a fixed 25, whose
// constants only close at astronomical n; we terminate adaptively once the
// duplicated answer block covers the final approximation window).
inline constexpr std::uint32_t kMaxIterations = 64;

// Cap on selection-endgame phases (only reached for pathological inputs).
inline constexpr std::uint32_t kMaxEndgamePhases = 256;

// Structured throw-site context for ExactPipelineError: which run (seed, n)
// aborted, where (phase label), and when.  The round is the executor's
// stream-relative counter (reset by reset_stream), not lifetime Metrics
// rounds, so warm service attempts abort with the same context as a cold
// run — the context is part of the differential contract.
template <typename Exec>
ExactPipelineError::Context abort_context(Exec& exec, const char* phase) {
  ExactPipelineError::Context context;
  context.seed = exec.seed();
  context.round = exec.round();
  context.n = exec.size();
  context.phase = phase;
  return context;
}

struct PipelineOutcome {
  Key answer = Key::infinite();
  std::vector<Key> outputs;
  std::vector<bool> valid;
  std::size_t iterations = 0;
  std::size_t endgame_phases = 0;
};

// Runs `step` and bills the rounds it consumed to `bucket`.
template <typename Exec, typename Step>
auto metered(Exec& exec, std::uint64_t& bucket, Step&& step) {
  const std::uint64_t before = exec.metrics().rounds;
  auto result = step();
  bucket += exec.metrics().rounds - before;
  return result;
}

// Broadcasts the smallest valued key among `contributions` (anything but
// the Step-6 marker; a genuine -inf input is a value) to every node.
template <typename Exec>
Key broadcast_min_valued(Exec& exec, const std::vector<Key>& contributions,
                         std::vector<Key>& outputs,
                         ExactRoundBreakdown& spent) {
  SpreadResult sr = metered(exec, spent.spreads, [&] {
    return spread_min(exec, contributions);
  });
  GQ_REQUIRE(sr.converged && sr.values.front() != Key::infinite(),
             "answer broadcast failed to converge on a valued key");
  outputs = std::move(sr.values);
  return outputs.front();
}

// Uniform-pivot selection phases (shared mechanics with the KDG03
// baseline): find the key of rank k within `inst` and broadcast it.
template <typename Exec>
PipelineOutcome selection_endgame(Exec& exec, std::vector<Key>& inst,
                                  std::uint64_t k,
                                  std::size_t iterations_so_far,
                                  ExactRoundBreakdown& spent) {
  GQ_SPAN("exact/selection_endgame");
  const std::uint32_t n = exec.size();
  PipelineOutcome out;
  out.iterations = iterations_so_far;

  Key lo_e = Key::neg_infinite();
  Key hi_e = Key::infinite();
  std::vector<bool> candidate(n);
  for (std::uint32_t phase = 0; phase < kMaxEndgamePhases; ++phase) {
    GQ_SPAN("exact/endgame_phase");
    for (std::uint32_t v = 0; v < n; ++v) {
      candidate[v] =
          inst[v] != Key::infinite() && lo_e < inst[v] && inst[v] < hi_e;
    }
    const PivotSample pv = metered(exec, spent.endgame, [&] {
      return sample_uniform_candidate(exec, inst, candidate);
    });
    if (!pv.found) {
      throw ExactPipelineError(
          ExactPipelineError::Kind::kEndgameNoCandidates,
          "selection endgame ran out of candidates (count inconsistency)",
          abort_context(exec, "selection_endgame"));
    }
    ++out.endgame_phases;
    const std::uint64_t rank =
        metered(exec, spent.endgame,
                [&] { return gossip_rank(exec, inst, pv.pivot); })
            .counts[0];
    if (rank == k) {
      out.answer = pv.pivot;
      out.outputs.assign(n, pv.pivot);
      out.valid.assign(n, true);
      return out;
    }
    if (rank > k) {
      hi_e = pv.pivot;
    } else {
      lo_e = pv.pivot;
    }
  }
  throw ExactPipelineError(ExactPipelineError::Kind::kEndgameStalled,
                           "selection endgame did not converge",
                           abort_context(exec, "selection_endgame"));
}

// Predicted round costs used by ExactStrategy::kAuto.  These only steer the
// strategy choice; all reported costs are measured, not predicted.
//
// One calibration per bracketing route.  The per-target route (failure
// model, adversary, slack below the tournament floor) prices two approx
// runs and two spreads per iteration and 1.6 log2 + 4 endgame phases; both
// run about 1.5-2x above measured costs, which cancel in the comparison,
// and keeping them keeps robust and adversarial transcripts pinned.  The
// shared route prices what it runs: one two-lane bracket run and one pair
// spread per iteration, and the endgame phases as measured on failure-free
// runs.
struct CostModel {
  double per_endgame_phase;  // pivot spread + exact count
  double per_iteration;      // bracketing + triple count + tokens
  bool shared;

  // Predicted selection phases to find one rank among `survivors`
  // candidates.  Uniform pivots shave ~log2(4/3) candidates per phase; the
  // shared-route fit is within 1.5 phases of the measured means for 10^2
  // to 2.5 * 10^3 survivors.
  [[nodiscard]] double endgame_phases(std::uint64_t survivors) const {
    const double lg =
        std::log2(std::max(2.0, static_cast<double>(survivors)));
    return shared ? 1.2 * lg + 1.0 : 1.6 * lg + 4.0;
  }

  static CostModel build(std::uint32_t n, std::uint64_t exact_count_rounds,
                         double slack, bool shared) {
    const auto nd = static_cast<double>(n);
    const double log2n = std::log2(nd);
    const double count_rounds = static_cast<double>(exact_count_rounds);
    const double spread_rounds = 2.0 * log2n + 10.0;
    const double approx_rounds =
        3.0 * (phase1_iteration_bound(slack) +
               phase2_iteration_bound(slack / 4.0, n)) +
        20.0;
    CostModel m{};
    m.shared = shared;
    m.per_endgame_phase = 1.0 + spread_rounds + count_rounds;
    const double runs = shared ? 1.0 : 2.0;
    m.per_iteration = runs * approx_rounds + runs * spread_rounds +
                      count_rounds + log2n + 10.0;
    return m;
  }
};

// One iteration's bracket: lo/hi as spread to every node (a side whose run
// served no node comes back as its sentinel), and whether the two targets
// shared one schedule.
struct Bracket {
  Key lo;
  Key hi;
  bool shared = false;
};

// Steps 3-4: approximate the two target quantiles of `inst` and spread the
// lower run's minimum and the upper run's maximum to every node.
template <typename Exec>
Bracket bracket(Exec& exec, std::span<const Key> inst,
                const MultiQuantileParams& targets,
                ExactRoundBreakdown& spent) {
  MultiQuantileResult runs =
      metered(exec, spent.brackets,
              [&] { return multi_quantile_keys(exec, inst, targets); });
  ApproxQuantileResult& r_lo = runs.per_phi[0];
  ApproxQuantileResult& r_hi = runs.per_phi[1];
  for (std::size_t v = 0; v < inst.size(); ++v) {
    if (!r_lo.valid[v]) r_lo.outputs[v] = Key::infinite();
    if (!r_hi.valid[v]) r_hi.outputs[v] = Key::neg_infinite();
  }
  if (runs.shared_schedule) {
    const GenericSpreadResult<MinMaxKeys> both =
        metered(exec, spent.spreads, [&] {
          return spread_min_max(exec, std::move(r_lo.outputs),
                                std::move(r_hi.outputs));
        });
    return {both.values.front().min, both.values.front().max, true};
  }
  const SpreadResult s_lo = metered(
      exec, spent.spreads, [&] { return spread_min(exec, r_lo.outputs); });
  const SpreadResult s_hi = metered(
      exec, spent.spreads, [&] { return spread_max(exec, r_hi.outputs); });
  return {s_lo.values.front(), s_hi.values.front(), false};
}

template <typename Exec>
PipelineOutcome run_pipeline(Exec& exec, std::span<const Key> keys,
                             const ExactQuantileParams& params,
                             ExactRoundBreakdown& spent) {
  GQ_SPAN("exact/run_pipeline");
  const std::uint32_t n = exec.size();
  const auto nd = static_cast<double>(n);

  // Target rank among the original keys.
  std::uint64_t k = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(params.phi * nd)), 1, n);

  // Per-iteration slack (see ExactQuantileParams::slack).
  const double s = params.slack > 0.0
                       ? params.slack
                       : eps_tournament_floor(n);
  GQ_REQUIRE(s > 0.0 && s < 0.5, "bracketing slack must lie in (0, 1/2)");
  // The answer block must cover the final run's rank window [k-3sn, k-sn].
  const std::uint64_t block_target =
      static_cast<std::uint64_t>(std::ceil(3.0 * s * nd)) + 1;

  std::vector<Key> inst(keys.begin(), keys.end());
  std::uint64_t block = 1;  // ranks (k-block, k] of inst all hold the answer
  PipelineOutcome out;

  // The brackets take the min/max over ALL nodes' outputs, so a single
  // tail outlier inflates the window.  K = 31 drives the per-node outlier
  // probability below 1/poly(n) (Lemma 2.17 amplification).
  constexpr std::uint32_t kBracketSamples = 31;
  ApproxQuantileParams inner;
  inner.eps = s;
  inner.final_sample_size = kBracketSamples;
  MultiQuantileParams targets;
  targets.eps = s;
  targets.final_sample_size = kBracketSamples;
  targets.phis.resize(2);

  const auto endgame = [&] {
    return selection_endgame(exec, inst, k, out.iterations, spent);
  };

  while (true) {
    if (block >= k) {
      // The answer block covers every rank <= k, so the smallest surviving
      // key is an answer copy; one min-broadcast finishes (this is also the
      // phi ~ 0 fast path, where k0 = 1 makes the input minimum the answer).
      out.answer = broadcast_min_valued(exec, inst, out.outputs, spent);
      out.valid.assign(n, true);
      return out;
    }
    if (block >= block_target) {
      // Step 10: one approximate query lands every node inside the answer
      // block; broadcast the smallest output to serve stragglers.
      inner.phi = std::clamp(static_cast<double>(k) / nd - 2.0 * s, 0.0, 1.0);
      ApproxQuantileResult fin = metered(
          exec, spent.brackets,
          [&] { return approx_quantile_keys(exec, inst, inner); });
      for (std::uint32_t v = 0; v < n; ++v) {
        if (!fin.valid[v]) fin.outputs[v] = Key::infinite();
      }
      out.answer = broadcast_min_valued(exec, fin.outputs, out.outputs, spent);
      out.valid.assign(n, true);
      return out;
    }
    if (out.iterations >= kMaxIterations) return endgame();
    ++out.iterations;
    GQ_SPAN("exact/iteration");

    // Steps 3-4: bracket the k/n-quantile from both sides and spread the
    // extremes.
    targets.phis[0] = std::clamp(static_cast<double>(k) / nd - s, 0.0, 1.0);
    targets.phis[1] = std::clamp(static_cast<double>(k) / nd + s, 0.0, 1.0);
    const Bracket br = bracket(exec, inst, targets, spent);
    const Key lo = br.lo;
    const Key hi = br.hi;
    // A bracket can degenerate when an inner run misses its w.h.p. window
    // (e.g. the upper run lands on a valueless node's marker, which sits
    // above every value).  A side is usable only if it spread a value:
    // neither its own "no output" sentinel nor the Step-6 marker.  A
    // one-sided miss is tolerated by dropping that side's filter below; a
    // two-sided or crossed miss makes the iteration useless.
    const bool lo_ok = lo != Key::infinite();
    const bool hi_ok = hi != Key::neg_infinite() && hi != Key::infinite();
    if ((!lo_ok && !hi_ok) || (lo_ok && hi_ok && hi < lo)) {
      if (params.strategy == ExactStrategy::kPreferDuplication) {
        continue;  // re-bracket with fresh randomness
      }
      return endgame();
    }

    // Step 5: exact counts — A = rank(lo), B = rank(hi), F = #valued — in
    // one diffusion.
    std::vector<bool> ind_a(n), ind_b(n), ind_c(n);
    for (std::uint32_t v = 0; v < n; ++v) {
      ind_a[v] = inst[v] <= lo;
      ind_b[v] = inst[v] <= hi;
      ind_c[v] = inst[v] != Key::infinite();
    }
    const TripleCountResult cnt = metered(
        exec, spent.counts,
        [&] { return gossip_count3(exec, ind_a, ind_b, ind_c); });
    const std::uint64_t rank_lo = cnt.a.front();
    const std::uint64_t rank_hi = cnt.b.front();
    const std::uint64_t finite_cnt = cnt.c.front();

    // Exactness of the counts makes these guards sound: a bracket is used
    // only if it provably does not cut the answer away.
    const bool use_lo = lo_ok && rank_lo >= 1 && rank_lo <= k;
    const bool use_hi = hi_ok && rank_hi >= k;
    if (!use_lo && !use_hi) {
      if (params.strategy == ExactStrategy::kPreferDuplication) {
        continue;  // re-bracket with fresh randomness
      }
      return endgame();
    }

    // Step 6: discard values outside [lo, hi].
    for (std::uint32_t v = 0; v < n; ++v) {
      if ((use_lo && inst[v] < lo) || (use_hi && hi < inst[v])) {
        inst[v] = Key::infinite();
      }
    }
    const std::uint64_t removed_below = use_lo ? rank_lo - 1 : 0;
    k -= removed_below;
    block = std::min(block, k);
    const std::uint64_t survivors =
        (use_hi ? rank_hi : finite_cnt) - removed_below;
    if (survivors == 0) {
      throw ExactPipelineError(ExactPipelineError::Kind::kBracketingEmptied,
                               "bracketing removed every candidate",
                               abort_context(exec, "bracketing"));
    }
    if (block >= k) continue;  // finish via the min-broadcast fast path

    // Steps 7-8: duplication.  The paper targets n^0.99 total tokens via
    // m = smallest power of two exceeding (n^0.99/2)/survivors; we take the
    // LARGEST power of two fitting the same target (bounded by 4n/5 so
    // scattering keeps a constant fraction of empty nodes), which dominates
    // the paper's choice whenever it fits and maximizes block growth.
    const double token_target = std::min(std::pow(nd, 0.99), 0.8 * nd);
    std::uint64_t m = 1;
    while (static_cast<double>(2 * m) * static_cast<double>(survivors) <=
           token_target) {
      m *= 2;
    }

    bool go_endgame = false;
    switch (params.strategy) {
      case ExactStrategy::kPreferEndgame:
        go_endgame = true;
        break;
      case ExactStrategy::kPreferDuplication:
        // A degenerate multiplier usually means an outlier widened the
        // window; re-bracketing with fresh randomness shrinks it again, so
        // keep iterating (kMaxIterations still bounds the loop).
        go_endgame = false;
        break;
      case ExactStrategy::kAuto: {
        if (m < 2) {
          go_endgame = block < block_target;
        } else {
          // Compare predicted costs of finishing by duplication vs by
          // selection phases; both finish, this only picks the cheaper.
          // The duplication route terminates when the block reaches either
          // block_target or k itself (the min-broadcast fast path).
          const CostModel cost =
              CostModel::build(n,
                               push_sum_rounds_for_exact(n, exec.failures()),
                               s, br.shared);
          const double goal = static_cast<double>(
              std::min<std::uint64_t>(block_target, k));
          const double dup_iters = std::max(
              1.0, std::ceil(std::log(goal / static_cast<double>(block)) /
                             std::log(static_cast<double>(m))));
          go_endgame = cost.endgame_phases(survivors) *
                           cost.per_endgame_phase <
                       dup_iters * cost.per_iteration;
        }
        break;
      }
    }
    if (go_endgame) return endgame();
    if (m >= 2) {
      GQ_SPAN("exact/token_split");
      TokenSplitResult ts = metered(exec, spent.token_split, [&] {
        return token_split_distribute(
            exec, inst, m, static_cast<std::uint64_t>(out.iterations) << 32);
      });
      inst = std::move(ts.instance);
      k *= m;
      block *= m;
    }
    // m == 1 with block >= block_target falls through to the final run.
  }
}

// The full entry point: pipeline, verification against the original input,
// and the w.h.p.-never retry loop.
template <typename Exec>
ExactQuantileResult exact_quantile_keys_impl(
    Exec& exec, std::span<const Key> keys, const ExactQuantileParams& params) {
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0, "phi must lie in [0,1]");

  GQ_SPAN("pipeline/exact_quantile");
  const auto nd = static_cast<double>(n);
  const std::uint64_t k0 = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(params.phi * nd)), 1, n);
  const Metrics before = exec.metrics();
  ExactRoundBreakdown spent;

  constexpr int kMaxAttempts = 3;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const PipelineOutcome pipe = run_pipeline(exec, keys, params, spent);

    // Verification: the answer's rank among the ORIGINAL keys must be
    // exactly k0.  The probe's maximal tag matches every duplication copy
    // of the answer's (value, id).
    GQ_SPAN("exact/verification");
    const Key probe{pipe.answer.value, pipe.answer.id,
                    std::numeric_limits<std::uint64_t>::max()};
    std::vector<bool> indicator(n);
    for (std::uint32_t v = 0; v < n; ++v) indicator[v] = keys[v] <= probe;
    const std::uint64_t measured =
        metered(exec, spent.verification,
                [&] { return gossip_count(exec, indicator); })
            .counts.front();
    if (measured != k0) continue;  // retry with fresh randomness

    ExactQuantileResult out;
    out.answer = Key{pipe.answer.value, pipe.answer.id, 0};
    out.outputs.assign(n, out.answer);
    out.valid = pipe.valid;
    out.iterations = pipe.iterations;
    out.endgame_phases = pipe.endgame_phases;
    out.rounds = exec.metrics().rounds - before.rounds;
    out.round_breakdown = spent;
    return out;
  }
  throw ExactPipelineError(
      ExactPipelineError::Kind::kVerificationFailed,
      "exact_quantile failed verification after repeated attempts",
      abort_context(exec, "verification"));
}

}  // namespace gq::exact_detail
