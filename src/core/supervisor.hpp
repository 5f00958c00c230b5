// Deterministic run supervision: bounded retries with reseeding and
// parameter escalation around any gossip pipeline run.
//
// A pipeline run can fail three ways: it throws a typed ExactPipelineError
// (count machinery contradicted itself), it completes but served too little
// of the network (verdict below min_served_fraction), or it blew its round
// deadline.  Production cannot stop there — the supervisor wraps the run in
// a bounded attempt budget:
//
//   * attempt 0 runs with the caller's base seed and untouched parameters,
//     so a supervised run that succeeds first try is TRANSCRIPT-IDENTICAL
//     to the bare pipeline (the zero-fault invisibility contract);
//   * attempt a > 0 reseeds deterministically via
//     streams::attempt_seed(base_seed, a) — fresh randomness, reproducible
//     from the base seed alone — escalates parameters (eps scaled by
//     kEpsGrowth^a, filter/fan-out sizes boosted by kFanoutStep * a) and
//     promotes to the robust branch where the caller has one;
//   * every attempt's outcome lands in a typed RunReport, which is part of
//     the bit-identical differential contract: Network and Engine
//     supervising the same run produce equal reports.
//
// Everything here is executor-independent; the attempt callback owns the
// executor.  supervised_adversarial_quantile_keys below wraps one pipeline
// on either executor, and every QuantileService query runs through
// supervise() with a callback that dispatches on the query kind.
#pragma once

#include <cstdint>
#include <exception>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial_pipeline.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/streams.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

enum class AttemptStatus : std::uint8_t {
  kOk,                     // verdict met every threshold
  kQualityBelowThreshold,  // served fraction below min_served_fraction
  kPipelineError,          // the run threw (typed abort or GQ_REQUIRE)
  kDeadlineExceeded,       // rounds consumed exceeded policy.max_rounds
};

[[nodiscard]] constexpr const char* to_string(AttemptStatus status) noexcept {
  switch (status) {
    case AttemptStatus::kOk: return "ok";
    case AttemptStatus::kQualityBelowThreshold: return "quality";
    case AttemptStatus::kPipelineError: return "error";
    case AttemptStatus::kDeadlineExceeded: return "deadline";
  }
  return "unknown";
}

struct SupervisorPolicy {
  // Total attempt budget, first try included (1 = no retries).
  std::uint32_t max_attempts = 3;

  // Per-attempt round deadline; 0 = unlimited.  Checked against the rounds
  // the attempt actually consumed (post-hoc — gossip rounds are cheap and
  // bounded per block, so there is no mid-run preemption to stay
  // deterministic).
  std::uint64_t max_rounds = 0;

  // The served fraction an attempt's verdict must reach to be accepted.
  double min_served_fraction = 0.5;

  friend bool operator==(const SupervisorPolicy&,
                         const SupervisorPolicy&) = default;
};

// Escalation per retry: attempt a scales eps by kEpsGrowth^a and boosts
// filter / fan-out sizes by kFanoutStep * a (capped at the pipeline maxima).
inline constexpr double kEpsGrowth = 1.5;
inline constexpr std::uint32_t kFanoutStep = 2;

// The deterministic knobs of one attempt, derived from (base_seed, attempt)
// alone — both executors derive the identical plan.  Every retry promotes
// to the robust (filtered adversarial) branch where the caller has one;
// attempt 0 is always the bare run.
struct AttemptPlan {
  std::uint32_t attempt = 0;
  std::uint64_t seed = 0;
  double eps_scale = 1.0;
  std::uint32_t fanout_boost = 0;
  bool robust_promoted = false;

  friend bool operator==(const AttemptPlan&, const AttemptPlan&) = default;
};

[[nodiscard]] inline AttemptPlan plan_attempt(std::uint64_t base_seed,
                                              std::uint32_t attempt) {
  AttemptPlan plan;
  plan.attempt = attempt;
  plan.seed = streams::attempt_seed(base_seed, attempt);
  for (std::uint32_t i = 0; i < attempt; ++i) plan.eps_scale *= kEpsGrowth;
  plan.fanout_boost = kFanoutStep * attempt;
  plan.robust_promoted = attempt > 0;
  return plan;
}

// What the attempt callback reports back for judgement.
struct AttemptVerdict {
  double served_fraction = 1.0;
  double corruption_exposure = 0.0;
  std::uint64_t rounds = 0;
};

// One attempt's outcome as recorded in the RunReport.  The corruption
// exposure is reported, not judged: the adversary touches each billed
// message at most once, so the fraction never exceeds 1.
struct AttemptRecord {
  std::uint32_t attempt = 0;
  std::uint64_t seed = 0;
  AttemptStatus status = AttemptStatus::kOk;
  double served_fraction = 0.0;
  double corruption_exposure = 0.0;
  std::uint64_t rounds = 0;

  // Error details, meaningful iff status == kPipelineError; typed_error
  // marks whether error_kind carries an ExactPipelineError::Kind.
  bool typed_error = false;
  ExactPipelineError::Kind error_kind =
      ExactPipelineError::Kind::kEndgameNoCandidates;
  std::string error_what;

  friend bool operator==(const AttemptRecord&, const AttemptRecord&) = default;
};

struct RunReport {
  bool ok = false;  // some attempt succeeded
  std::vector<AttemptRecord> attempts;

  [[nodiscard]] std::uint32_t retries() const noexcept {
    return attempts.empty()
               ? 0
               : static_cast<std::uint32_t>(attempts.size()) - 1;
  }
  [[nodiscard]] std::uint64_t total_rounds() const noexcept {
    std::uint64_t total = 0;
    for (const AttemptRecord& a : attempts) total += a.rounds;
    return total;
  }

  friend bool operator==(const RunReport&, const RunReport&) = default;
};

template <typename Result>
struct SupervisedRun {
  std::optional<Result> result;  // engaged iff report.ok
  RunReport report;
};

// The supervision loop.  `run(plan)` executes one attempt and returns
// std::pair<Result, AttemptVerdict>; throwing is a failed attempt, not a
// supervisor crash — ExactPipelineError keeps its typed kind in the record,
// anything else (e.g. a GQ_REQUIRE'd convergence failure under extreme
// faults) is recorded by message.  Stops at the first accepted attempt or
// when the budget is exhausted; the caller decides what exhaustion means
// (the service serves a degraded sketch answer, tests assert).
template <typename Result, typename RunFn>
SupervisedRun<Result> supervise(const SupervisorPolicy& policy,
                                std::uint64_t base_seed, RunFn&& run) {
  GQ_REQUIRE(policy.max_attempts >= 1,
             "supervisor needs at least one attempt");
  SupervisedRun<Result> out;
  for (std::uint32_t attempt = 0; attempt < policy.max_attempts; ++attempt) {
    const AttemptPlan plan = plan_attempt(base_seed, attempt);
    AttemptRecord record;
    record.attempt = attempt;
    record.seed = plan.seed;
    {
      GQ_SPAN("supervisor/attempt");
      try {
        auto [result, verdict] = run(plan);
        record.served_fraction = verdict.served_fraction;
        record.corruption_exposure = verdict.corruption_exposure;
        record.rounds = verdict.rounds;
        if (policy.max_rounds != 0 && verdict.rounds > policy.max_rounds) {
          record.status = AttemptStatus::kDeadlineExceeded;
        } else if (verdict.served_fraction < policy.min_served_fraction) {
          record.status = AttemptStatus::kQualityBelowThreshold;
        } else {
          record.status = AttemptStatus::kOk;
          out.result.emplace(std::move(result));
        }
      } catch (const ExactPipelineError& error) {
        record.status = AttemptStatus::kPipelineError;
        record.typed_error = true;
        record.error_kind = error.kind();
        record.error_what = error.what();
      } catch (const std::exception& error) {
        record.status = AttemptStatus::kPipelineError;
        record.error_what = error.what();
      }
    }
    out.report.attempts.push_back(std::move(record));
    if (out.result.has_value()) {
      out.report.ok = true;
      break;
    }
  }
  return out;
}

// Escalated parameter sets for attempt `plan`: coarser eps (clamped below
// the pipelines' 1/2 ceiling), larger filter groups / final sampling
// (clamped at the compile-time caps).  Attempt 0 returns the params
// unchanged.
[[nodiscard]] inline AdversarialQuantileParams escalated(
    AdversarialQuantileParams params, const AttemptPlan& plan) {
  params.eps = std::min(0.49, params.eps * plan.eps_scale);
  params.filter_group = std::min(adversary_detail::kMaxFilterGroup,
                                 params.filter_group + plan.fanout_boost);
  params.final_sample_size =
      std::min(adversary_detail::kMaxFinalSamples,
               params.final_sample_size + 2 * plan.fanout_boost);
  return params;
}

[[nodiscard]] inline ApproxQuantileParams escalated(ApproxQuantileParams params,
                                                    const AttemptPlan& plan) {
  params.eps = std::min(0.49, params.eps * plan.eps_scale);
  params.final_sample_size += 2 * plan.fanout_boost;
  params.robust_coverage_rounds += plan.fanout_boost;
  return params;
}

// ---- executor instantiations ---------------------------------------------
//
// Both Network and Engine expose reset_stream(seed), so one template covers
// the two; the pipeline entry points resolve by argument-dependent lookup
// (core/adversarial.hpp for Network, engine/pipelines.hpp for Engine —
// include the one matching your executor).  Each attempt rebases the
// executor onto the plan seed, so attempt 0 on a fresh executor is the
// bare pipeline run, bit for bit.

template <typename Executor>
SupervisedRun<AdversarialQuantileResult> supervised_adversarial_quantile_keys(
    Executor& executor, std::span<const Key> keys,
    const AdversarialQuantileParams& params, const SupervisorPolicy& policy) {
  return supervise<AdversarialQuantileResult>(
      policy, executor.seed(), [&](const AttemptPlan& plan) {
        executor.reset_stream(plan.seed);
        AdversarialQuantileResult result =
            adversarial_quantile_keys(executor, keys, escalated(params, plan));
        AttemptVerdict verdict;
        verdict.served_fraction = result.quality.served_fraction;
        verdict.corruption_exposure = result.quality.corruption_exposure;
        verdict.rounds = result.rounds;
        return std::pair(std::move(result), verdict);
      });
}

}  // namespace gq
