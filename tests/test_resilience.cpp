// The resilience stack end to end: crash-churn node-lifecycle faults
// (sim/adversary.hpp), the deterministic retry/escalation supervisor
// (core/supervisor.hpp), and the service layer's graceful degradation +
// circuit breaker (service/quantile_service.hpp).
//
// The differential half extends the repo's bit-identical contract to the
// new layer: crash-churn runs, supervisor RunReports, and degraded service
// replies are pinned equal between the sequential Network and the parallel
// Engine at 1/2/8 threads, Metrics (crash tallies included) and warm/cold
// sessions alike.  The invisibility half pins the other direction: with
// zero faults the supervisor and the breaker leave no trace in any
// transcript.  The degradation half forces failure and asserts the service
// answers from the epoch summary — within its stated error bound — instead
// of throwing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/adversarial.hpp"
#include "core/exact_quantile.hpp"
#include "core/supervisor.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "sim/streams.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

EngineConfig config_for(unsigned threads) {
  return EngineConfig{.threads = threads, .shard_size = 192};
}

void expect_same_quantile(const AdversarialQuantileResult& a,
                          const AdversarialQuantileResult& b,
                          const std::string& what) {
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.quality, b.quality) << what;
}

// ---- crash-churn differential --------------------------------------------

TEST(CrashChurn, DifferentialAcrossConfigsAndThreads) {
  constexpr std::uint32_t kN = 1283;
  constexpr std::uint64_t kSeed = 907;
  const auto values = generate_values(Distribution::kUniformReal, kN, 83);
  AdversarialQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  const CrashChurnAdversary::Config configs[] = {
      {.crashes = kN / 16, .first_round = 1, .crash_window = 48,
       .down_rounds = 12, .strategy_seed = 5},   // churn with recovery
      {.crashes = kN / 32, .first_round = 4, .crash_window = 64,
       .down_rounds = 0, .strategy_seed = 9},    // permanent crashes
  };
  for (const auto& config : configs) {
    CrashChurnAdversary crash(config);
    Network net(kN, kSeed);
    net.set_adversary(&crash);
    const auto seq = adversarial_quantile(net, values, params);
    EXPECT_GT(net.metrics().adversary_crashed, 0u);
    if (config.down_rounds > 0) {
      EXPECT_GT(net.metrics().adversary_recovered, 0u);
    }

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      engine.set_adversary(&crash);
      const auto par = adversarial_quantile(engine, values, params);
      const std::string what = "down_rounds=" +
                               std::to_string(config.down_rounds) +
                               " threads=" + std::to_string(threads);
      expect_same_quantile(par, seq, what);
      EXPECT_EQ(engine.metrics(), net.metrics()) << what;
    }
  }
}

TEST(CrashChurn, PinnedScheduleExcludesDownNodesFromServing) {
  constexpr std::uint32_t kN = 1031;
  const auto values = generate_values(Distribution::kGaussian, kN, 89);
  // Node 3 dies in round 1 and never comes back; node 10 bounces briefly.
  CrashChurnAdversary crash(std::vector<CrashEvent>{
      {.node = 3, .crash_round = 1, .recover_round = kNoRecovery},
      {.node = 10, .crash_round = 2, .recover_round = 6},
  });
  Network net(kN, 911);
  net.set_adversary(&crash);
  AdversarialQuantileParams params;
  params.eps = 0.1;
  const auto r = adversarial_quantile(net, values, params);
  EXPECT_FALSE(r.valid[3]);  // down at the end: cannot be served
  EXPECT_LT(r.quality.served_fraction, 1.0);
  EXPECT_GT(net.metrics().adversary_crashed, 0u);
  EXPECT_EQ(net.metrics().adversary_recovered, 1u);
}

TEST(CrashChurn, ZeroCrashStrategyIsTranscriptInvisible) {
  constexpr std::uint32_t kN = 769;
  constexpr std::uint64_t kSeed = 31;
  const auto values = generate_values(Distribution::kUniformReal, kN, 7);
  AdversarialQuantileParams params;
  params.eps = 0.15;

  Network plain(kN, kSeed);
  const auto bare = adversarial_quantile(plain, values, params);

  CrashChurnAdversary none(CrashChurnAdversary::Config{.crashes = 0});
  Network with(kN, kSeed);
  with.set_adversary(&none);
  const auto observed = adversarial_quantile(with, values, params);
  expect_same_quantile(observed, bare, "zero-crash adversary");
  EXPECT_EQ(with.metrics(), plain.metrics());
}

// ---- supervisor unit behaviour -------------------------------------------

TEST(Supervisor, AttemptSeedsAndPlansAreDeterministic) {
  EXPECT_EQ(streams::attempt_seed(1234, 0), 1234u);  // attempt 0 IS the run
  EXPECT_NE(streams::attempt_seed(1234, 1), 1234u);
  EXPECT_NE(streams::attempt_seed(1234, 1), streams::attempt_seed(1234, 2));
  EXPECT_EQ(streams::attempt_seed(1234, 3), streams::attempt_seed(1234, 3));

  const AttemptPlan first = plan_attempt(77, 0);
  EXPECT_EQ(first.seed, 77u);
  EXPECT_DOUBLE_EQ(first.eps_scale, 1.0);
  EXPECT_EQ(first.fanout_boost, 0u);
  EXPECT_FALSE(first.robust_promoted);

  const AttemptPlan second = plan_attempt(77, 2);
  EXPECT_DOUBLE_EQ(second.eps_scale, kEpsGrowth * kEpsGrowth);
  EXPECT_EQ(second.fanout_boost, 2 * kFanoutStep);
  EXPECT_TRUE(second.robust_promoted);
}

TEST(Supervisor, RecordsTypedErrorsQualityFailuresAndSuccess) {
  SupervisorPolicy policy;
  policy.max_attempts = 3;
  auto run = [](const AttemptPlan& plan) {
    if (plan.attempt == 0) {
      ExactPipelineError::Context context;
      context.seed = plan.seed;
      context.round = 7;
      context.n = 64;
      context.phase = "bracketing";
      throw ExactPipelineError(ExactPipelineError::Kind::kBracketingEmptied,
                               "forced", context);
    }
    AttemptVerdict verdict;
    verdict.served_fraction = plan.attempt == 1 ? 0.2 : 1.0;
    verdict.rounds = plan.attempt == 1 ? 5 : 9;
    return std::pair(static_cast<int>(plan.attempt), verdict);
  };
  const SupervisedRun<int> out = supervise<int>(policy, 1234, run);
  ASSERT_TRUE(out.report.ok);
  ASSERT_TRUE(out.result.has_value());
  EXPECT_EQ(*out.result, 2);
  ASSERT_EQ(out.report.attempts.size(), 3u);
  EXPECT_EQ(out.report.retries(), 2u);
  EXPECT_EQ(out.report.total_rounds(), 14u);

  const AttemptRecord& aborted = out.report.attempts[0];
  EXPECT_EQ(aborted.status, AttemptStatus::kPipelineError);
  EXPECT_TRUE(aborted.typed_error);
  EXPECT_EQ(aborted.error_kind, ExactPipelineError::Kind::kBracketingEmptied);
  EXPECT_NE(aborted.error_what.find("bracketing-emptied"), std::string::npos);
  EXPECT_NE(aborted.error_what.find("round=7"), std::string::npos);
  EXPECT_EQ(aborted.seed, 1234u);

  EXPECT_EQ(out.report.attempts[1].status,
            AttemptStatus::kQualityBelowThreshold);
  EXPECT_EQ(out.report.attempts[1].seed, streams::attempt_seed(1234, 1));
  EXPECT_EQ(out.report.attempts[2].status, AttemptStatus::kOk);
}

TEST(Supervisor, DeadlineExhaustsTheBudget) {
  SupervisorPolicy policy;
  policy.max_attempts = 2;
  policy.max_rounds = 4;
  const SupervisedRun<int> out =
      supervise<int>(policy, 9, [](const AttemptPlan&) {
        AttemptVerdict verdict;
        verdict.rounds = 10;
        return std::pair(0, verdict);
      });
  EXPECT_FALSE(out.report.ok);
  EXPECT_FALSE(out.result.has_value());
  ASSERT_EQ(out.report.attempts.size(), 2u);
  for (const AttemptRecord& record : out.report.attempts) {
    EXPECT_EQ(record.status, AttemptStatus::kDeadlineExceeded);
  }
}

TEST(ExactPipelineErrorContext, FormatsAndExposesTheAbortSite) {
  ExactPipelineError::Context context;
  context.seed = 77;
  context.round = 123;
  context.n = 1024;
  context.phase = "selection_endgame";
  const ExactPipelineError error(ExactPipelineError::Kind::kEndgameStalled,
                                 "no progress", context);
  EXPECT_EQ(error.kind(), ExactPipelineError::Kind::kEndgameStalled);
  EXPECT_EQ(error.context(), context);
  const std::string what = error.what();
  EXPECT_NE(what.find("endgame-stalled"), std::string::npos);
  EXPECT_NE(what.find("phase=selection_endgame"), std::string::npos);
  EXPECT_NE(what.find("round=123"), std::string::npos);
  EXPECT_NE(what.find("n=1024"), std::string::npos);
  EXPECT_NE(what.find("seed=77"), std::string::npos);
  EXPECT_NE(what.find("no progress"), std::string::npos);
}

// ---- supervisor over the real pipelines ----------------------------------

TEST(Supervisor, ZeroFaultSupervisedRunIsBitIdenticalToBarePipeline) {
  constexpr std::uint32_t kN = 700;
  constexpr std::uint64_t kSeed = 4242;
  const auto values = generate_values(Distribution::kUniformReal, kN, 11);
  const auto keys = make_keys(values);
  AdversarialQuantileParams params;
  params.eps = 0.15;

  Network bare(kN, kSeed);
  const auto plain = adversarial_quantile_keys(bare, keys, params);

  Network supervised_net(kN, kSeed);
  const auto seq = supervised_adversarial_quantile_keys(
      supervised_net, keys, params, SupervisorPolicy{});
  ASSERT_TRUE(seq.report.ok);
  ASSERT_TRUE(seq.result.has_value());
  EXPECT_EQ(seq.report.attempts.size(), 1u);  // first try accepted
  expect_same_quantile(*seq.result, plain, "supervised vs bare");
  EXPECT_EQ(supervised_net.metrics(), bare.metrics());

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const auto par = supervised_adversarial_quantile_keys(
        engine, keys, params, SupervisorPolicy{});
    ASSERT_TRUE(par.report.ok);
    expect_same_quantile(*par.result, plain,
                         "threads=" + std::to_string(threads));
    EXPECT_EQ(par.report, seq.report);
    EXPECT_EQ(engine.metrics(), bare.metrics());
  }
}

TEST(Supervisor, ExhaustedRunReportPinnedAcrossExecutorsAndThreads) {
  constexpr std::uint32_t kN = 1283;
  constexpr std::uint64_t kSeed = 907;
  const auto values = generate_values(Distribution::kUniformReal, kN, 83);
  const auto keys = make_keys(values);
  AdversarialQuantileParams params;
  params.eps = 0.1;
  SupervisorPolicy policy;
  policy.max_attempts = 2;
  // Permanent crashes keep served fraction below this unattainable bar, so
  // every attempt fails on quality and the budget exhausts — the RunReport
  // (statuses, per-attempt served fractions, rounds, seeds) must still be
  // identical across executors and thread counts.
  policy.min_served_fraction = 0.999;
  CrashChurnAdversary::Config config{.crashes = kN / 16, .first_round = 1,
                                     .crash_window = 32, .down_rounds = 0,
                                     .strategy_seed = 3};

  CrashChurnAdversary seq_crash(config);
  Network net(kN, kSeed);
  net.set_adversary(&seq_crash);
  const auto seq =
      supervised_adversarial_quantile_keys(net, keys, params, policy);
  EXPECT_FALSE(seq.report.ok);
  EXPECT_FALSE(seq.result.has_value());
  ASSERT_EQ(seq.report.attempts.size(), 2u);
  for (const AttemptRecord& record : seq.report.attempts) {
    EXPECT_EQ(record.status, AttemptStatus::kQualityBelowThreshold);
    EXPECT_LT(record.served_fraction, 0.999);
  }

  for (unsigned threads : kThreadCounts) {
    CrashChurnAdversary par_crash(config);
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    engine.set_adversary(&par_crash);
    const auto par =
        supervised_adversarial_quantile_keys(engine, keys, params, policy);
    EXPECT_EQ(par.report, seq.report) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// ---- service degradation --------------------------------------------------

ServiceConfig resilient_config(unsigned threads) {
  ServiceConfig cfg;
  cfg.seed = 2024;
  cfg.sketch_k = 64;
  cfg.engine.threads = threads;
  cfg.engine.shard_size = 96;
  return cfg;
}

void ingest_fixture(QuantileService& service, std::uint32_t nodes,
                    std::size_t per_node, std::uint64_t seed) {
  const auto values =
      generate_values(Distribution::kUniformReal, nodes * per_node, seed);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    for (std::size_t i = 0; i < per_node; ++i) {
      service.ingest(v, values[v * per_node + i]);
    }
  }
}

TEST(ServiceResilience, ForcedExhaustionServesDegradedWithinBound) {
  constexpr std::uint32_t kNodes = 48;
  ServiceConfig cfg = resilient_config(2);
  cfg.supervisor.max_attempts = 2;
  cfg.supervisor.min_served_fraction = 1.5;  // unattainable: always exhausts
  cfg.breaker.open_after = 0;                // isolate the degraded path
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 5, 17);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.25;
  const QueryReply reply = service.query(request);
  EXPECT_EQ(reply.quality, AnswerQuality::kDegraded);
  EXPECT_EQ(reply.attempts, 2u);
  EXPECT_EQ(reply.served, 0u);
  EXPECT_GT(reply.error_bound, 0.0);

  // m instance keys fit the summary uncompacted, so the degraded answer is
  // the exact phi-quantile of the instance: its rank must sit within the
  // stated bound (plus one-key granularity) of phi.
  std::vector<Key> sorted(service.epoch_keys().begin(),
                          service.epoch_keys().end());
  std::sort(sorted.begin(), sorted.end());
  const auto m = static_cast<double>(sorted.size());
  std::size_t rank = 0;
  while (rank < sorted.size() && !(reply.answer == sorted[rank])) ++rank;
  ASSERT_LT(rank, sorted.size());  // the answer is a real instance key
  const double rank_phi = (static_cast<double>(rank) + 1.0) / m;
  EXPECT_NEAR(rank_phi, request.phi, reply.error_bound + 1.0 / m);

  // Every query kind degrades to a well-formed reply.
  QueryRequest rank_request;
  rank_request.kind = QueryKind::kRank;
  rank_request.value = 0.5;
  const QueryReply rank_reply = service.query(rank_request);
  EXPECT_EQ(rank_reply.quality, AnswerQuality::kDegraded);
  EXPECT_GT(rank_reply.fraction, 0.0);
  EXPECT_LT(rank_reply.fraction, 1.0);

  QueryRequest cdf_request;
  cdf_request.kind = QueryKind::kCdf;
  cdf_request.cdf_points = {0.25, 0.5, 0.75};
  const QueryReply cdf_reply = service.query(cdf_request);
  EXPECT_EQ(cdf_reply.quality, AnswerQuality::kDegraded);
  ASSERT_EQ(cdf_reply.cdf.size(), 3u);
  EXPECT_LE(cdf_reply.cdf[0], cdf_reply.cdf[1]);
  EXPECT_LE(cdf_reply.cdf[1], cdf_reply.cdf[2]);

  QueryRequest multi_request;
  multi_request.kind = QueryKind::kMultiQuantile;
  multi_request.phis = {0.1, 0.5, 0.9};
  const QueryReply multi_reply = service.query(multi_request);
  EXPECT_EQ(multi_reply.quality, AnswerQuality::kDegraded);
  ASSERT_EQ(multi_reply.multi_values.size(), 3u);
  EXPECT_LE(multi_reply.multi_values[0], multi_reply.multi_values[1]);
  EXPECT_LE(multi_reply.multi_values[1], multi_reply.multi_values[2]);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.degraded_answers, 4u);
  EXPECT_EQ(stats.retry_attempts, 4u);  // one retry per exhausted query
}

TEST(ServiceResilience, BreakerOpensCoolsDownAndProbes) {
  constexpr std::uint32_t kNodes = 48;
  ServiceConfig cfg = resilient_config(1);
  cfg.supervisor.max_attempts = 2;
  cfg.supervisor.min_served_fraction = 1.5;  // every engine run exhausts
  cfg.breaker.open_after = 2;
  cfg.breaker.cooldown_queries = 3;
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 5, 17);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;

  // q1, q2: full attempt budgets burn; the second failure opens the breaker.
  EXPECT_EQ(service.query(request).attempts, 2u);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kClosed);
  EXPECT_EQ(service.query(request).attempts, 2u);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kOpen);

  // q3..q5: cooldown — degraded immediately, engine untouched.
  const std::uint64_t rounds_before = service.stats().gossip_rounds;
  for (int i = 0; i < 3; ++i) {
    const QueryReply reply = service.query(request);
    EXPECT_EQ(reply.quality, AnswerQuality::kDegraded);
    EXPECT_EQ(reply.attempts, 0u);
  }
  EXPECT_EQ(service.stats().gossip_rounds, rounds_before);

  // q6: half-open probe runs the full budget, fails, re-opens.
  EXPECT_EQ(service.query(request).attempts, 2u);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kOpen);
  EXPECT_GT(service.stats().gossip_rounds, rounds_before);

  // q7: back in cooldown.
  EXPECT_EQ(service.query(request).attempts, 0u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.degraded_answers, 7u);
  EXPECT_EQ(stats.breaker_opens, 2u);
  EXPECT_EQ(stats.retry_attempts, 3u);  // q1, q2, q6 each retried once

  // Breakers are per kind: the quantile breaker being open does not touch
  // rank queries (which also exhaust here, on their own breaker).
  EXPECT_EQ(service.breaker_state(QueryKind::kRank),
            QuantileService::BreakerState::kClosed);
}

TEST(ServiceResilience, BreakerClosesOnSuccessfulProbe) {
  constexpr std::uint32_t kNodes = 700;
  // Measure the deterministic round costs first (pinned seeds), then pick a
  // deadline between them: fine-eps quantiles blow it, coarse ones fit.
  QuantileService probe(kNodes, resilient_config(1));
  ingest_fixture(probe, kNodes, 3, 23);

  QueryRequest fine;
  fine.kind = QueryKind::kQuantile;
  fine.eps = 0.1;
  fine.seed = 777;
  QueryRequest coarse = fine;
  coarse.eps = 0.3;
  coarse.seed = 778;
  QueryRequest rank_request;
  rank_request.kind = QueryKind::kRank;
  rank_request.value = 0.5;
  rank_request.seed = 779;

  const std::uint64_t fine_rounds = probe.query(fine).rounds;
  const std::uint64_t coarse_rounds = probe.query(coarse).rounds;
  const std::uint64_t rank_rounds = probe.query(rank_request).rounds;
  ASSERT_LT(coarse_rounds, fine_rounds);
  ASSERT_LT(rank_rounds, fine_rounds);

  ServiceConfig cfg = resilient_config(1);
  cfg.supervisor.max_attempts = 1;  // no escalation: eps stays as requested
  cfg.supervisor.max_rounds =
      (std::max(coarse_rounds, rank_rounds) + fine_rounds) / 2;
  cfg.breaker.open_after = 1;
  cfg.breaker.cooldown_queries = 0;
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 3, 23);

  // Fine query blows the deadline: degraded, breaker opens.
  const QueryReply failed = service.query(fine);
  EXPECT_EQ(failed.quality, AnswerQuality::kDegraded);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kOpen);

  // Zero cooldown: the next quantile query is the half-open probe.  The
  // coarse one fits the deadline, so the probe succeeds and closes the
  // breaker.
  const QueryReply probe_reply = service.query(coarse);
  EXPECT_EQ(probe_reply.quality, AnswerQuality::kFull);
  EXPECT_EQ(probe_reply.rounds, coarse_rounds);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kClosed);

  // The fine query still fails, re-opening; rank queries never notice.
  EXPECT_EQ(service.query(fine).quality, AnswerQuality::kDegraded);
  EXPECT_EQ(service.breaker_state(QueryKind::kQuantile),
            QuantileService::BreakerState::kOpen);
  const QueryReply rank_reply = service.query(rank_request);
  EXPECT_EQ(rank_reply.quality, AnswerQuality::kFull);
  EXPECT_EQ(service.breaker_state(QueryKind::kRank),
            QuantileService::BreakerState::kClosed);
}

TEST(ServiceResilience, WarmEqualsColdUnderCrashChurnAcrossThreads) {
  constexpr std::uint32_t kNodes = 700;
  const CrashChurnAdversary::Config configs[] = {
      {.crashes = 4, .crash_window = 24, .down_rounds = 8,
       .strategy_seed = 1},
      {.crashes = 32, .crash_window = 48, .down_rounds = 0,
       .strategy_seed = 2},
  };
  for (const auto& config : configs) {
    std::vector<QueryReply> replies;
    for (unsigned threads : kThreadCounts) {
      // Warm service: mixed traffic first, then the pinned-seed query.
      CrashChurnAdversary warm_crash(config);
      ServiceConfig warm_cfg = resilient_config(threads);
      warm_cfg.adversary = &warm_crash;
      QuantileService warm(kNodes, warm_cfg);
      ingest_fixture(warm, kNodes, 3, 29);
      QueryRequest traffic;
      traffic.kind = QueryKind::kQuantile;
      traffic.eps = 0.2;
      (void)warm.query(traffic);
      traffic.kind = QueryKind::kRank;
      traffic.value = 0.4;
      (void)warm.query(traffic);

      QueryRequest pinned;
      pinned.kind = QueryKind::kQuantile;
      pinned.eps = 0.2;
      pinned.seed = 4242;
      const QueryReply warm_reply = warm.query(pinned);

      // Cold service: identical state, the pinned query is its first.
      CrashChurnAdversary cold_crash(config);
      ServiceConfig cold_cfg = resilient_config(threads);
      cold_cfg.adversary = &cold_crash;
      QuantileService cold(kNodes, cold_cfg);
      ingest_fixture(cold, kNodes, 3, 29);
      const QueryReply cold_reply = cold.query(pinned);

      const std::string what = "crashes=" + std::to_string(config.crashes) +
                               " threads=" + std::to_string(threads);
      EXPECT_EQ(warm_reply.answer, cold_reply.answer) << what;
      EXPECT_EQ(warm_reply.rounds, cold_reply.rounds) << what;
      EXPECT_EQ(warm_reply.served, cold_reply.served) << what;
      EXPECT_EQ(warm_reply.transcript_hash, cold_reply.transcript_hash)
          << what;
      EXPECT_EQ(warm_reply.quality, cold_reply.quality) << what;
      EXPECT_EQ(warm_reply.attempts, cold_reply.attempts) << what;
      replies.push_back(warm_reply);
    }
    // And the reply is thread-count invariant, like everything else.
    for (std::size_t i = 1; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].transcript_hash, replies[0].transcript_hash);
      EXPECT_EQ(replies[i].rounds, replies[0].rounds);
      EXPECT_EQ(replies[i].served, replies[0].served);
    }
  }
}

TEST(ServiceResilience, NeverThrowsUnderAggressiveChurn) {
  constexpr std::uint32_t kNodes = 700;
  CrashChurnAdversary crash(CrashChurnAdversary::Config{
      .crashes = 64, .first_round = 1, .crash_window = 32, .down_rounds = 0,
      .strategy_seed = 11});
  ServiceConfig cfg = resilient_config(2);
  cfg.adversary = &crash;
  cfg.supervisor.max_attempts = 2;
  cfg.supervisor.min_served_fraction = 0.97;  // ~9% permanently down: fails
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 3, 31);

  const QueryKind kinds[] = {QueryKind::kQuantile, QueryKind::kRank,
                             QueryKind::kCdf, QueryKind::kMultiQuantile};
  for (int i = 0; i < 8; ++i) {
    QueryRequest request;
    request.kind = kinds[i % 4];
    request.eps = 0.2;
    request.value = 0.5;
    request.cdf_points = {0.3, 0.7};
    request.phis = {0.25, 0.75};
    QueryReply reply;
    EXPECT_NO_THROW(reply = service.query(request));
    EXPECT_TRUE(reply.quality == AnswerQuality::kFull ||
                reply.quality == AnswerQuality::kDegraded);
  }
  EXPECT_GT(service.stats().degraded_answers, 0u);
}

// A count is served only by the nodes not down at the query's last round.
// Permanently crashed nodes keep absorbing pushed mass, so the survivors'
// counts drift off the truth, and at min_served_fraction 0.95 such attempts
// must be rejected.  This service used to answer the three rank probes in
// full on attempt 1 with 63/151/223 against true counts 62/150/224, each
// served by all 300 nodes.  At a threshold the survivors do meet, the
// reply's served count is exactly the nodes still up at its last round.
TEST(ServiceResilience, CrashedNodesDoNotServeCounts) {
  constexpr std::uint32_t kNodes = 300;
  const auto values = generate_values(Distribution::kUniformReal, kNodes, 3);
  const double probes[] = {0.25, 0.5, 0.75};
  for (const double min_served : {0.95, 0.5}) {
    SCOPED_TRACE(min_served);
    CrashChurnAdversary crash(
        CrashChurnAdversary::Config{.crashes = 64, .down_rounds = 0});
    ServiceConfig cfg;
    cfg.seed = 32;
    cfg.engine.threads = 2;
    cfg.adversary = &crash;
    cfg.supervisor.min_served_fraction = min_served;
    QuantileService service(kNodes, cfg);
    for (std::uint32_t v = 0; v < kNodes; ++v) service.ingest(v, values[v]);

    std::vector<QueryRequest> requests;
    for (const double probe : probes) {
      QueryRequest rank;
      rank.kind = QueryKind::kRank;
      rank.value = probe;
      requests.push_back(rank);
    }
    QueryRequest cdf;
    cdf.kind = QueryKind::kCdf;
    cdf.cdf_points.assign(std::begin(probes), std::end(probes));
    requests.push_back(cdf);

    for (const QueryRequest& request : requests) {
      const QueryReply reply = service.query(request);
      if (min_served > 0.9) {
        EXPECT_EQ(reply.quality, AnswerQuality::kDegraded);
        EXPECT_EQ(reply.attempts, cfg.supervisor.max_attempts);
        continue;
      }
      ASSERT_EQ(reply.quality, AnswerQuality::kFull);
      ASSERT_EQ(reply.attempts, 1u);
      // The adversary is still bound to this query's seed; the query ran
      // rounds 1..reply.rounds.
      std::uint32_t up = 0;
      for (std::uint32_t v = 0; v < kNodes; ++v) {
        up += adversary_detail::node_down(&crash, v, reply.rounds) ? 0 : 1;
      }
      EXPECT_EQ(reply.served, up);
      EXPECT_LT(reply.served, kNodes);
    }
  }
}

// Attempt 0 of this query takes the exact fallback (eps below the floor)
// and aborts in the selection endgame under uniform(0.3) loss; the retry
// reseeds, promotes to the filtered robust pipeline and serves in full.
// This is the supervisor's exception branch inside the service, pinned at
// every thread count.
TEST(ServiceResilience, AbortedAttemptRecoversOnRetry) {
  constexpr std::uint32_t kNodes = 1024;
  constexpr std::uint64_t kSeed = 619;
  const auto values = generate_values(Distribution::kGaussian, kNodes, 61);
  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.05;
  request.seed = kSeed;

  std::vector<QueryReply> replies;
  for (unsigned threads : kThreadCounts) {
    SCOPED_TRACE(threads);
    ServiceConfig cfg = resilient_config(threads);
    cfg.failures = FailureModel::uniform(0.3);
    QuantileService service(kNodes, cfg);
    for (std::uint32_t v = 0; v < kNodes; ++v) service.ingest(v, values[v]);
    const QueryReply reply = service.query(request);

    // The bare first attempt over the sealed instance throws.
    ApproxQuantileParams params = cfg.approx;
    params.phi = request.phi;
    params.eps = request.eps;
    Engine engine(kNodes, kSeed, cfg.failures, cfg.engine);
    try {
      (void)approx_quantile_keys(engine, service.epoch_keys(), params);
      ADD_FAILURE() << "attempt 0 did not abort";
    } catch (const ExactPipelineError& error) {
      EXPECT_EQ(error.kind(), ExactPipelineError::Kind::kEndgameNoCandidates);
    }

    EXPECT_EQ(reply.quality, AnswerQuality::kFull);
    EXPECT_EQ(reply.attempts, 2u);
    EXPECT_EQ(reply.seed, streams::attempt_seed(kSeed, 1));
    EXPECT_EQ(service.stats().retry_attempts, 1u);
    EXPECT_EQ(service.stats().degraded_answers, 0u);
    replies.push_back(reply);
  }
  for (std::size_t i = 1; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].transcript_hash, replies[0].transcript_hash);
    EXPECT_EQ(replies[i].rounds, replies[0].rounds);
    EXPECT_EQ(replies[i].served, replies[0].served);
    EXPECT_EQ(replies[i].answer, replies[0].answer);
  }
}

}  // namespace
}  // namespace gq
