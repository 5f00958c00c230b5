// Differential and property tests for the adversarial fault-injection layer
// (sim/adversary.hpp) and the adversarially-robust quantile/mean pipelines
// (core/adversarial_pipeline.hpp, arXiv 2502.15320).
//
// The differential half pins the new pipelines bit-identical between the
// sequential Network and the parallel Engine at 1/2/8 threads, across
// adversary strategies (greedy-targeted, eclipse, budget-burst) and budget
// levels, including the QualityReport and the adversary tallies in Metrics.
// It also pins the two boundary identities of the layer itself:
//   * budget = 0 strategies are transcript-identical to running with no
//     adversary installed at all;
//   * ObliviousAdversary(fm) is transcript-identical to constructing the
//     executor with fm — the FailureModel-as-special-case requirement —
//     on the legacy robust pipelines AND the new adversarial ones.
//
// The property half pins graceful degradation (accuracy and served fraction
// under bounded budgets, exposure accounting) and the FailureModel::custom
// construction-time bound check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "core/adversarial.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/result.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

// Small shards so every thread count exercises multi-shard merging and a
// trimmed final shard (the n below are not multiples of 192).
EngineConfig config_for(unsigned threads) {
  return EngineConfig{.threads = threads, .shard_size = 192};
}

void expect_same_quantile(const AdversarialQuantileResult& a,
                          const AdversarialQuantileResult& b,
                          const char* what) {
  EXPECT_EQ(a.outputs, b.outputs) << what;
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.phase1_iterations, b.phase1_iterations) << what;
  EXPECT_EQ(a.phase2_iterations, b.phase2_iterations) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.quality, b.quality) << what;
}

void expect_same_mean(const AdversarialMeanResult& a,
                      const AdversarialMeanResult& b, const char* what) {
  EXPECT_EQ(a.estimates, b.estimates) << what;
  EXPECT_EQ(a.valid, b.valid) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.quality, b.quality) << what;
}

// ---- differential: strategies x budgets x threads -------------------------

TEST(AdversaryDifferential, QuantileMatchesAcrossStrategiesAndBudgets) {
  constexpr std::uint32_t kN = 1537;  // odd, not a multiple of the shard size
  constexpr std::uint64_t kSeed = 907;
  const auto values = generate_values(Distribution::kUniformReal, kN, 83);
  AdversarialQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  const std::uint32_t budgets[] = {1, kN / 64, kN / 8};
  for (const std::uint32_t budget : budgets) {
    GreedyTargetedAdversary greedy(budget, 1e6);
    EclipseAdversary eclipse(17, budget);
    BudgetBurstAdversary burst(budget, 8, 3, 2, 5);
    ScatterCorruptAdversary scatter(budget, -1e6, 3);
    AdversaryStrategy* strategies[] = {&greedy, &eclipse, &burst, &scatter};
    for (AdversaryStrategy* strategy : strategies) {
      Network net(kN, kSeed);
      net.set_adversary(strategy);
      const auto seq = adversarial_quantile(net, values, params);

      for (unsigned threads : kThreadCounts) {
        Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
        engine.set_adversary(strategy);
        const auto par = adversarial_quantile(engine, values, params);
        const std::string what = std::string(strategy->name()) +
                                 " budget=" + std::to_string(budget) +
                                 " threads=" + std::to_string(threads);
        expect_same_quantile(par, seq, what.c_str());
        EXPECT_EQ(engine.metrics(), net.metrics()) << what;
      }
    }
  }
}

TEST(AdversaryDifferential, MeanMatchesAcrossStrategiesAndBudgets) {
  constexpr std::uint32_t kN = 1031;
  constexpr std::uint64_t kSeed = 911;
  const auto values = generate_values(Distribution::kGaussian, kN, 89);
  AdversarialMeanParams params;

  const std::uint32_t budgets[] = {1, kN / 64, kN / 8};
  for (const std::uint32_t budget : budgets) {
    GreedyTargetedAdversary greedy(budget, 1e6);
    EclipseAdversary eclipse(5, budget);
    BudgetBurstAdversary burst(budget, 8, 3, 2, 7);
    AdversaryStrategy* strategies[] = {&greedy, &eclipse, &burst};
    for (AdversaryStrategy* strategy : strategies) {
      Network net(kN, kSeed);
      net.set_adversary(strategy);
      const auto seq = adversarial_mean(net, values, params);

      for (unsigned threads : kThreadCounts) {
        Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
        engine.set_adversary(strategy);
        const auto par = adversarial_mean(engine, values, params);
        const std::string what = std::string(strategy->name()) +
                                 " budget=" + std::to_string(budget) +
                                 " threads=" + std::to_string(threads);
        expect_same_mean(par, seq, what.c_str());
        EXPECT_EQ(engine.metrics(), net.metrics()) << what;
      }
    }
  }
}

// Adversarial pipelines must also compose with an oblivious failure model
// UNDER an adaptive adversary — both fault sources active at once.
TEST(AdversaryDifferential, QuantileMatchesWithFailuresAndAdversary) {
  constexpr std::uint32_t kN = 1283;
  constexpr std::uint64_t kSeed = 919;
  const auto values = generate_values(Distribution::kExponential, kN, 97);
  const FailureModel fm = FailureModel::uniform(0.2);
  AdversarialQuantileParams params;
  params.phi = 0.25;
  params.eps = 0.12;

  EclipseAdversary eclipse(100, kN / 32);
  Network net(kN, kSeed, fm);
  net.set_adversary(&eclipse);
  const auto seq = adversarial_quantile(net, values, params);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    engine.set_adversary(&eclipse);
    const auto par = adversarial_quantile(engine, values, params);
    expect_same_quantile(par, seq, "failures+eclipse");
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// The legacy approx pipeline sees an adaptive adversary through node_fails:
// faultless() is false, so it routes through the robust tournament branch
// even with no FailureModel installed.  Pin the convergent differential.
TEST(AdversaryDifferential, LegacyApproxPipelineUnderAdversaryMatches) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 631;
  const auto values = generate_values(Distribution::kExponential, kN, 67);

  EclipseAdversary eclipse(64, kN / 32);
  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.2;  // above eps_tournament_floor(2048) ~ 0.157: no fallback
  Network net(kN, kSeed);
  net.set_adversary(&eclipse);
  const auto seq = approx_quantile(net, values, params);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    engine.set_adversary(&eclipse);
    const auto par = approx_quantile(engine, values, params);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid) << "threads=" << threads;
    EXPECT_EQ(par.rounds, seq.rounds) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// The exact pipeline cannot survive message loss — its push-sum counting is
// exact by construction, so adversarial drops surface as a typed abort
// rather than a wrong answer.  The abort must be the same kind, after the
// same transcript, on both executors (the scatter delivery sections see the
// adversary through node_fails too).
TEST(AdversaryDifferential, ExactPipelineAbortsIdenticallyUnderAdversary) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 631;
  const auto values = generate_values(Distribution::kExponential, kN, 67);

  EclipseAdversary eclipse(64, kN / 32);
  ExactQuantileParams params;
  params.phi = 0.5;
  Network net(kN, kSeed);
  net.set_adversary(&eclipse);
  ExactPipelineError::Kind seq_kind{};
  try {
    (void)exact_quantile(net, values, params);
    GTEST_SKIP() << "exact pipeline converged under this adversary";
  } catch (const ExactPipelineError& e) {
    seq_kind = e.kind();
  }

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    engine.set_adversary(&eclipse);
    try {
      (void)exact_quantile(engine, values, params);
      ADD_FAILURE() << "engine converged where sequential aborted, threads="
                    << threads;
    } catch (const ExactPipelineError& e) {
      EXPECT_EQ(e.kind(), seq_kind) << "threads=" << threads;
    }
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// One exact run's outcome: its answer or its typed abort, and the
// executor's Metrics either way.
struct ExactRun {
  std::optional<ExactQuantileResult> result;
  std::optional<ExactPipelineError> error;
  Metrics metrics;
};

template <typename Executor>
ExactRun run_exact(Executor& executor, std::span<const double> values,
                   const ExactQuantileParams& params) {
  ExactRun out;
  try {
    out.result = exact_quantile(executor, values, params);
  } catch (const ExactPipelineError& e) {
    out.error = e;
  }
  out.metrics = executor.metrics();
  return out;
}

// Golden transcripts of the exact pipeline's adversarial route.  With an
// adversary installed multi_quantile runs the brackets one after the other,
// so these constants pin that route to the bit, whatever the failure-free
// iterations do: a 64-node eclipse aborts in the endgame at a fixed round,
// and an installed zero-budget eclipse answers on the robust route.
TEST(AdversaryDifferential, ExactPipelineKeepsGoldenTranscripts) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 821;
  const auto values = generate_values(Distribution::kExponential, kN, 67);
  ExactQuantileParams params;
  params.phi = 0.5;

  for (const unsigned threads : {0u, 1u, 2u, 8u}) {  // 0: the Network
    const auto run = [&](std::uint32_t budget) {
      EclipseAdversary eclipse(64, budget);
      if (threads == 0) {
        Network net(kN, kSeed);
        net.set_adversary(&eclipse);
        return run_exact(net, values, params);
      }
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      engine.set_adversary(&eclipse);
      return run_exact(engine, values, params);
    };

    const ExactRun eclipsed = run(64);
    ASSERT_TRUE(eclipsed.error.has_value()) << "threads=" << threads;
    EXPECT_EQ(eclipsed.error->kind(),
              ExactPipelineError::Kind::kEndgameNoCandidates);
    EXPECT_EQ(eclipsed.error->context().round, 1190u);
    EXPECT_EQ(eclipsed.metrics.rounds, 1190u) << "threads=" << threads;
    EXPECT_EQ(eclipsed.metrics.messages, 2307392u);
    EXPECT_EQ(eclipsed.metrics.message_bits, 233834240u);
    EXPECT_EQ(eclipsed.metrics.failed_operations, 75987u);

    const ExactRun idle = run(0);
    ASSERT_TRUE(idle.result.has_value()) << "threads=" << threads;
    EXPECT_EQ(idle.result->answer, (Key{0.7065872217352811, 158, 0}));
    EXPECT_EQ(idle.result->rounds, 1661u) << "threads=" << threads;
    EXPECT_EQ(idle.metrics.messages, 3373056u);
    EXPECT_EQ(idle.metrics.message_bits, 391262208u);
  }
}

// ---- boundary: budget = 0 == no adversary ---------------------------------

TEST(AdversaryBoundary, BudgetZeroIsTranscriptIdenticalToNoAdversary) {
  constexpr std::uint32_t kN = 1021;
  constexpr std::uint64_t kSeed = 929;
  const auto values = generate_values(Distribution::kUniformReal, kN, 101);
  AdversarialQuantileParams qparams;
  AdversarialMeanParams mparams;

  Network clean_q(kN, kSeed);
  const auto base_q = adversarial_quantile(clean_q, values, qparams);
  Network clean_m(kN, kSeed);
  const auto base_m = adversarial_mean(clean_m, values, mparams);
  EXPECT_EQ(base_q.quality.corruption_exposure, 0.0);
  EXPECT_TRUE(base_q.quality.ok());
  EXPECT_EQ(base_q.served_nodes(), kN);

  GreedyTargetedAdversary greedy(0, 1e6);
  EclipseAdversary eclipse(3, 0);
  BudgetBurstAdversary burst(0, 4, 2);
  ScatterCorruptAdversary scatter(0, 1e6);
  AdversaryStrategy* strategies[] = {&greedy, &eclipse, &burst, &scatter};
  for (AdversaryStrategy* strategy : strategies) {
    Network net_q(kN, kSeed);
    net_q.set_adversary(strategy);
    expect_same_quantile(adversarial_quantile(net_q, values, qparams), base_q,
                         strategy->name());
    EXPECT_EQ(net_q.metrics(), clean_q.metrics()) << strategy->name();

    Network net_m(kN, kSeed);
    net_m.set_adversary(strategy);
    expect_same_mean(adversarial_mean(net_m, values, mparams), base_m,
                     strategy->name());

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      engine.set_adversary(strategy);
      expect_same_quantile(adversarial_quantile(engine, values, qparams),
                           base_q, strategy->name());
      EXPECT_EQ(engine.metrics(), clean_q.metrics())
          << strategy->name() << " threads=" << threads;
    }
  }
}

// ---- boundary: FailureModel is the oblivious special case -----------------

TEST(AdversaryBoundary, ObliviousAdversaryReproducesFailureModelExactly) {
  constexpr std::uint32_t kN = 1535;
  constexpr std::uint64_t kSeed = 937;
  const auto values = generate_values(Distribution::kUniformReal, kN, 103);
  const FailureModel fm = FailureModel::uniform(0.3);

  // Legacy robust pipeline: model-constructed reference.
  ApproxQuantileParams aparams;
  aparams.phi = 0.3;
  aparams.eps = 0.15;
  Network model_net(kN, kSeed, fm);
  const auto model_run = approx_quantile(model_net, values, aparams);

  // Same pipeline on a failure-free executor with the oblivious adversary:
  // the model is absorbed at install time, so sizing, coins, transcript and
  // Metrics must match bit for bit.
  ObliviousAdversary oblivious(fm);
  EXPECT_EQ(oblivious.oblivious_model()->max_probability(),
            fm.max_probability());
  Network adv_net(kN, kSeed);
  adv_net.set_adversary(&oblivious);
  EXPECT_EQ(adv_net.failures().max_probability(), fm.max_probability());
  const auto adv_run = approx_quantile(adv_net, values, aparams);
  EXPECT_EQ(adv_run.outputs, model_run.outputs);
  EXPECT_EQ(adv_run.valid, model_run.valid);
  EXPECT_EQ(adv_run.rounds, model_run.rounds);
  EXPECT_EQ(adv_net.metrics(), model_net.metrics());

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    engine.set_adversary(&oblivious);
    const auto par = approx_quantile(engine, values, aparams);
    EXPECT_EQ(par.outputs, model_run.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, model_run.valid) << "threads=" << threads;
    EXPECT_EQ(par.rounds, model_run.rounds) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), model_net.metrics()) << "threads=" << threads;
  }

  // The adversarial pipeline sees the absorbed model as failed operations,
  // never as adversary faults — same identity there.
  AdversarialQuantileParams qparams;
  Network model_net2(kN, kSeed, fm);
  const auto model_q = adversarial_quantile(model_net2, values, qparams);
  Network adv_net2(kN, kSeed);
  adv_net2.set_adversary(&oblivious);
  const auto adv_q = adversarial_quantile(adv_net2, values, qparams);
  expect_same_quantile(adv_q, model_q, "adversarial pipeline oblivious");
  EXPECT_EQ(adv_q.quality.messages_dropped, 0u);
  EXPECT_GT(adv_q.quality.failed_operations, 0u);
  EXPECT_EQ(adv_net2.metrics(), model_net2.metrics());
}

// ---- ExactPipelineError parity under adversarial pressure -----------------

// Heavy oblivious noise plus an eclipse adversary makes the small-n exact
// endgame mis-count and abort.  The abort must be the same typed
// ExactPipelineError kind on both executors at every thread count.  The
// (deterministic) seed scan keeps the test robust to parameter drift: any
// seed that aborts sequentially must abort identically on the engine.
TEST(AdversaryErrors, ExactPipelineErrorKindsMatchOnBothExecutors) {
  constexpr std::uint32_t kN = 1024;
  const auto values = generate_values(Distribution::kGaussian, kN, 61);
  const FailureModel fm = FailureModel::uniform(0.3);

  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below eps_tournament_floor(1024): exact fallback

  int aborts_found = 0;
  for (std::uint64_t seed = 601; seed < 641 && aborts_found < 2; ++seed) {
    EclipseAdversary eclipse(0, kN / 16);
    Network net(kN, seed, fm);
    net.set_adversary(&eclipse);
    ExactPipelineError::Kind seq_kind{};
    try {
      (void)approx_quantile(net, values, params);
      continue;  // this seed converged; try the next
    } catch (const ExactPipelineError& e) {
      seq_kind = e.kind();
    }
    ++aborts_found;
    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, seed, fm, config_for(threads));
      engine.set_adversary(&eclipse);
      try {
        (void)approx_quantile(engine, values, params);
        ADD_FAILURE() << "engine converged where sequential aborted, seed="
                      << seed << " threads=" << threads;
      } catch (const ExactPipelineError& e) {
        EXPECT_EQ(e.kind(), seq_kind)
            << "seed=" << seed << " threads=" << threads;
      }
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "seed=" << seed << " threads=" << threads;
    }
  }
  EXPECT_GE(aborts_found, 1)
      << "no abort scenario found in the seed range; tighten the adversary";
}

// ---- properties: graceful degradation -------------------------------------

TEST(AdversaryProperties, FilteredQuantileStaysAccurateUnderSmallBudget) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 941;
  const auto values = generate_values(Distribution::kUniformReal, kN, 107);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  AdversarialQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  GreedyTargetedAdversary greedy(kN / 64, -1e9);
  Network net(kN, kSeed);
  net.set_adversary(&greedy);
  const auto result = adversarial_quantile(net, values, params);

  // The adversary hijacks at most budget nodes' channels per round; the
  // rest of the network must still land in the eps window.
  EXPECT_GE(result.quality.served_fraction, 0.95);
  EXPECT_TRUE(result.quality.ok());
  std::vector<Key> served;
  for (std::uint32_t v = 0; v < kN; ++v) {
    if (result.valid[v]) served.push_back(result.outputs[v]);
  }
  const auto summary =
      evaluate_outputs(scale, served, params.phi, params.eps);
  EXPECT_GE(summary.frac_within_eps, 0.85)
      << "max_abs_error=" << summary.max_abs_error;

  // Exposure accounting: the adversary touched traffic (corruptions), and
  // the tally is bounded by its budget times the rounds it saw.
  EXPECT_GT(result.quality.messages_corrupted, 0u);
  EXPECT_LE(result.quality.messages_corrupted,
            static_cast<std::uint64_t>(kN / 64) * result.rounds);
  EXPECT_GT(result.quality.corruption_exposure, 0.0);
  EXPECT_LT(result.quality.corruption_exposure, 0.1);
}

TEST(AdversaryProperties, MeanClipBoundsCorruptInfluence) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 947;
  const auto values = generate_values(Distribution::kUniformReal, kN, 109);
  double true_mean = 0.0;
  for (const double x : values) true_mean += x;
  true_mean /= kN;

  AdversarialMeanParams params;

  // Fault-free baseline: every node close to the true mean.
  Network clean(kN, kSeed);
  const auto base = adversarial_mean(clean, values, params);
  EXPECT_EQ(base.served_nodes(), kN);
  for (std::uint32_t v = 0; v < kN; v += 97) {
    EXPECT_NEAR(base.estimates[v], true_mean, 0.2) << "v=" << v;
  }

  // A corrupting adversary injecting a value 9 orders of magnitude outside
  // the data range.  Nodes the adversary hijacked during the clip-bound
  // sub-runs have poisoned bounds and cannot be protected — the guarantee
  // is for everyone else: their clip interval for uniform [0,1) data is
  // ~[-0.25, 1.25], so even a fully hijacked mean-phase channel cannot push
  // their estimate past it, let alone to 1e9.
  GreedyTargetedAdversary greedy(kN / 64, 1e9);
  Network net(kN, kSeed);
  net.set_adversary(&greedy);
  const auto result = adversarial_mean(net, values, params);
  EXPECT_GE(result.quality.served_fraction, 0.9);
  std::vector<double> errors;
  for (std::uint32_t v = 0; v < kN; ++v) {
    if (!result.valid[v]) continue;
    errors.push_back(std::abs(result.estimates[v] - true_mean));
  }
  ASSERT_FALSE(errors.empty());
  std::sort(errors.begin(), errors.end());
  const double median_err = errors[errors.size() / 2];
  const double p90_err = errors[errors.size() * 9 / 10];
  std::size_t beyond_clip = 0;
  for (const double e : errors) {
    if (e > 1.5) ++beyond_clip;
  }
  EXPECT_LE(median_err, 0.2);
  EXPECT_LE(p90_err, 1.5) << "90th-percentile error escaped the clip cap";
  // Only clip-poisoned nodes can blow past the cap, and the per-round
  // budget bounds how many of those there can be.
  EXPECT_LE(beyond_clip, errors.size() / 10)
      << beyond_clip << " of " << errors.size() << " estimates unclipped";
}

TEST(AdversaryProperties, EclipseDegradesOnlyTheEclipsedNodes) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 953;
  const auto values = generate_values(Distribution::kGaussian, kN, 113);

  AdversarialQuantileParams params;
  params.min_served_fraction = 0.99;  // make degradation observable

  constexpr std::uint32_t kFirst = 256;
  constexpr std::uint32_t kBudget = 128;
  EclipseAdversary eclipse(kFirst, kBudget);
  Network net(kN, kSeed);
  net.set_adversary(&eclipse);
  const auto result = adversarial_quantile(net, values, params);

  // Eclipsed nodes receive nothing: they cannot be served.
  for (std::uint32_t v = kFirst; v < kFirst + kBudget; ++v) {
    EXPECT_FALSE(result.valid[v]) << "v=" << v;
  }
  // Everyone else must be: an eclipse does not leak beyond its targets.
  for (std::uint32_t v = 0; v < kN; ++v) {
    if (v >= kFirst && v < kFirst + kBudget) continue;
    EXPECT_TRUE(result.valid[v]) << "v=" << v;
  }
  EXPECT_FALSE(result.quality.ok());  // 93.75% < 99% threshold
  EXPECT_GT(result.quality.messages_dropped, 0u);
}

// Delays actually deliver late rather than dropping: a burst adversary's
// transcript must differ from both the clean run and an equivalent-budget
// eclipse, and its tally must land in adversary_delayed only.
TEST(AdversaryProperties, BurstDelaysAreDelaysNotDrops) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 967;
  const auto values = generate_values(Distribution::kUniformReal, kN, 127);
  AdversarialQuantileParams params;

  BudgetBurstAdversary burst(kN / 8, 4, 2, 2, 11);
  Network net(kN, kSeed);
  net.set_adversary(&burst);
  const auto result = adversarial_quantile(net, values, params);
  EXPECT_GT(result.quality.messages_delayed, 0u);
  EXPECT_EQ(result.quality.messages_dropped, 0u);
  EXPECT_EQ(result.quality.messages_corrupted, 0u);
  // Delayed-but-delivered samples keep the network served.
  EXPECT_GE(result.quality.served_fraction, 0.99);
}

// ---- FailureModel::custom construction contract ---------------------------

TEST(FailureModelContract, CustomRejectsScheduleExceedingDeclaredBound) {
  // The footgun: a schedule whose values exceed the declared bound used to
  // silently starve the robust fan-out sizing.  Construction now probes a
  // fixed grid and throws.
  EXPECT_THROW(
      (void)FailureModel::custom(
          [](std::uint32_t, std::uint64_t) { return 0.9; }, 0.5),
      std::invalid_argument);
  EXPECT_THROW(
      (void)FailureModel::custom(
          [](std::uint32_t, std::uint64_t) { return -0.1; }, 0.5),
      std::invalid_argument);
  // Round-dependent violation inside the probe grid.
  EXPECT_THROW(
      (void)FailureModel::custom(
          [](std::uint32_t, std::uint64_t r) { return r > 100 ? 0.8 : 0.0; },
          0.5),
      std::invalid_argument);
  // A conforming schedule constructs fine and reports its bound.
  const FailureModel ok = FailureModel::custom(
      [](std::uint32_t v, std::uint64_t) { return v % 2 == 0 ? 0.25 : 0.0; },
      0.25);
  EXPECT_DOUBLE_EQ(ok.max_probability(), 0.25);
  EXPECT_FALSE(ok.never_fails());
}

}  // namespace
}  // namespace gq
