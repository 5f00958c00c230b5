// Differential and property tests for the engine-native robust
// (failure-model) pipelines of Section 5.1 / Theorem 1.4.
//
// The differential half pins the engine kernels — robust_two_tournament,
// robust_three_tournament, robust_coverage — and the full pipelines
// (approx_quantile under a FailureModel, exact_quantile under failures,
// the exact-fallback branch) bit-identical to the sequential core/robust.cpp
// path: same states, same carried good vectors, same served sets, same
// round counts and Metrics, at 1, 2, and 8 threads, for odd and even n,
// across mu in {0, 0.1, 0.5, 0.9}.
//
// The property half pins Theorem 1.4's shape: the coverage tail leaves at
// most ~n/2^t nodes unserved after t extra rounds, and a node that turns
// bad never re-enters the good set.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/own_rank.hpp"
#include "core/robust.hpp"
#include "engine/engine.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
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

// A failure model that never fires but is not `never_fails()`: routes the
// pipelines through the robust variants with mu = 0, the degenerate corner
// of Section 5.1 (constant fan-out, nobody ever turns bad).
FailureModel zero_probability_failures() {
  return FailureModel::custom(
      [](std::uint32_t, std::uint64_t) { return 0.0; }, 0.0);
}

std::size_t count_true(const std::vector<bool>& v) {
  return static_cast<std::size_t>(std::count(v.begin(), v.end(), true));
}

// good2 never serves a node that good1 had already expelled.
bool subset_of(const std::vector<bool>& good2,
               const std::vector<bool>& good1) {
  for (std::size_t v = 0; v < good2.size(); ++v) {
    if (good2[v] && !good1[v]) return false;
  }
  return true;
}

// ---- differential: kernels ------------------------------------------------

TEST(EngineRobustKernels, TwoTournamentMatchesCore) {
  constexpr std::uint64_t kSeed = 601;
  for (const std::uint32_t n : {1023u, 1024u}) {  // odd and even
    const auto keys =
        make_keys(generate_values(Distribution::kUniformReal, n, 47));
    for (const double mu : {0.0, 0.1, 0.5, 0.9}) {
      const FailureModel fm =
          mu > 0.0 ? FailureModel::uniform(mu) : zero_probability_failures();

      Network net(n, kSeed, fm);
      std::vector<Key> seq_state(keys.begin(), keys.end());
      std::vector<bool> seq_good(n, true);
      const auto seq =
          robust_two_tournament(net, seq_state, seq_good, 0.25, 0.15);

      for (unsigned threads : kThreadCounts) {
        Engine engine(n, kSeed, fm, config_for(threads));
        std::vector<Key> state(keys.begin(), keys.end());
        std::vector<bool> good(n, true);
        const auto par =
            robust_two_tournament(engine, state, good, 0.25, 0.15);
        EXPECT_EQ(par.iterations, seq.iterations)
            << "threads=" << threads << " mu=" << mu << " n=" << n;
        EXPECT_EQ(par.side, seq.side);
        EXPECT_EQ(par.pulls_per_iteration, seq.pulls_per_iteration);
        EXPECT_EQ(state, seq_state)
            << "threads=" << threads << " mu=" << mu << " n=" << n;
        EXPECT_EQ(good, seq_good)
            << "threads=" << threads << " mu=" << mu << " n=" << n;
        EXPECT_EQ(engine.metrics(), net.metrics())
            << "threads=" << threads << " mu=" << mu << " n=" << n;
      }
    }
  }
}

// The good vector is protocol state carried across phases: run Phase I and
// Phase II back to back with the SAME carried vector, as approx_quantile
// does, and require the engine to reproduce every intermediate.
TEST(EngineRobustKernels, ThreeTournamentCarriesGoodAcrossPhases) {
  constexpr std::uint32_t kN = 2047;
  constexpr std::uint64_t kSeed = 607;
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 53));
  const FailureModel fm = FailureModel::uniform(0.3);

  Network net(kN, kSeed, fm);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  std::vector<bool> seq_good(kN, true);
  const auto seq_p1 =
      robust_two_tournament(net, seq_state, seq_good, 0.4, 0.2);
  const std::vector<bool> seq_good_after_p1 = seq_good;
  const auto seq_p2 =
      robust_three_tournament(net, seq_state, seq_good, 0.05, 15);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    std::vector<Key> state(keys.begin(), keys.end());
    std::vector<bool> good(kN, true);
    const auto p1 = robust_two_tournament(engine, state, good, 0.4, 0.2);
    EXPECT_EQ(p1.iterations, seq_p1.iterations);
    EXPECT_EQ(good, seq_good_after_p1) << "threads=" << threads;
    const auto p2 = robust_three_tournament(engine, state, good, 0.05, 15);
    EXPECT_EQ(p2.iterations, seq_p2.iterations);
    EXPECT_EQ(p2.pulls_per_iteration, seq_p2.pulls_per_iteration);
    EXPECT_EQ(p2.outputs, seq_p2.outputs) << "threads=" << threads;
    EXPECT_EQ(p2.valid, seq_p2.valid) << "threads=" << threads;
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(good, seq_good) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineRobustKernels, CoverageMatchesCore) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 613;
  const FailureModel fm = FailureModel::uniform(0.2);

  // Half the nodes start served with distinct marker keys, so adopted
  // answers reveal exactly which served node was reached.
  std::vector<Key> seq_outputs(kN, Key::infinite());
  std::vector<bool> seq_valid(kN, false);
  for (std::uint32_t v = 0; v < kN; v += 2) {
    seq_outputs[v] = Key{static_cast<double>(v), v, 0};
    seq_valid[v] = true;
  }
  const std::vector<Key> init_outputs = seq_outputs;
  const std::vector<bool> init_valid = seq_valid;

  Network net(kN, kSeed, fm);
  const std::uint64_t seq_rounds =
      robust_coverage(net, seq_outputs, seq_valid, 12);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    std::vector<Key> outputs = init_outputs;
    std::vector<bool> valid = init_valid;
    const std::uint64_t rounds = robust_coverage(engine, outputs, valid, 12);
    EXPECT_EQ(rounds, seq_rounds) << "threads=" << threads;
    EXPECT_EQ(outputs, seq_outputs) << "threads=" << threads;
    EXPECT_EQ(valid, seq_valid) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }

  // All-served input: both executors must exit before consuming any round.
  Engine engine(kN, kSeed, fm, config_for(2));
  std::vector<Key> outputs(kN, Key{1.0, 1, 0});
  std::vector<bool> valid(kN, true);
  EXPECT_EQ(robust_coverage(engine, outputs, valid, 50), 0u);
  EXPECT_EQ(engine.metrics().rounds, 0u);
}

// ---- differential: full pipelines ----------------------------------------

class EngineRobustPipelines : public ::testing::TestWithParam<double> {};

TEST_P(EngineRobustPipelines, ApproxQuantileMatchesCore) {
  const double mu = GetParam();
  constexpr std::uint64_t kSeed = 617;
  // mu = 0.9 inflates every pull block by ~25x; a smaller n keeps the
  // sweep fast without losing the branch coverage.  The sweep mixes odd
  // and even n so shard trimming is exercised at the pipeline level too.
  const std::uint32_t n = mu >= 0.9 ? 1021 : (mu >= 0.5 ? 4095 : 4096);
  const auto values = generate_values(Distribution::kUniformReal, n, 59);
  const FailureModel fm =
      mu > 0.0 ? FailureModel::uniform(mu) : zero_probability_failures();

  ApproxQuantileParams params;
  params.phi = 0.3;
  // Stay above eps_tournament_floor(n) so the tournament route runs (the
  // fallback branch has its own differential below).
  params.eps = mu >= 0.9 ? 0.25 : 0.15;
  params.robust_coverage_rounds = 13;

  Network net(n, kSeed, fm);
  const ApproxQuantileResult seq = approx_quantile(net, values, params);
  ASSERT_FALSE(seq.used_exact_fallback);

  for (unsigned threads : kThreadCounts) {
    Engine engine(n, kSeed, fm, config_for(threads));
    const ApproxQuantileResult par = approx_quantile(engine, values, params);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads
                                        << " mu=" << mu;
    EXPECT_EQ(par.valid, seq.valid) << "threads=" << threads << " mu=" << mu;
    EXPECT_EQ(par.phase1_iterations, seq.phase1_iterations);
    EXPECT_EQ(par.phase2_iterations, seq.phase2_iterations);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(par.served_nodes(), seq.served_nodes());
    EXPECT_EQ(engine.metrics(), net.metrics())
        << "threads=" << threads << " mu=" << mu;
  }
}

INSTANTIATE_TEST_SUITE_P(MuSweep, EngineRobustPipelines,
                         ::testing::Values(0.0, 0.1, 0.5, 0.9),
                         [](const auto& info) {
                           return "mu" + std::to_string(static_cast<int>(
                                             info.param * 100));
                         });

// eps below eps_tournament_floor under a failure model: the pipeline must
// route through the engine-native exact algorithm, whose inner approximate
// runs use the robust tournaments — still bit for bit.
TEST(EngineRobustPipelinesFallback, ExactFallbackUnderFailuresMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 619;
  const auto values = generate_values(Distribution::kGaussian, kN, 61);
  // mu is kept moderate: the count-based selection endgame of the exact
  // pipeline can mis-count under heavier failure noise at this small n and
  // aborts the run on BOTH executors — a sequential-path property, not an
  // engine one (e.g. mu = 0.3 with this input and seed 619).
  const FailureModel fm = FailureModel::uniform(0.25);

  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below eps_tournament_floor(1024) ~ 0.2
  Network net(kN, kSeed, fm);
  const ApproxQuantileResult seq = approx_quantile(net, values, params);
  ASSERT_TRUE(seq.used_exact_fallback);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    const ApproxQuantileResult par = approx_quantile(engine, values, params);
    EXPECT_TRUE(par.used_exact_fallback);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid) << "threads=" << threads;
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineRobustPipelinesFallback, ExactQuantileUnderFailuresMatchesCore) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 631;
  const auto values = generate_values(Distribution::kExponential, kN, 67);
  const FailureModel fm = FailureModel::uniform(0.35);

  ExactQuantileParams params;
  params.phi = 0.5;
  Network net(kN, kSeed, fm);
  const ExactQuantileResult seq = exact_quantile(net, values, params);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    const ExactQuantileResult par = exact_quantile(engine, values, params);
    EXPECT_EQ(par.answer, seq.answer) << "threads=" << threads;
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid) << "threads=" << threads;
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(par.endgame_phases, seq.endgame_phases);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Golden transcript of the exact pipeline's failure-model route.  Under a
// failure model multi_quantile runs the two brackets one after the other
// and each extreme spreads alone, so these constants pin that route's
// rounds, traffic and answer to the bit on both executors, whatever the
// failure-free iterations do.
TEST(EngineRobustPipelinesFallback, ExactUnderFailuresKeepsGoldenTranscript) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 812;
  const auto values = generate_values(Distribution::kExponential, kN, 67);
  const FailureModel fm = FailureModel::uniform(0.25);
  ExactQuantileParams params;
  params.phi = 0.5;

  const auto check = [&](const ExactQuantileResult& r, const Metrics& m,
                         const char* where) {
    EXPECT_EQ(r.answer, (Key{0.7065872217352811, 158, 0})) << where;
    EXPECT_EQ(r.iterations, 1u) << where;
    EXPECT_EQ(r.endgame_phases, 14u) << where;
    EXPECT_EQ(r.rounds, 2489u) << where;
    EXPECT_EQ(r.round_breakdown.total(), r.rounds) << where;
    EXPECT_EQ(m.rounds, 2489u) << where;
    EXPECT_EQ(m.messages, 3796892u) << where;
    EXPECT_EQ(m.message_bits, 442189524u) << where;
    EXPECT_EQ(m.failed_operations, 1268347u) << where;
  };
  Network net(kN, kSeed, fm);
  check(exact_quantile(net, values, params), net.metrics(), "network");
  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    check(exact_quantile(engine, values, params), engine.metrics(),
          threads == 1 ? "engine/1" : threads == 2 ? "engine/2" : "engine/8");
  }
}

// own_rank composes approx runs and folds their valid masks into its own;
// under a failure model every inner run is a robust one and partially
// served runs must poison exactly the same estimates on both executors.
TEST(EngineRobustPipelinesFallback, OwnRankUnderFailuresMatchesCore) {
  constexpr std::uint32_t kN = 8191;
  constexpr std::uint64_t kSeed = 641;
  const auto values = generate_values(Distribution::kUniformReal, kN, 73);
  const FailureModel fm = FailureModel::uniform(0.2);

  OwnRankParams params;
  params.eps = 0.45;  // inner eps 0.1125 > eps_tournament_floor(8191) ~ 0.1
  Network net(kN, kSeed, fm);
  const OwnRankResult seq = own_rank(net, values, params);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    const OwnRankResult par = own_rank(engine, values, params);
    EXPECT_EQ(par.estimates, seq.estimates) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid) << "threads=" << threads;
    EXPECT_EQ(par.quantile_runs, seq.quantile_runs);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Gather block size must be observable-neutral for the robust kernels too:
// the recorded-pick fan-out fold and the blocked coverage rounds must
// reproduce the sequential transcript at degenerate and oversized blocks.
TEST(EngineRobustKernels, GatherBlockSweepMatchesCore) {
  constexpr std::uint32_t kN = 1535;
  constexpr std::uint64_t kSeed = 647;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 79));
  const FailureModel fm = FailureModel::uniform(0.3);

  Network net(kN, kSeed, fm);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  std::vector<bool> seq_good(kN, true);
  (void)robust_two_tournament(net, seq_state, seq_good, 0.4, 0.2);
  auto seq_p2 = robust_three_tournament(net, seq_state, seq_good, 0.1, 15);
  const std::uint64_t seq_rounds =
      robust_coverage(net, seq_p2.outputs, seq_p2.valid, 10);

  for (unsigned threads : {1u, 8u}) {
    for (const std::uint32_t block : {1u, 64u, 1u << 20}) {
      Engine engine(kN, kSeed, fm,
                    EngineConfig{.threads = threads,
                                 .shard_size = 192,
                                 .gather_block = block});
      std::vector<Key> state(keys.begin(), keys.end());
      std::vector<bool> good(kN, true);
      (void)robust_two_tournament(engine, state, good, 0.4, 0.2);
      auto p2 = robust_three_tournament(engine, state, good, 0.1, 15);
      const std::uint64_t rounds =
          robust_coverage(engine, p2.outputs, p2.valid, 10);
      EXPECT_EQ(rounds, seq_rounds)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(p2.outputs, seq_p2.outputs)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(p2.valid, seq_p2.valid)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(state, seq_state)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(good, seq_good)
          << "threads=" << threads << " block=" << block;
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " block=" << block;
    }
  }
}

// The small-n heavy-failure endgame abort is a typed, recoverable error:
// the scenario the ExactFallbackUnderFailuresMatchesCore comment documents
// (this input at mu = 0.3) makes the count-based selection endgame
// mis-count on BOTH executors.  Both must throw ExactPipelineError — not a
// bare runtime_error, not a wrong answer — and both must remain usable
// afterwards (the abort is a per-run property, not engine corruption).
TEST(EngineRobustPipelinesFallback, ExactEndgameAbortIsTypedOnBothExecutors) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 619;
  const auto values = generate_values(Distribution::kGaussian, kN, 61);
  const FailureModel fm = FailureModel::uniform(0.3);

  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below eps_tournament_floor(1024): exact fallback

  ExactPipelineError::Kind seq_kind{};
  {
    Network net(kN, kSeed, fm);
    try {
      (void)approx_quantile(net, values, params);
      FAIL() << "sequential run was expected to abort";
    } catch (const ExactPipelineError& e) {
      seq_kind = e.kind();
    }
    // Recoverable: the same Network still executes rounds afterwards.
    const std::uint64_t before = net.metrics().rounds;
    (void)net.pull_round(32);
    EXPECT_EQ(net.metrics().rounds, before + 1);
  }

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, fm, config_for(threads));
    try {
      (void)approx_quantile(engine, values, params);
      FAIL() << "engine run was expected to abort (threads=" << threads
             << ")";
    } catch (const ExactPipelineError& e) {
      EXPECT_EQ(e.kind(), seq_kind) << "threads=" << threads;
    }
    const std::uint64_t before = engine.metrics().rounds;
    (void)engine.pull_round(32);
    EXPECT_EQ(engine.metrics().rounds, before + 1);
  }

  // Back-compat: the typed error still lands in runtime_error catch sites.
  Network net(kN, kSeed, fm);
  EXPECT_THROW((void)approx_quantile(net, values, params),
               std::runtime_error);
}

// ---- properties -----------------------------------------------------------

// Theorem 1.4's coverage tail: starting half-served, t extra rounds leave
// at most ~n/2^t nodes unserved.  The implementation beats the allowance
// with slack (unserved nodes retry every round and the served set only
// grows), so a factor-2 envelope plus one node of integer slack per trial
// holds comfortably across seeds.
TEST(EngineRobustProperties, CoverageTailObeysTheorem14Bound) {
  constexpr std::uint32_t kN = 1 << 13;
  const FailureModel fm = FailureModel::uniform(0.2);
  for (const std::uint32_t t : {4u, 8u, 12u}) {
    std::uint64_t unserved_total = 0;
    constexpr std::uint64_t kTrials = 5;
    for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
      Engine engine(kN, 700 + trial, fm, config_for(2));
      std::vector<Key> outputs(kN, Key::infinite());
      std::vector<bool> valid(kN, false);
      for (std::uint32_t v = 0; v < kN; v += 2) {
        outputs[v] = Key{1.0, 1, 0};
        valid[v] = true;
      }
      (void)robust_coverage(engine, outputs, valid, t);
      unserved_total += kN - count_true(valid);
      // A served node must actually hold a served node's answer.
      for (std::uint32_t v = 0; v < kN; ++v) {
        if (valid[v]) ASSERT_EQ(outputs[v].value, 1.0);
      }
    }
    EXPECT_LE(unserved_total, kTrials * (2 * (kN >> t) + 1)) << "t=" << t;
  }
}

// Lemma 5.2's one-way door: once a node turns bad it never re-enters the
// good set — across iterations, across phases, and into the served set.
TEST(EngineRobustProperties, BadNodesNeverReenterGoodSet) {
  constexpr std::uint32_t kN = 4096;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 71));
  for (const std::uint64_t seed : {801u, 802u, 803u}) {
    Engine engine(kN, seed, FailureModel::uniform(0.4), config_for(2));
    std::vector<Key> state(keys.begin(), keys.end());
    std::vector<bool> good(kN, true);

    (void)robust_two_tournament(engine, state, good, 0.5, 0.2);
    const std::vector<bool> after_p1 = good;
    EXPECT_GE(count_true(after_p1), kN / 3);  // Lemma 5.2 constant fraction

    const auto p2 = robust_three_tournament(engine, state, good, 0.05, 15);
    EXPECT_TRUE(subset_of(good, after_p1)) << "seed=" << seed;
    // Only nodes still good at the final step can produce an output.
    EXPECT_TRUE(subset_of(p2.valid, good)) << "seed=" << seed;

    // A third phase on the carried vector keeps shrinking monotonically.
    std::vector<bool> before = good;
    (void)robust_two_tournament(engine, state, good, 0.5, 0.2);
    EXPECT_TRUE(subset_of(good, before)) << "seed=" << seed;
  }
}

}  // namespace
}  // namespace gq
