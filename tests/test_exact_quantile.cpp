#include <gtest/gtest.h>

#include <limits>
#include <tuple>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "core/exact_quantile.hpp"
#include "engine/pipelines.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

class ExactSweep
    : public ::testing::TestWithParam<
          std::tuple<Distribution, double /*phi*/, std::uint32_t /*n*/>> {};

TEST_P(ExactSweep, AnswerIsExact) {
  const auto [dist, phi, n] = GetParam();
  const auto values = generate_values(dist, n, 211);
  const auto keys = make_keys(values);
  const RankScale scale(keys);
  const Key truth = scale.exact_quantile(phi);

  Network net(n, 97 + n);
  ExactQuantileParams params;
  params.phi = phi;
  const auto r = exact_quantile(net, values, params);

  EXPECT_EQ(r.answer.value, truth.value)
      << "dist=" << to_string(dist) << " phi=" << phi << " n=" << n;
  EXPECT_EQ(r.answer.id, truth.id);
  ASSERT_EQ(r.outputs.size(), n);
  for (const Key& k : r.outputs) {
    EXPECT_EQ(k.value, truth.value);
    EXPECT_EQ(k.id, truth.id);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ExactSweep,
    ::testing::Combine(::testing::Values(Distribution::kUniformPermutation,
                                         Distribution::kGaussian,
                                         Distribution::kDuplicateHeavy,
                                         Distribution::kZipf),
                       ::testing::Values(0.0, 0.25, 0.5, 0.75, 1.0),
                       ::testing::Values(64u, 256u, 1024u)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_phi" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100)) +
             "_n" + std::to_string(std::get<2>(info.param));
    });

TEST(ExactQuantile, ConstantInputResolvesTieByNodeId) {
  // All values are 42; the phi-quantile is the key with the (k-1)-th id.
  constexpr std::uint32_t kN = 256;
  const auto values = generate_values(Distribution::kConstant, kN, 1);
  Network net(kN, 5);
  ExactQuantileParams params;
  params.phi = 0.5;
  const auto r = exact_quantile(net, values, params);
  EXPECT_EQ(r.answer.value, 42.0);
  EXPECT_EQ(r.answer.id, 127u);  // rank 128, id 127
}

TEST(ExactQuantile, TinyNetworks) {
  for (std::uint32_t n : {2u, 3u, 5u, 8u}) {
    const auto values =
        generate_values(Distribution::kUniformPermutation, n, 17);
    const auto keys = make_keys(values);
    const RankScale scale(keys);
    for (double phi : {0.0, 0.5, 1.0}) {
      Network net(n, 1000 + n);
      ExactQuantileParams params;
      params.phi = phi;
      const auto r = exact_quantile(net, values, params);
      EXPECT_EQ(r.answer.value, scale.exact_quantile(phi).value)
          << "n=" << n << " phi=" << phi;
    }
  }
}

TEST(ExactQuantile, DuplicationStrategyIsExactAtScale) {
  // n = 2^14 engages the paper's token-duplication route when forced.
  constexpr std::uint32_t kN = 1 << 14;
  const auto values = generate_values(Distribution::kUniformReal, kN, 37);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 71);
  ExactQuantileParams params;
  params.phi = 0.37;
  params.strategy = ExactStrategy::kPreferDuplication;
  const auto r = exact_quantile(net, values, params);
  EXPECT_EQ(r.answer.value, scale.exact_quantile(0.37).value);
  EXPECT_GE(r.iterations, 2u);  // duplication route actually iterated
}

TEST(ExactQuantile, EndgameStrategyIsExact) {
  constexpr std::uint32_t kN = 4096;
  const auto values = generate_values(Distribution::kExponential, kN, 41);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 73);
  ExactQuantileParams params;
  params.phi = 0.9;
  params.strategy = ExactStrategy::kPreferEndgame;
  const auto r = exact_quantile(net, values, params);
  EXPECT_EQ(r.answer.value, scale.exact_quantile(0.9).value);
  EXPECT_GE(r.endgame_phases, 1u);
}

TEST(ExactQuantile, StrategiesAgree) {
  constexpr std::uint32_t kN = 2048;
  const auto values = generate_values(Distribution::kBimodal, kN, 43);
  for (auto strategy :
       {ExactStrategy::kAuto, ExactStrategy::kPreferEndgame}) {
    Network net(kN, 75);
    ExactQuantileParams params;
    params.phi = 0.5;
    params.strategy = strategy;
    const auto r = exact_quantile(net, values, params);
    const RankScale scale(make_keys(values));
    EXPECT_EQ(r.answer.value, scale.exact_quantile(0.5).value);
  }
}

TEST(ExactQuantile, SurvivesFailureModel) {
  constexpr std::uint32_t kN = 512;
  const auto values =
      generate_values(Distribution::kUniformPermutation, kN, 47);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 79, FailureModel::uniform(0.3));
  ExactQuantileParams params;
  params.phi = 0.5;
  const auto r = exact_quantile(net, values, params);
  EXPECT_EQ(r.answer.value, scale.exact_quantile(0.5).value);
}

TEST(ExactQuantile, DeterministicPerSeed) {
  constexpr std::uint32_t kN = 512;
  const auto values = generate_values(Distribution::kGaussian, kN, 53);
  ExactQuantileParams params;
  params.phi = 0.25;
  Network a(kN, 81), b(kN, 81);
  const auto ra = exact_quantile(a, values, params);
  const auto rb = exact_quantile(b, values, params);
  EXPECT_EQ(ra.answer, rb.answer);
  EXPECT_EQ(ra.rounds, rb.rounds);
}

TEST(ExactQuantile, RoundsRecordedInMetrics) {
  constexpr std::uint32_t kN = 512;
  const auto values = generate_values(Distribution::kUniformReal, kN, 59);
  Network net(kN, 83);
  ExactQuantileParams params;
  params.phi = 0.5;
  const auto r = exact_quantile(net, values, params);
  EXPECT_EQ(r.rounds, net.metrics().rounds);
  EXPECT_GT(r.rounds, 0u);
}

// Genuine +/-inf inputs are values, not the Step-6 valueless marker: the
// answer must be exact on both executors even when it is one of them
// (phi = 0 lands on -inf, phi = 1 on +inf).  Both layouts put infinities
// of one sign at i = 0 (mod 5) and of the other at the remaining
// i = 0 (mod 7), so node 0 holds -inf in the second one: its key is the
// low sentinel itself.
TEST(ExactQuantile, InfiniteInputsAreValuesOnBothExecutors) {
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::uint32_t n : {2u, 97u, 1024u, 4096u}) {
    for (const double sign : {1.0, -1.0}) {
      std::vector<double> values =
          generate_values(Distribution::kUniformReal, n, 61 + n);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (i % 5 == 0) {
          values[i] = sign * inf;
        } else if (i % 7 == 0) {
          values[i] = -sign * inf;
        }
      }
      const RankScale scale(make_keys(values));
      for (const double phi : {0.0, 1e-9, 0.5, 0.999, 1.0}) {
        ExactQuantileParams params;
        params.phi = phi;
        Network net(n, 89);
        const ExactQuantileResult seq = exact_quantile(net, values, params);
        Engine engine(n, 89, FailureModel{},
                      EngineConfig{.threads = 2, .shard_size = 192});
        const ExactQuantileResult par =
            exact_quantile(engine, values, params);
        const Key want = scale.exact_quantile(phi);
        EXPECT_EQ(seq.answer, want)
            << "n=" << n << " sign=" << sign << " phi=" << phi;
        EXPECT_EQ(par.answer, want)
            << "n=" << n << " sign=" << sign << " phi=" << phi;
        EXPECT_EQ(par.rounds, seq.rounds);
        EXPECT_EQ(engine.metrics(), net.metrics());
      }
    }
  }
}

TEST(ExactQuantile, RoundBreakdownSumsToRounds) {
  constexpr std::uint32_t kN = 4096;
  const auto values = generate_values(Distribution::kUniformReal, kN, 67);
  for (const ExactStrategy strategy :
       {ExactStrategy::kAuto, ExactStrategy::kPreferDuplication,
        ExactStrategy::kPreferEndgame}) {
    Network net(kN, 91);
    ExactQuantileParams params;
    params.phi = 0.3;
    params.strategy = strategy;
    const ExactQuantileResult r = exact_quantile(net, values, params);
    const ExactRoundBreakdown& b = r.round_breakdown;
    EXPECT_EQ(b.total(), r.rounds);
    EXPECT_EQ(r.rounds, net.metrics().rounds);
    EXPECT_GT(b.brackets, 0u);
    EXPECT_GT(b.spreads, 0u);
    EXPECT_GT(b.counts, 0u);
    EXPECT_GT(b.verification, 0u);
    if (strategy == ExactStrategy::kPreferEndgame) {
      EXPECT_GT(b.endgame, 0u);
      EXPECT_EQ(b.token_split, 0u);
    }
  }
}

TEST(ExactQuantile, RejectsInvalidPhi) {
  Network net(64, 1);
  const auto values =
      generate_values(Distribution::kUniformPermutation, 64, 1);
  ExactQuantileParams params;
  params.phi = -0.01;
  EXPECT_THROW((void)exact_quantile(net, values, params),
               std::invalid_argument);
  params.phi = 1.01;
  EXPECT_THROW((void)exact_quantile(net, values, params),
               std::invalid_argument);
}

}  // namespace
}  // namespace gq
