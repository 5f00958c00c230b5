#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/three_tournament.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

TEST(ThreeTournament, IterationsMatchScheduleAndRounds) {
  constexpr std::uint32_t kN = 2048;
  Network net(kN, 5);
  auto state =
      make_keys(generate_values(Distribution::kUniformPermutation, kN, 1));
  const auto outcome = three_tournament(net, state, 0.1, 15);
  EXPECT_EQ(outcome.iterations, outcome.schedule.iterations());
  EXPECT_LE(static_cast<double>(outcome.iterations),
            phase2_iteration_bound(0.1, kN) + 2.0);
  // 3 rounds per iteration plus K sampling rounds.
  EXPECT_EQ(net.metrics().rounds, 3 * outcome.iterations + 15);
}

class MedianConvergence
    : public ::testing::TestWithParam<std::tuple<Distribution, double>> {};

TEST_P(MedianConvergence, AllOutputsNearMedian) {
  const auto [dist, eps] = GetParam();
  constexpr std::uint32_t kN = 1 << 14;
  const auto keys = make_keys(generate_values(dist, kN, 7));
  const RankScale scale(keys);

  Network net(kN, 13);
  std::vector<Key> state(keys.begin(), keys.end());
  const auto outcome = three_tournament(net, state, eps, 15);

  const auto summary =
      evaluate_outputs(scale, outcome.outputs, 0.5, eps);
  EXPECT_GE(summary.frac_within_eps, 0.995)
      << "dist=" << to_string(dist) << " eps=" << eps
      << " max_err=" << summary.max_abs_error;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MedianConvergence,
    ::testing::Combine(::testing::Values(Distribution::kUniformPermutation,
                                         Distribution::kGaussian,
                                         Distribution::kZipf,
                                         Distribution::kDuplicateHeavy),
                       ::testing::Values(0.05, 0.1, 0.2)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_eps" +
             std::to_string(static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(ThreeTournament, EvenSampleSizeIsForcedOdd) {
  constexpr std::uint32_t kN = 512;
  Network net_even(kN, 3), net_odd(kN, 3);
  auto s1 =
      make_keys(generate_values(Distribution::kUniformPermutation, kN, 4));
  auto s2 = s1;
  const auto r_even = three_tournament(net_even, s1, 0.15, 14);
  const auto r_odd = three_tournament(net_odd, s2, 0.15, 15);
  // 14 is promoted to 15: identical transcripts.
  EXPECT_EQ(r_even.outputs, r_odd.outputs);
  EXPECT_EQ(net_even.metrics().rounds, net_odd.metrics().rounds);
}

TEST(ThreeTournament, LargerEpsTakesFewerIterations) {
  constexpr std::uint32_t kN = 4096;
  Network a(kN, 9), b(kN, 9);
  auto s1 =
      make_keys(generate_values(Distribution::kUniformPermutation, kN, 6));
  auto s2 = s1;
  const auto coarse = three_tournament(a, s1, 0.2, 15);
  const auto fine = three_tournament(b, s2, 0.02, 15);
  EXPECT_LT(coarse.iterations, fine.iterations);
}

TEST(ThreeTournament, SingleSampleFinalStepStillWorks) {
  // K = 1: every node outputs one sampled value; after convergence almost
  // all nodes hold median-window values anyway.
  constexpr std::uint32_t kN = 1 << 13;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 10));
  const RankScale scale(keys);
  Network net(kN, 21);
  std::vector<Key> state(keys.begin(), keys.end());
  const auto outcome = three_tournament(net, state, 0.1, 1);
  const auto summary = evaluate_outputs(scale, outcome.outputs, 0.5, 0.1);
  // With K=1 the residual ~n^(-1/3) tails leak straight into the outputs;
  // Lemma 2.17's amplification is what buys the last few percent.
  EXPECT_GE(summary.frac_within_eps, 0.90);
}

TEST(ThreeTournament, ConstantInputIsFixedPoint) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 2);
  const auto keys =
      make_keys(generate_values(Distribution::kConstant, kN, 1));
  std::vector<Key> state(keys.begin(), keys.end());
  const auto outcome = three_tournament(net, state, 0.1, 5);
  // All values share value 42; outputs must too.
  for (const Key& k : outcome.outputs) EXPECT_EQ(k.value, 42.0);
}

// Both phases' observers run once per iteration with 1-based indices, and
// the last state each sees is the state its call leaves behind.
TEST(Tournaments, ObserversSeeEveryIterationAndTheFinalState) {
  constexpr std::uint32_t kN = 1024;
  Network net(kN, 13);
  auto state = make_keys(generate_values(Distribution::kUniformReal, kN, 3));
  std::vector<std::size_t> seen;
  std::vector<Key> last;
  const auto record = [&](std::size_t iter, std::span<const Key> s) {
    seen.push_back(iter);
    last.assign(s.begin(), s.end());
  };

  const auto two = two_tournament(net, state, 0.25, 0.1, true, record);
  ASSERT_GT(two.iterations, 0u);
  ASSERT_EQ(seen.size(), two.iterations);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
  EXPECT_EQ(last, state);

  seen.clear();
  const auto three = three_tournament(net, state, 0.1, 15, record);
  ASSERT_GT(three.iterations, 0u);
  ASSERT_EQ(seen.size(), three.iterations);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i + 1);
  EXPECT_EQ(last, state);
}

TEST(ThreeTournament, RejectsInvalidArguments) {
  Network net(64, 1);
  auto state =
      make_keys(generate_values(Distribution::kUniformPermutation, 64, 1));
  EXPECT_THROW((void)three_tournament(net, state, 0.0, 15),
               std::invalid_argument);
  EXPECT_THROW((void)three_tournament(net, state, 0.1, 0),
               std::invalid_argument);
  Network failing(64, 1, FailureModel::uniform(0.1));
  EXPECT_THROW((void)three_tournament(failing, state, 0.1, 15),
               std::invalid_argument);
}

}  // namespace
}  // namespace gq
