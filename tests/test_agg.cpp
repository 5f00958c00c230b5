#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

TEST(PushSum, ConvergesToAverage) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 17);
  const auto xs = generate_values(Distribution::kUniformReal, kN, 1);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);
  const PushSumResult r = push_sum_average(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, truth, 1e-3);
}

TEST(PushSum, SumScalesAverage) {
  constexpr std::uint32_t kN = 128;
  Network net(kN, 3);
  std::vector<double> xs(kN, 2.5);
  const PushSumResult r = push_sum_sum(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, 2.5 * kN, 1e-6);
}

TEST(PushSum, MassIsConservedUnderFailures) {
  constexpr std::uint32_t kN = 200;
  Network net(kN, 23, FailureModel::uniform(0.4));
  const auto xs = generate_values(Distribution::kGaussian, kN, 2);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);
  const PushSumResult r = push_sum_average(net, xs);
  for (double e : r.estimates) EXPECT_NEAR(e, truth, 1e-2);
}

TEST(PushSum, ExactRoundsGiveTighterError) {
  constexpr std::uint32_t kN = 512;
  const auto xs = generate_values(Distribution::kExponential, kN, 5);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);

  Network fine(kN, 9);
  const auto r_fine =
      push_sum_average(fine, xs, push_sum_rounds_for_exact(fine));
  double err_fine = 0.0;
  for (std::uint32_t v = 0; v < kN; ++v) {
    err_fine = std::max(err_fine, std::abs(r_fine.estimates[v] - truth));
  }
  EXPECT_LT(err_fine, 1e-6);
}

TEST(PushSum, MultiDimensionalAgreesWithScalar) {
  constexpr std::uint32_t kN = 128;
  const auto a = generate_values(Distribution::kUniformReal, kN, 1);
  const auto b = generate_values(Distribution::kExponential, kN, 2);
  std::vector<std::array<double, 3>> x(kN);
  for (std::uint32_t v = 0; v < kN; ++v) x[v] = {a[v], b[v], 1.0};

  Network net(kN, 31);
  const auto multi = push_sum_average_multi<3>(
      net, std::span<const std::array<double, 3>>(x), 200);

  const double avg_a =
      std::accumulate(a.begin(), a.end(), 0.0) / static_cast<double>(kN);
  const double avg_b =
      std::accumulate(b.begin(), b.end(), 0.0) / static_cast<double>(kN);
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_NEAR(multi.estimates[v][0], avg_a, 1e-6);
    EXPECT_NEAR(multi.estimates[v][1], avg_b, 1e-6);
    EXPECT_NEAR(multi.estimates[v][2], 1.0, 1e-6);
  }
}

TEST(Spread, MaxReachesEveryNode) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 7);
  const auto keys = make_keys(generate_values(
      Distribution::kUniformPermutation, kN, 4));
  const Key truth = *std::max_element(keys.begin(), keys.end());
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, MinReachesEveryNode) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 7);
  const auto keys = make_keys(generate_values(
      Distribution::kGaussian, kN, 4));
  const Key truth = *std::min_element(keys.begin(), keys.end());
  const SpreadResult r = spread_min(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, RoundsAreLogarithmic) {
  // O(log n) w.h.p.: allow a generous constant but reject linear behaviour.
  for (std::uint32_t n : {64u, 256u, 1024u, 4096u}) {
    Network net(n, 13);
    const auto keys =
        make_keys(generate_values(Distribution::kUniformReal, n, 6));
    const SpreadResult r = spread_max(net, keys);
    EXPECT_TRUE(r.converged);
    EXPECT_LE(r.rounds, 6.0 * std::log2(static_cast<double>(n)) + 10.0)
        << "n=" << n;
  }
}

TEST(Spread, SurvivesFailures) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 19, FailureModel::uniform(0.5));
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 8));
  const Key truth = *std::max_element(keys.begin(), keys.end());
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(Spread, ZeroRoundsWhenAlreadyUniform) {
  constexpr std::uint32_t kN = 16;
  Network net(kN, 1);
  const std::vector<Key> keys(kN, Key{1.0, 3, 0});
  const SpreadResult r = spread_max(net, keys);
  EXPECT_TRUE(r.converged);
  EXPECT_EQ(r.rounds, 0u);
}

// The two-lane spread: both lanes ride the same pulls, so each lane
// evolves exactly like its one-lane spread on a fresh network with the same
// seed, and the pair costs the slower lane's rounds.
TEST(Spread, MinMaxLanesMatchTheirOneLaneSpreads) {
  constexpr std::uint32_t kN = 512;
  const auto lo = make_keys(generate_values(Distribution::kGaussian, kN, 4));
  const auto hi =
      make_keys(generate_values(Distribution::kUniformReal, kN, 5));
  for (const double mu : {0.0, 0.25}) {
    const FailureModel fm = mu > 0.0 ? FailureModel::uniform(mu)
                                     : FailureModel{};
    Network min_net(kN, 7, fm), max_net(kN, 7, fm), net(kN, 7, fm);
    const SpreadResult s_min = spread_min(min_net, lo);
    const SpreadResult s_max = spread_max(max_net, hi);
    const auto both = spread_min_max(net, lo, hi);
    ASSERT_TRUE(s_min.converged && s_max.converged);
    EXPECT_TRUE(both.converged);
    EXPECT_EQ(both.rounds, std::max(s_min.rounds, s_max.rounds))
        << "mu=" << mu;
    for (std::uint32_t v = 0; v < kN; ++v) {
      EXPECT_EQ(both.values[v].min, s_min.values.front());
      EXPECT_EQ(both.values[v].max, s_max.values.front());
    }
    // Every pull carries both lanes.
    EXPECT_EQ(net.metrics().rounds, both.rounds);
    EXPECT_EQ(net.metrics().message_bits,
              net.metrics().messages * 2 * key_bits(kN));
    if (mu == 0.0) {
      EXPECT_EQ(net.metrics().messages, both.rounds * kN);
    }
  }
}

TEST(Spread, MinMaxCostsNothingWhenLanesAgree) {
  constexpr std::uint32_t kN = 64;
  Network net(kN, 1);
  const auto both = spread_min_max(net, std::vector<Key>(kN, Key{1.0, 3, 0}),
                                   std::vector<Key>(kN, Key{2.0, 5, 0}));
  EXPECT_TRUE(both.converged);
  EXPECT_EQ(both.rounds, 0u);
  EXPECT_EQ(net.metrics().rounds, 0u);
  EXPECT_EQ(net.metrics().messages, 0u);
}

TEST(GossipCount, ExactOnAllNodes) {
  constexpr std::uint32_t kN = 300;
  Network net(kN, 29);
  std::vector<bool> indicator(kN, false);
  for (std::uint32_t v = 0; v < kN; v += 3) indicator[v] = true;
  const std::uint64_t truth = (kN + 2) / 3;
  const CountResult r = gossip_count(net, indicator);
  for (auto c : r.counts) EXPECT_EQ(c, truth);
}

TEST(GossipCount, ZeroAndFullCounts) {
  constexpr std::uint32_t kN = 64;
  Network net(kN, 31);
  const CountResult zero = gossip_count(net, std::vector<bool>(kN, false));
  const CountResult full = gossip_count(net, std::vector<bool>(kN, true));
  for (auto c : zero.counts) EXPECT_EQ(c, 0u);
  for (auto c : full.counts) EXPECT_EQ(c, kN);
}

TEST(GossipRank, MatchesOfflineRank) {
  constexpr std::uint32_t kN = 200;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformPermutation, kN, 10));
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t target : {1ull, 50ull, 200ull}) {
    Network net(kN, 37 + target);
    const CountResult r = gossip_rank(net, keys, sorted[target - 1]);
    for (auto c : r.counts) EXPECT_EQ(c, target);
  }
}

TEST(GossipRank, ExactUnderFailures) {
  constexpr std::uint32_t kN = 150;
  Network net(kN, 41, FailureModel::uniform(0.3));
  const auto keys =
      make_keys(generate_values(Distribution::kZipf, kN, 12));
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  const CountResult r = gossip_rank(net, keys, sorted[74]);
  for (auto c : r.counts) EXPECT_EQ(c, 75u);
}

TEST(GossipCount3, ThreeExactCountsInOneRun) {
  constexpr std::uint32_t kN = 220;
  Network net(kN, 43);
  std::vector<bool> a(kN, false), b(kN, false), c(kN, false);
  for (std::uint32_t v = 0; v < kN; ++v) {
    a[v] = v < 20;
    b[v] = v % 2 == 0;
    c[v] = true;
  }
  const TripleCountResult r = gossip_count3(net, a, b, c);
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_EQ(r.a[v], 20u);
    EXPECT_EQ(r.b[v], kN / 2);
    EXPECT_EQ(r.c[v], kN);
  }
}

TEST(Agg, InputSizeMismatchThrows) {
  Network net(8, 1);
  const std::vector<double> wrong(7, 1.0);
  EXPECT_THROW((void)push_sum_average(net, wrong), std::invalid_argument);
  EXPECT_THROW((void)gossip_count(net, std::vector<bool>(9, true)),
               std::invalid_argument);
}

}  // namespace
}  // namespace gq
