// Adversarial failure schedules beyond the uniform model: bursts, targeted
// nodes and round-dependent probabilities.  The substrates must degrade
// gracefully (mass conservation, eventual convergence), matching the
// pre-determined p_{v,i} model of Section 5.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <numeric>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "analysis/rank_stats.hpp"
#include "core/approx_quantile.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

FailureModel burst(std::uint64_t from, std::uint64_t to, double p) {
  return FailureModel::custom(
      [from, to, p](std::uint32_t, std::uint64_t round) {
        return (round >= from && round <= to) ? p : 0.0;
      },
      p);
}

TEST(FailureInjection, BurstRoundsActuallyFail) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 3, burst(3, 5, 0.9));
  for (int r = 1; r <= 8; ++r) {
    const auto peers = net.pull_round(16);
    const auto failed = static_cast<double>(
        std::count(peers.begin(), peers.end(), Network::kNoPeer));
    if (r >= 3 && r <= 5) {
      EXPECT_GE(failed / kN, 0.8) << "round " << r;
    } else {
      EXPECT_EQ(failed, 0.0) << "round " << r;
    }
  }
}

TEST(FailureInjection, PushSumConservesMassThroughBurst) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 5, burst(10, 40, 0.95));
  const auto xs = generate_values(Distribution::kExponential, kN, 7);
  const double truth =
      std::accumulate(xs.begin(), xs.end(), 0.0) / static_cast<double>(kN);
  std::vector<std::array<double, 1>> lanes(kN);
  for (std::uint32_t v = 0; v < kN; ++v) lanes[v][0] = xs[v];
  // Generous round budget: the burst stalls diffusion for 30 rounds.
  const auto r = push_sum_average_multi<1>(
      net, std::span<const std::array<double, 1>>(lanes), 220);
  for (const auto& e : r.estimates) EXPECT_NEAR(e[0], truth, 1e-4);
}

TEST(FailureInjection, SpreadSurvivesTotalBlackout) {
  // Everything fails for 20 straight rounds mid-spread; convergence must
  // still happen afterwards.
  constexpr std::uint32_t kN = 1024;
  Network net(kN, 9, burst(5, 24, 0.99));
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 11));
  const Key truth = *std::max_element(keys.begin(), keys.end());
  const auto r = spread_max(net, keys, 400);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

TEST(FailureInjection, CountingExactDespiteTargetedNodes) {
  // A third of the nodes (including all holders of 'true') are unreliable.
  constexpr std::uint32_t kN = 300;
  std::vector<double> probs(kN, 0.0);
  std::vector<bool> indicator(kN, false);
  for (std::uint32_t v = 0; v < kN / 3; ++v) {
    probs[v] = 0.6;
    indicator[v] = true;
  }
  Network net(kN, 13, FailureModel::per_node(probs));
  const auto r = gossip_count(net, indicator);
  for (auto c : r.counts) EXPECT_EQ(c, kN / 3);
}

TEST(FailureInjection, RobustApproxWithHeterogeneousNodes) {
  // Half the network is flaky (50% loss), half is perfect: accuracy must
  // hold for the nodes that are served.
  constexpr std::uint32_t kN = 4096;
  std::vector<double> probs(kN, 0.0);
  for (std::uint32_t v = 0; v < kN; v += 2) probs[v] = 0.5;
  const auto values = generate_values(Distribution::kUniformReal, kN, 17);
  const RankScale scale(make_keys(values));

  Network net(kN, 19, FailureModel::per_node(probs));
  ApproxQuantileParams params;
  params.phi = 0.75;
  params.eps = 0.15;
  const auto r = approx_quantile(net, values, params);
  EXPECT_GE(r.served_nodes(), kN - kN / 32);
  std::size_t ok = 0, total = 0;
  for (std::uint32_t v = 0; v < kN; ++v) {
    if (!r.valid[v]) continue;
    ++total;
    ok += scale.within_eps(r.outputs[v], 0.75, 0.15) ? 1 : 0;
  }
  EXPECT_GE(static_cast<double>(ok) / static_cast<double>(total), 0.97);
}

TEST(FailureInjection, LateRoundFailuresOnlyDelayConvergence) {
  // Failure probability grows with the round index (battery exhaustion):
  // early progress is clean, the tail drags but converges.
  constexpr std::uint32_t kN = 512;
  const FailureModel fm = FailureModel::custom(
      [](std::uint32_t, std::uint64_t round) {
        return std::min(0.8, static_cast<double>(round) / 100.0);
      },
      0.8);
  Network net(kN, 23, fm);
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 29));
  const Key truth = *std::min_element(keys.begin(), keys.end());
  const auto r = spread_min(net, keys, 600);
  EXPECT_TRUE(r.converged);
  for (const Key& k : r.values) EXPECT_EQ(k, truth);
}

}  // namespace
}  // namespace gq
