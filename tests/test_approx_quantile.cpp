#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "analysis/theory_bounds.hpp"
#include "core/approx_quantile.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

class ApproxSweep : public ::testing::TestWithParam<
                        std::tuple<Distribution, double /*phi*/>> {};

TEST_P(ApproxSweep, EveryNodeWithinEps) {
  const auto [dist, phi] = GetParam();
  constexpr std::uint32_t kN = 1 << 13;
  const double eps = 0.12;  // above eps_tournament_floor(8192) ~= 0.1
  ASSERT_GE(eps, eps_tournament_floor(kN));

  const auto values = generate_values(dist, kN, 101);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 73);
  ApproxQuantileParams params;
  params.phi = phi;
  params.eps = eps;
  const auto r = approx_quantile(net, values, params);

  EXPECT_FALSE(r.used_exact_fallback);
  EXPECT_EQ(r.outputs.size(), kN);
  EXPECT_EQ(r.served_nodes(), kN);
  const auto summary = evaluate_outputs(scale, r.outputs, phi, eps);
  EXPECT_GE(summary.frac_within_eps, 0.995)
      << "dist=" << to_string(dist) << " phi=" << phi
      << " max_err=" << summary.max_abs_error;
  // Nothing should be grossly wrong even in the sub-per-mille tail.
  EXPECT_LE(summary.max_abs_error, 3.0 * eps);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ApproxSweep,
    ::testing::Combine(::testing::Values(Distribution::kUniformPermutation,
                                         Distribution::kGaussian,
                                         Distribution::kExponential,
                                         Distribution::kZipf,
                                         Distribution::kBimodal,
                                         Distribution::kDuplicateHeavy),
                       ::testing::Values(0.0, 0.1, 0.25, 0.5, 0.75, 0.9,
                                         1.0)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_phi" +
             std::to_string(
                 static_cast<int>(std::get<1>(info.param) * 100));
    });

TEST(ApproxQuantile, RoundsAreDoublyLogarithmicish) {
  // Rounds must stay within the analytic iteration bounds (3 rounds per
  // tournament iteration plus the final sampling).
  for (std::uint32_t n : {1u << 12, 1u << 14, 1u << 16}) {
    const double eps = 0.15;
    Network net(n, 7);
    const auto values =
        generate_values(Distribution::kUniformReal, n, 11);
    ApproxQuantileParams params;
    params.phi = 0.3;
    params.eps = eps;
    const auto r = approx_quantile(net, values, params);
    const double bound = 2.0 * phase1_iteration_bound(eps) +
                         3.0 * phase2_iteration_bound(eps / 4.0, n) +
                         params.final_sample_size + 4.0;
    EXPECT_LE(static_cast<double>(r.rounds), bound) << "n=" << n;
    EXPECT_EQ(r.rounds, net.metrics().rounds);
  }
}

TEST(ApproxQuantile, TinyEpsFallsBackToExact) {
  constexpr std::uint32_t kN = 1024;
  const auto values =
      generate_values(Distribution::kUniformPermutation, kN, 5);
  const auto keys = make_keys(values);
  const RankScale scale(keys);

  Network net(kN, 9);
  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 1e-4;  // far below the floor
  const auto r = approx_quantile(net, values, params);
  EXPECT_TRUE(r.used_exact_fallback);
  const Key truth = scale.exact_quantile(0.5);
  for (const Key& k : r.outputs) {
    EXPECT_EQ(k.value, truth.value);
    EXPECT_EQ(k.id, truth.id);
  }
}

TEST(ApproxQuantile, ForceTournamentSkipsFallback) {
  constexpr std::uint32_t kN = 1024;
  const auto values =
      generate_values(Distribution::kUniformPermutation, kN, 5);
  Network net(kN, 9);
  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below floor(1024) ~ 0.2
  params.force_tournament = true;
  const auto r = approx_quantile(net, values, params);
  EXPECT_FALSE(r.used_exact_fallback);
  // The run completes with the tournament round budget even when accuracy
  // is no longer guaranteed.
  EXPECT_LE(r.rounds, 200u);
}

TEST(ApproxQuantile, DeterministicPerSeed) {
  constexpr std::uint32_t kN = 2048;
  const auto values = generate_values(Distribution::kGaussian, kN, 31);
  ApproxQuantileParams params;
  params.phi = 0.75;
  params.eps = 0.15;

  Network a(kN, 55), b(kN, 55);
  const auto ra = approx_quantile(a, values, params);
  const auto rb = approx_quantile(b, values, params);
  EXPECT_EQ(ra.outputs, rb.outputs);
  EXPECT_EQ(ra.rounds, rb.rounds);
  // Different seeds give different transcripts (message-level divergence is
  // asserted in test_sim); outputs may still legitimately coincide, so no
  // inequality is asserted here.
}

TEST(ApproxQuantile, OutputsAreInputValues) {
  constexpr std::uint32_t kN = 4096;
  const auto values = generate_values(Distribution::kClustered, kN, 3);
  const auto keys = make_keys(values);
  const RankScale scale(keys);
  Network net(kN, 77);
  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.15;
  const auto r = approx_quantile(net, values, params);
  for (const Key& k : r.outputs) {
    // Every output is one of the original keys (rank lookup must find it).
    EXPECT_EQ(scale.key_at_rank(scale.rank(k)), k);
  }
}

TEST(ApproxQuantile, RejectsInvalidParams) {
  Network net(64, 1);
  const auto values =
      generate_values(Distribution::kUniformPermutation, 64, 1);
  ApproxQuantileParams params;
  params.phi = 1.5;
  EXPECT_THROW((void)approx_quantile(net, values, params),
               std::invalid_argument);
  params.phi = 0.5;
  params.eps = 0.0;
  EXPECT_THROW((void)approx_quantile(net, values, params),
               std::invalid_argument);
  params.eps = 0.7;
  EXPECT_THROW((void)approx_quantile(net, values, params),
               std::invalid_argument);
  // K = 0 is rejected on every route: eps 0.3 sits above
  // eps_tournament_floor(64) = 0.25, so the failure-free network takes the
  // tournament route and the failing one the robust route.
  params.eps = 0.3;
  params.final_sample_size = 0;
  EXPECT_THROW((void)approx_quantile(net, values, params),
               std::invalid_argument);
  Network failing(64, 1, FailureModel::uniform(0.1));
  EXPECT_THROW((void)approx_quantile(failing, values, params),
               std::invalid_argument);
}

TEST(ApproxQuantile, MetricsAccountAllTraffic) {
  constexpr std::uint32_t kN = 1024;
  Network net(kN, 3);
  const auto values =
      generate_values(Distribution::kUniformReal, kN, 8);
  ApproxQuantileParams params;
  params.phi = 0.25;
  params.eps = 0.2;
  const auto r = approx_quantile(net, values, params);
  const Metrics& m = net.metrics();
  EXPECT_EQ(m.rounds, r.rounds);
  // At most one message per node per round in the failure-free tournaments.
  EXPECT_LE(m.messages, m.rounds * kN);
  EXPECT_GT(m.messages, 0u);
  // All tournament messages fit the O(log n) budget.
  EXPECT_LE(m.max_message_bits, key_bits(kN));
}

}  // namespace
}  // namespace gq
