#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "workload/distributions.hpp"
#include "workload/scenario.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

class DistributionTest : public ::testing::TestWithParam<Distribution> {};

TEST_P(DistributionTest, ProducesRequestedSize) {
  const auto xs = generate_values(GetParam(), 500, 42);
  EXPECT_EQ(xs.size(), 500u);
}

TEST_P(DistributionTest, IsDeterministicPerSeed) {
  const auto a = generate_values(GetParam(), 200, 7);
  const auto b = generate_values(GetParam(), 200, 7);
  EXPECT_EQ(a, b);
}

TEST_P(DistributionTest, AllValuesFinite) {
  const auto xs = generate_values(GetParam(), 300, 3);
  for (double x : xs) EXPECT_TRUE(std::isfinite(x));
}

TEST_P(DistributionTest, KeysRestoreDistinctness) {
  const auto xs = generate_values(GetParam(), 300, 11);
  const auto keys = make_keys(xs);
  std::set<Key> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  EXPECT_EQ(key_values(keys), xs);
}

INSTANTIATE_TEST_SUITE_P(AllDistributions, DistributionTest,
                         ::testing::ValuesIn(all_distributions()),
                         [](const auto& info) {
                           return to_string(info.param);
                         });

TEST(Distributions, PermutationHitsEveryValueOnce) {
  const auto xs = generate_values(Distribution::kUniformPermutation, 256, 5);
  std::set<double> seen(xs.begin(), xs.end());
  EXPECT_EQ(seen.size(), 256u);
  EXPECT_EQ(*seen.begin(), 1.0);
  EXPECT_EQ(*seen.rbegin(), 256.0);
}

TEST(Distributions, ConstantIsAllEqual) {
  const auto xs = generate_values(Distribution::kConstant, 100, 1);
  for (double x : xs) EXPECT_EQ(x, xs.front());
}

TEST(Distributions, DuplicateHeavyHasTinyDomain) {
  const auto xs = generate_values(Distribution::kDuplicateHeavy, 1000, 1);
  std::set<double> domain(xs.begin(), xs.end());
  EXPECT_LE(domain.size(), 10u);
}

TEST(Distributions, DifferentSeedsDiffer) {
  const auto a = generate_values(Distribution::kUniformReal, 100, 1);
  const auto b = generate_values(Distribution::kUniformReal, 100, 2);
  EXPECT_NE(a, b);
}

TEST(AdversarialPair, ScenariosAreShiftedPermutations) {
  const auto pair = make_adversarial_pair(1000, 0.05, 9);
  EXPECT_EQ(pair.shift, 100u);  // floor(2 * 0.05 * 1000)
  std::vector<double> a = pair.scenario_a;
  std::vector<double> b = pair.scenario_b;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], static_cast<double>(i + 1));
    EXPECT_EQ(b[i], a[i] + 100.0);
  }
}

TEST(AdversarialPair, InformativeSetHasExpectedSize) {
  const auto pair = make_adversarial_pair(1000, 0.05, 9);
  const auto count = static_cast<std::size_t>(
      std::count(pair.informative.begin(), pair.informative.end(), true));
  // {1..b+1} plus {n-b+1..n} = 2b + 1 nodes.
  EXPECT_EQ(count, 2 * pair.shift + 1);
}

TEST(AdversarialPair, MediansDifferByAtLeastEpsN) {
  const double eps = 0.1;
  const auto pair = make_adversarial_pair(500, eps, 1);
  std::vector<double> a = pair.scenario_a, b = pair.scenario_b;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  const double median_gap = b[250] - a[250];
  EXPECT_GE(median_gap, eps * 500);
}

TEST(AdversarialPair, RejectsDegenerateEps) {
  EXPECT_THROW((void)make_adversarial_pair(100, 0.0001, 1),
               std::invalid_argument);
  EXPECT_THROW((void)make_adversarial_pair(100, 0.3, 1),
               std::invalid_argument);
}

TEST(SensorField, HotFractionControlsUpperTail) {
  const auto xs = make_sensor_field(5000, 0.2, 3);
  const auto hot = static_cast<double>(
      std::count_if(xs.begin(), xs.end(), [](double x) { return x > 50.0; }));
  EXPECT_NEAR(hot / 5000.0, 0.2, 0.03);
}

TEST(LatencyTrace, HasHeavyTail) {
  const auto xs = make_latency_trace(20000, 4);
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  const double p50 = sorted[10000];
  const double p999 = sorted[19980];
  EXPECT_GT(p50, 1.0);
  EXPECT_LT(p50, 100.0);
  EXPECT_GT(p999 / p50, 5.0);  // tail at least 5x the median
}

TEST(Tiebreak, RejectsEmptyInput) {
  EXPECT_THROW((void)make_keys({}), std::invalid_argument);
}

// NaN compares unordered, so it has no place in Key's total order: every
// values entry point of both executors rejects it here instead of running a
// protocol whose comparisons are meaningless.
TEST(Tiebreak, RejectsNaNAnywhereInTheInput) {
  std::vector<double> xs(256);
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i] = static_cast<double>(i);
  EXPECT_NO_THROW((void)make_keys(xs));
  for (const std::size_t at : {std::size_t{0}, std::size_t{97}, xs.size() - 1}) {
    std::vector<double> bad = xs;
    bad[at] = std::nan("");
    EXPECT_THROW((void)make_keys(bad), std::invalid_argument) << "at " << at;
  }
}

TEST(Tiebreak, IdsMatchNodeIndices) {
  const std::vector<double> xs = {5.0, 5.0, 1.0};
  const auto keys = make_keys(xs);
  for (std::uint32_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i].id, i);
    EXPECT_EQ(keys[i].tag, 0u);
  }
  EXPECT_LT(keys[0], keys[1]);  // equal values ordered by id
}

}  // namespace
}  // namespace gq
