// Differential tests for the shared-schedule multi-quantile pipeline: the
// engine's q-lane kernels (engine/kernels.cpp) must produce bit-identical
// outputs, round counts, and Metrics to the sequential Network
// instantiation (core/multi_quantile.cpp) of the shared control flow in
// core/multi_pipeline.hpp — at 1, 2, and 8 threads and any gather block.
#include <gtest/gtest.h>

#include <vector>

#include "core/multi_quantile.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

void expect_same(const MultiQuantileResult& par, const MultiQuantileResult& seq,
                 const char* label) {
  ASSERT_EQ(par.per_phi.size(), seq.per_phi.size()) << label;
  for (std::size_t i = 0; i < seq.per_phi.size(); ++i) {
    EXPECT_EQ(par.per_phi[i].outputs, seq.per_phi[i].outputs)
        << label << " target " << i;
    EXPECT_EQ(par.per_phi[i].valid, seq.per_phi[i].valid) << label;
    EXPECT_EQ(par.per_phi[i].phase1_iterations,
              seq.per_phi[i].phase1_iterations)
        << label;
    EXPECT_EQ(par.per_phi[i].phase2_iterations,
              seq.per_phi[i].phase2_iterations)
        << label;
    EXPECT_EQ(par.per_phi[i].rounds, seq.per_phi[i].rounds) << label;
  }
  EXPECT_EQ(par.rounds, seq.rounds) << label;
  EXPECT_EQ(par.shared_schedule, seq.shared_schedule) << label;
  EXPECT_EQ(par.unique_targets, seq.unique_targets) << label;
  EXPECT_TRUE(par.metrics == seq.metrics) << label;
}

// 4096 nodes fill every 8-node block of the final sample's median network;
// 4093 leave a 5-node block at the tail shard, here at K = 31 (32 wires).
TEST(EngineMulti, SharedScheduleMatchesNetwork) {
  constexpr std::uint64_t kSeed = 601;
  const struct {
    std::uint32_t n;
    std::uint32_t final_sample_size;
  } cases[] = {{4096, 15}, {4093, 31}};
  for (const auto& c : cases) {
    const auto values = generate_values(Distribution::kUniformReal, c.n, 19);

    MultiQuantileParams params;
    params.phis = {0.5, 0.9, 0.99, 0.999};
    params.eps = 0.15;  // above eps_tournament_floor(4096) = 0.125
    params.final_sample_size = c.final_sample_size;

    Network net(c.n, kSeed);
    const MultiQuantileResult seq = multi_quantile(net, values, params);
    ASSERT_TRUE(seq.shared_schedule);

    for (unsigned threads : kThreadCounts) {
      Engine engine(c.n, kSeed, FailureModel{},
                    EngineConfig{.threads = threads, .shard_size = 192});
      const MultiQuantileResult par = multi_quantile(engine, values, params);
      expect_same(par, seq, "shared");
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "n=" << c.n << " threads=" << threads;
    }
  }
}

TEST(EngineMulti, DuplicateTargetsMatchNetwork) {
  // Duplicated phis (deduped into lanes, mapped back per caller slot) and
  // a target set with an empty Phase-1 schedule (phi = 0.5 starts below
  // the 2-tournament threshold) must agree across executors too.
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 607;
  const auto values = generate_values(Distribution::kExponential, kN, 29);

  MultiQuantileParams params;
  params.phis = {0.5, 0.9, 0.5, 0.25, 0.9};
  params.eps = 0.15;

  Network net(kN, kSeed);
  const MultiQuantileResult seq = multi_quantile(net, values, params);
  ASSERT_TRUE(seq.shared_schedule);
  ASSERT_EQ(seq.unique_targets, 3u);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = threads, .shard_size = 192});
    const MultiQuantileResult par = multi_quantile(engine, values, params);
    expect_same(par, seq, "duplicates");
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineMulti, GatherBlockIsUnobservable) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 613;
  const auto values = generate_values(Distribution::kUniformReal, kN, 37);

  MultiQuantileParams params;
  params.phis = {0.1, 0.5, 0.9};
  params.eps = 0.15;

  Network net(kN, kSeed);
  const MultiQuantileResult seq = multi_quantile(net, values, params);

  for (const std::uint32_t block : {1u, 7u, 512u}) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = 2,
                               .shard_size = 192,
                               .gather_block = block});
    const MultiQuantileResult par = multi_quantile(engine, values, params);
    expect_same(par, seq, "block");
    EXPECT_EQ(engine.metrics(), net.metrics()) << "block=" << block;
  }
}

TEST(EngineMulti, RobustFallbackMatchesNetwork) {
  // Under a failure model the shared template routes both executors
  // through per-target robust pipelines; the differential guarantee must
  // hold there as well.
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 617;
  const auto values = generate_values(Distribution::kUniformReal, kN, 41);
  const FailureModel failures = FailureModel::uniform(0.1);

  MultiQuantileParams params;
  params.phis = {0.5, 0.9, 0.5};
  params.eps = 0.2;

  Network net(kN, kSeed, failures);
  const MultiQuantileResult seq = multi_quantile(net, values, params);
  ASSERT_FALSE(seq.shared_schedule);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, failures,
                  EngineConfig{.threads = threads, .shard_size = 192});
    const MultiQuantileResult par = multi_quantile(engine, values, params);
    expect_same(par, seq, "robust");
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineMulti, SingleTargetSharedMatchesSingleTargetPipeline) {
  // On the engine too, a q = 1 shared run is bit-identical to the plain
  // approx_quantile pipeline (pinned separately from the Network twin).
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 619;
  const auto values = generate_values(Distribution::kUniformReal, kN, 43);

  Engine ref(kN, kSeed, FailureModel{},
             EngineConfig{.threads = 2, .shard_size = 192});
  ApproxQuantileParams ap;
  ap.phi = 0.9;
  ap.eps = 0.15;
  const ApproxQuantileResult one = approx_quantile(ref, values, ap);

  Engine engine(kN, kSeed, FailureModel{},
                EngineConfig{.threads = 2, .shard_size = 192});
  MultiQuantileParams params;
  params.phis = {0.9};
  params.eps = 0.15;
  const MultiQuantileResult r = multi_quantile(engine, values, params);
  ASSERT_TRUE(r.shared_schedule);
  EXPECT_EQ(r.per_phi[0].outputs, one.outputs);
  EXPECT_EQ(r.rounds, one.rounds);
  EXPECT_EQ(engine.metrics(), ref.metrics());
}

}  // namespace
}  // namespace gq
