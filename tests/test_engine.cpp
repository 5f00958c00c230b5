// Determinism tests for the sharded parallel engine: the engine must
// produce bit-identical transcripts, states, and Metrics to the sequential
// Network path for the same seed, at every thread count, with and without
// a failure model.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "baselines/median_rule.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "core/own_rank.hpp"
#include "core/pivot.hpp"
#include "core/token_split.hpp"
#include "engine/engine.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
#include "engine/scatter.hpp"
#include "engine/thread_pool.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

// Small shards so every thread count exercises multi-shard merging.
EngineConfig config_for(unsigned threads) {
  return EngineConfig{.threads = threads, .shard_size = 192};
}

// Fault inputs of the round-loop pins below.  kNeverFires installs a model
// that returns 0 everywhere with bound 0: faultless() is false, so the
// engine's round loops run with the failure coin compiled in
// (ExecutorCore::with_fault_coin), yet the coin never fires and round
// schedules (which scale by max_probability()) equal the failure-free
// ones, so every result and Metrics must equal the failure-free run's.
enum class Faults { kNone, kNeverFires, kUniform };
constexpr Faults kFaultInputs[] = {Faults::kNone, Faults::kNeverFires,
                                   Faults::kUniform};

FailureModel model_for(Faults faults, double mu) {
  switch (faults) {
    case Faults::kNone:
      return FailureModel{};
    case Faults::kNeverFires:
      return FailureModel::custom(
          [](std::uint32_t, std::uint64_t) { return 0.0; }, 0.0);
    case Faults::kUniform:
      return FailureModel::uniform(mu);
  }
  return FailureModel{};
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.threads(), threads);
    std::vector<std::atomic<int>> hits(257);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
    // The pool must be reusable across batches.
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 2);
    pool.run(0, [&](std::size_t) { FAIL() << "empty batch ran a task"; });
  }
}

TEST(ThreadPool, PropagatesTaskExceptionsAndStaysUsable) {
  for (unsigned threads : kThreadCounts) {
    ThreadPool pool(threads);
    EXPECT_THROW(
        pool.run(64,
                 [](std::size_t i) {
                   if (i == 13) throw std::runtime_error("boom");
                 }),
        std::runtime_error);
    // The pool must survive a throwing batch intact.
    std::atomic<int> ran{0};
    pool.run(64, [&](std::size_t) { ++ran; });
    EXPECT_EQ(ran.load(), 64);
  }
}

// Many more tasks than threads: the chunked claim loop must still execute
// every index exactly once, across batches of wildly different sizes
// (descriptor reuse between batches is where a stale-claim bug would bite).
TEST(ThreadPool, ChunkedClaimingCoversManyTasks) {
  for (unsigned threads : {2u, 8u}) {
    ThreadPool pool(threads);
    constexpr std::size_t kTasks = 100000;
    std::vector<std::atomic<std::uint8_t>> hits(kTasks);
    for (const std::size_t batch : {std::size_t{1}, kTasks, std::size_t{3},
                                    std::size_t{kTasks / 7}}) {
      for (auto& h : hits) h.store(0);
      pool.run(batch, [&](std::size_t i) { ++hits[i]; });
      for (std::size_t i = 0; i < kTasks; ++i) {
        ASSERT_EQ(hits[i].load(), i < batch ? 1 : 0)
            << "threads=" << threads << " batch=" << batch << " i=" << i;
      }
    }
  }
}

// Single-task batches exercise the opposite edge: one chunk, claimed by
// whichever thread gets there first, everyone else must pass through the
// barrier without touching anything.
TEST(ThreadPool, SingleTaskBatches) {
  ThreadPool pool(8);
  std::atomic<int> ran{0};
  for (int rep = 0; rep < 200; ++rep) {
    pool.run(1, [&](std::size_t i) {
      EXPECT_EQ(i, 0u);
      ++ran;
    });
  }
  EXPECT_EQ(ran.load(), 200);
}

// Exceptions under contention: several tasks of a large batch throw
// concurrently; exactly one exception must surface per run() and the pool
// must stay usable across many such batches.
TEST(ThreadPool, ExceptionStressUnderContention) {
  ThreadPool pool(8);
  for (int rep = 0; rep < 20; ++rep) {
    std::atomic<int> attempted{0};
    try {
      pool.run(5000, [&](std::size_t i) {
        ++attempted;
        if (i % 701 == 0) throw std::runtime_error("sporadic");
      });
      FAIL() << "batch with throwing tasks must rethrow";
    } catch (const std::runtime_error&) {
      // The barrier still holds: every index ran before run() returned.
      EXPECT_EQ(attempted.load(), 5000) << "rep=" << rep;
    }
  }
  std::atomic<int> ran{0};
  pool.run(1000, [&](std::size_t) { ++ran; });
  EXPECT_EQ(ran.load(), 1000);
}

TEST(Engine, RejectsInvalidConfigurations) {
  EXPECT_THROW(Engine(1, 7), std::invalid_argument);
  EXPECT_THROW(Engine(16, 7, FailureModel{},
                      EngineConfig{.threads = 1, .shard_size = 0}),
               std::invalid_argument);
}

TEST(Engine, PullRoundTranscriptMatchesNetworkAtEveryThreadCount) {
  constexpr std::uint32_t kN = 1000;
  constexpr std::uint64_t kSeed = 41;
  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.25);
    Network net(kN, kSeed, fm);
    std::vector<std::vector<std::uint32_t>> expected;
    for (int r = 0; r < 12; ++r) expected.push_back(net.pull_round(32));

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      std::vector<std::vector<std::uint32_t>> got;
      for (int r = 0; r < 12; ++r) {
        got.push_back(engine.pull_round(32));
        EXPECT_EQ(got.back(), expected[static_cast<size_t>(r)])
            << "threads=" << threads << " round=" << r
            << " faults=" << static_cast<int>(faults);
      }
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " faults=" << static_cast<int>(faults);
      EXPECT_EQ(engine.round(), net.round());
      if (faults == Faults::kNeverFires) {
        Engine failure_free(kN, kSeed, FailureModel{}, config_for(threads));
        for (int r = 0; r < 12; ++r) {
          EXPECT_EQ(got[static_cast<size_t>(r)], failure_free.pull_round(32))
              << "threads=" << threads << " round=" << r;
        }
        EXPECT_EQ(engine.metrics(), failure_free.metrics())
            << "threads=" << threads;
      }
    }
  }
}

TEST(Engine, DefaultMessageBitsMatchesNetwork) {
  Network net(1 << 20, 1);
  Engine engine(1 << 20, 1, FailureModel{}, EngineConfig{.threads = 1});
  EXPECT_EQ(engine.default_message_bits(), net.default_message_bits());
}

// The median rule ([DGM+11]) on the engine must reproduce the sequential
// baseline exactly — outputs, rounds and Metrics — failure-free and under
// a failure model (where a node whose first pull failed skips its second),
// at 3 iterations (pooled Key buffers) and 16 (interned rank lanes; see the
// threshold in median_rule_keys), at gather blocks that straddle shard
// boundaries (3) and span several shards (256).
TEST(EngineKernels, MedianRuleMatchesBaseline) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 137;
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 51));

  for (const std::uint64_t iterations : {std::uint64_t{3},
                                         std::uint64_t{16}}) {
    for (const bool with_failures : {false, true}) {
      const FailureModel fm =
          with_failures ? FailureModel::uniform(0.25) : FailureModel{};
      const MedianRuleParams params{.iterations = iterations};
      Network net(kN, kSeed, fm);
      const MedianRuleResult seq = median_rule_keys(net, keys, params);
      ASSERT_EQ(seq.rounds, 2 * iterations);

      for (unsigned threads : kThreadCounts) {
        for (const std::uint32_t block : {3u, 256u}) {
          Engine engine(kN, kSeed, fm,
                        EngineConfig{.threads = threads,
                                     .shard_size = 192,
                                     .gather_block = block});
          const MedianRuleResult par = median_rule_keys(engine, keys, params);
          EXPECT_EQ(par.iterations, seq.iterations);
          EXPECT_EQ(par.rounds, seq.rounds);
          EXPECT_EQ(par.outputs, seq.outputs)
              << "threads=" << threads << " block=" << block
              << " iterations=" << iterations << " failures=" << with_failures;
          EXPECT_EQ(engine.metrics(), net.metrics())
              << "threads=" << threads << " block=" << block
              << " iterations=" << iterations << " failures=" << with_failures;
        }
      }
    }
  }
}

TEST(EngineKernels, TwoTournamentMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 101;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 7));

  for (const double phi : {0.5, 0.2}) {
    for (const bool truncate_last : {true, false}) {
      Network net(kN, kSeed);
      std::vector<Key> seq_state(keys.begin(), keys.end());
      const auto seq =
          two_tournament(net, seq_state, phi, 0.05, truncate_last);

      for (unsigned threads : kThreadCounts) {
        Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par =
            two_tournament(engine, state, phi, 0.05, truncate_last);
        EXPECT_EQ(par.iterations, seq.iterations);
        EXPECT_EQ(par.side, seq.side);
        EXPECT_EQ(state, seq_state)
            << "threads=" << threads << " phi=" << phi
            << " truncate_last=" << truncate_last;
        EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
      }
    }
  }
}

TEST(EngineKernels, ThreeTournamentMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 103;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 11));

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  const auto seq = three_tournament(net, seq_state, 0.05);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    std::vector<Key> state(keys.begin(), keys.end());
    const auto par = three_tournament(engine, state, 0.05);
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EngineKernels, TournamentsRejectFailureModels) {
  Engine engine(64, 1, FailureModel::uniform(0.1),
                EngineConfig{.threads = 1});
  std::vector<Key> state(64);
  EXPECT_THROW((void)two_tournament(engine, state, 0.5, 0.1),
               std::invalid_argument);
  EXPECT_THROW((void)three_tournament(engine, state, 0.1),
               std::invalid_argument);
}

// ---- scatter primitive ----------------------------------------------------

// Every destination must observe its payloads in ascending sender order —
// the sequential for-loop's order — at every thread count and shard size.
TEST(Scatter, DeliversInAscendingSenderOrder) {
  constexpr std::uint32_t kN = 997;
  for (unsigned threads : kThreadCounts) {
    for (const std::uint32_t shard_size : {37u, 192u, 1u << 14}) {
      Engine engine(kN, 3, FailureModel{},
                    EngineConfig{.threads = threads, .shard_size = shard_size});
      Scatter<std::uint64_t> scatter(engine);
      scatter.begin_round();
      // Node v sends its id to two destinations derived from v.
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
            for (std::uint32_t v = begin; v < end; ++v) {
              scatter.send(v, (v * 7 + 3) % kN, v);
              scatter.send(v, (v * 5 + 11) % kN, v);
            }
          });
      std::vector<std::vector<std::uint64_t>> got(kN);
      scatter.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
        got[dest].push_back(payload);
      });

      std::vector<std::vector<std::uint64_t>> want(kN);
      for (std::uint32_t v = 0; v < kN; ++v) {
        want[(v * 7 + 3) % kN].push_back(v);
        want[(v * 5 + 11) % kN].push_back(v);
      }
      EXPECT_EQ(got, want) << "threads=" << threads
                           << " shard_size=" << shard_size;
    }
  }
}

// ---- batched collectives --------------------------------------------------

TEST(EngineCollectives, SpreadMatchesCore) {
  constexpr std::uint32_t kN = 2000;
  constexpr std::uint64_t kSeed = 301;
  const auto keys =
      make_keys(generate_values(Distribution::kGaussian, kN, 13));

  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.3);
    Network net(kN, kSeed, fm);
    const SpreadResult seq_min = spread_min(net, keys);
    const SpreadResult seq_max = spread_max(net, keys);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const SpreadResult par_min = spread_min(engine, keys);
      const SpreadResult par_max = spread_max(engine, keys);
      EXPECT_EQ(par_min.values, seq_min.values);
      EXPECT_EQ(par_min.rounds, seq_min.rounds);
      EXPECT_EQ(par_min.converged, seq_min.converged);
      EXPECT_EQ(par_max.values, seq_max.values);
      EXPECT_EQ(par_max.rounds, seq_max.rounds);
      EXPECT_EQ(par_max.converged, seq_max.converged);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " faults=" << static_cast<int>(faults);
      if (faults == Faults::kNeverFires) {
        Engine failure_free(kN, kSeed, FailureModel{}, config_for(threads));
        const SpreadResult free_min = spread_min(failure_free, keys);
        const SpreadResult free_max = spread_max(failure_free, keys);
        EXPECT_EQ(par_min.values, free_min.values) << "threads=" << threads;
        EXPECT_EQ(par_min.rounds, free_min.rounds) << "threads=" << threads;
        EXPECT_EQ(par_max.values, free_max.values) << "threads=" << threads;
        EXPECT_EQ(par_max.rounds, free_max.rounds) << "threads=" << threads;
        EXPECT_EQ(engine.metrics(), failure_free.metrics())
            << "threads=" << threads;
      }
    }
  }

  // A round cap that stops both spreads before they converge: the engine
  // stops at the same round, with the same partial values and Metrics.
  constexpr std::uint64_t kCap = 3;
  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.3);
    Network net(kN, kSeed, fm);
    const SpreadResult seq_min = spread_min(net, keys, kCap);
    const SpreadResult seq_max = spread_max(net, keys, kCap);
    ASSERT_FALSE(seq_min.converged);
    ASSERT_FALSE(seq_max.converged);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const SpreadResult par_min = spread_min(engine, keys, kCap);
      const SpreadResult par_max = spread_max(engine, keys, kCap);
      const std::string where = "capped threads=" + std::to_string(threads) +
                                " faults=" +
                                std::to_string(static_cast<int>(faults));
      EXPECT_EQ(par_min.values, seq_min.values) << where;
      EXPECT_EQ(par_min.rounds, seq_min.rounds) << where;
      EXPECT_EQ(par_min.converged, seq_min.converged) << where;
      EXPECT_EQ(par_max.values, seq_max.values) << where;
      EXPECT_EQ(par_max.rounds, seq_max.rounds) << where;
      EXPECT_EQ(par_max.converged, seq_max.converged) << where;
      EXPECT_EQ(engine.metrics(), net.metrics()) << where;
    }
  }
}

// The exact pipeline's two-lane bracket spread: one pull sequence carries
// the min and max lanes and stops once both agree everywhere.
TEST(EngineCollectives, SpreadMinMaxMatchesCore) {
  constexpr std::uint32_t kN = 2000;
  constexpr std::uint64_t kSeed = 303;
  const auto lo =
      make_keys(generate_values(Distribution::kGaussian, kN, 14));
  const auto hi =
      make_keys(generate_values(Distribution::kExponential, kN, 15));

  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.25);
    Network net(kN, kSeed, fm);
    const auto seq = spread_min_max(net, lo, hi);
    ASSERT_TRUE(seq.converged);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const auto par = spread_min_max(engine, lo, hi);
      EXPECT_EQ(par.values, seq.values)
          << "threads=" << threads << " faults=" << static_cast<int>(faults);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.converged, seq.converged);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " faults=" << static_cast<int>(faults);
      if (faults == Faults::kNeverFires) {
        Engine failure_free(kN, kSeed, FailureModel{}, config_for(threads));
        const auto free_run = spread_min_max(failure_free, lo, hi);
        EXPECT_EQ(par.values, free_run.values) << "threads=" << threads;
        EXPECT_EQ(par.rounds, free_run.rounds) << "threads=" << threads;
        EXPECT_EQ(engine.metrics(), failure_free.metrics())
            << "threads=" << threads;
      }
    }
  }

  // A round cap that stops both lanes before they agree everywhere.
  constexpr std::uint64_t kCap = 3;
  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.25);
    Network net(kN, kSeed, fm);
    const auto seq = spread_min_max(net, lo, hi, kCap);
    ASSERT_FALSE(seq.converged);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const auto par = spread_min_max(engine, lo, hi, kCap);
      const std::string where = "capped threads=" + std::to_string(threads) +
                                " faults=" +
                                std::to_string(static_cast<int>(faults));
      EXPECT_EQ(par.values, seq.values) << where;
      EXPECT_EQ(par.rounds, seq.rounds) << where;
      EXPECT_EQ(par.converged, seq.converged) << where;
      EXPECT_EQ(engine.metrics(), net.metrics()) << where;
    }
  }
}

TEST(EngineCollectives, GossipCountMatchesCore) {
  constexpr std::uint32_t kN = 1500;
  constexpr std::uint64_t kSeed = 303;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 17));
  std::vector<bool> ind_a(kN), ind_b(kN), ind_c(kN);
  for (std::uint32_t v = 0; v < kN; ++v) {
    ind_a[v] = v % 3 == 0;
    ind_b[v] = v % 2 == 0;
    ind_c[v] = true;
  }

  // Both engine push-sum paths: 192-node shards fold through the scatter,
  // the default shard_size leaves one shard that folds in place.  Rounds 0
  // is the exact schedule; 4 and 12 stop while per-node counts still
  // differ, so each node's own fold order shows in its count.
  for (const Faults faults : kFaultInputs) {
    const FailureModel fm = model_for(faults, 0.25);
    for (const std::uint64_t rounds : {0u, 4u, 12u}) {
      Network net(kN, kSeed, fm);
      const CountResult seq_count = gossip_count(net, ind_a, rounds);
      const CountResult seq_rank = gossip_rank(net, keys, keys[kN / 2], rounds);
      const TripleCountResult seq3 =
          gossip_count3(net, ind_a, ind_b, ind_c, rounds);
      if (rounds != 0) {
        const auto [lo, hi] = std::minmax_element(seq_count.counts.begin(),
                                                  seq_count.counts.end());
        ASSERT_LT(*lo, *hi) << "rounds=" << rounds;
        const auto [lo3, hi3] = std::minmax_element(seq3.b.begin(), seq3.b.end());
        ASSERT_LT(*lo3, *hi3) << "rounds=" << rounds;
      }

      for (unsigned threads : kThreadCounts) {
        for (const EngineConfig& config :
             {config_for(threads), EngineConfig{.threads = threads}}) {
          Engine engine(kN, kSeed, fm, config);
          const CountResult par_count = gossip_count(engine, ind_a, rounds);
          const CountResult par_rank =
              gossip_rank(engine, keys, keys[kN / 2], rounds);
          const TripleCountResult par3 =
              gossip_count3(engine, ind_a, ind_b, ind_c, rounds);
          const std::string where =
              "threads=" + std::to_string(threads) +
              " shards=" + std::to_string(engine.num_shards()) +
              " faults=" + std::to_string(static_cast<int>(faults)) +
              " rounds=" + std::to_string(rounds);
          EXPECT_EQ(par_count.counts, seq_count.counts) << where;
          EXPECT_EQ(par_count.rounds, seq_count.rounds) << where;
          EXPECT_EQ(par_rank.counts, seq_rank.counts) << where;
          EXPECT_EQ(par3.a, seq3.a) << where;
          EXPECT_EQ(par3.b, seq3.b) << where;
          EXPECT_EQ(par3.c, seq3.c) << where;
          EXPECT_EQ(par3.rounds, seq3.rounds) << where;
          EXPECT_EQ(engine.metrics(), net.metrics()) << where;
          if (faults == Faults::kNeverFires) {
            Engine failure_free(kN, kSeed, FailureModel{}, config);
            const CountResult free_count =
                gossip_count(failure_free, ind_a, rounds);
            const CountResult free_rank =
                gossip_rank(failure_free, keys, keys[kN / 2], rounds);
            const TripleCountResult free3 =
                gossip_count3(failure_free, ind_a, ind_b, ind_c, rounds);
            EXPECT_EQ(par_count.counts, free_count.counts) << where;
            EXPECT_EQ(par_count.rounds, free_count.rounds) << where;
            EXPECT_EQ(par_rank.counts, free_rank.counts) << where;
            EXPECT_EQ(par3.a, free3.a) << where;
            EXPECT_EQ(par3.b, free3.b) << where;
            EXPECT_EQ(par3.c, free3.c) << where;
            EXPECT_EQ(par3.rounds, free3.rounds) << where;
            EXPECT_EQ(engine.metrics(), failure_free.metrics()) << where;
          }
        }
      }
    }
  }
}

TEST(EngineCollectives, PivotMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 307;
  const auto keys =
      make_keys(generate_values(Distribution::kZipf, kN, 19));
  std::vector<bool> candidate(kN);
  for (std::uint32_t v = 0; v < kN; ++v) candidate[v] = v % 5 != 0;

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.2) : FailureModel{};
    Network net(kN, kSeed, fm);
    const PivotSample seq = sample_uniform_candidate(net, keys, candidate);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const PivotSample par = sample_uniform_candidate(engine, keys, candidate);
      EXPECT_EQ(par.pivot, seq.pivot);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.found, seq.found);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
    }
  }

  // No candidate: nothing to spread, so the draw round is the whole cost.
  // One candidate: failure-free, its key is the pivot.  Both on 192-node
  // shards and on one shard (the default shard_size).
  constexpr std::uint32_t kOnly = 417;
  std::vector<bool> none(kN, false);
  std::vector<bool> one(kN, false);
  one[kOnly] = true;
  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.2) : FailureModel{};
    Network net(kN, kSeed, fm);
    const PivotSample seq_none = sample_uniform_candidate(net, keys, none);
    const PivotSample seq_one = sample_uniform_candidate(net, keys, one);
    EXPECT_FALSE(seq_none.found);
    EXPECT_EQ(seq_none.rounds, 1u);
    if (!with_failures) {
      ASSERT_TRUE(seq_one.found);
      EXPECT_EQ(seq_one.pivot, keys[kOnly]);
    }

    for (unsigned threads : kThreadCounts) {
      for (const EngineConfig& config :
           {config_for(threads), EngineConfig{.threads = threads}}) {
        Engine engine(kN, kSeed, fm, config);
        const PivotSample par_none =
            sample_uniform_candidate(engine, keys, none);
        const PivotSample par_one = sample_uniform_candidate(engine, keys, one);
        const std::string where =
            "threads=" + std::to_string(threads) +
            " shards=" + std::to_string(engine.num_shards()) +
            " failures=" + std::to_string(with_failures);
        EXPECT_EQ(par_none.pivot, seq_none.pivot) << where;
        EXPECT_EQ(par_none.rounds, seq_none.rounds) << where;
        EXPECT_EQ(par_none.found, seq_none.found) << where;
        EXPECT_EQ(par_one.pivot, seq_one.pivot) << where;
        EXPECT_EQ(par_one.rounds, seq_one.rounds) << where;
        EXPECT_EQ(par_one.found, seq_one.found) << where;
        EXPECT_EQ(engine.metrics(), net.metrics()) << where;
      }
    }
  }
}

TEST(EngineCollectives, TokenSplitMatchesCore) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 311;
  constexpr std::uint64_t kMult = 8;
  std::vector<Key> inst(kN, Key::infinite());
  for (std::uint32_t v = 0; v < kN / 16; ++v) {
    inst[v * 3] = Key{static_cast<double>(v + 1), v, 0};
  }

  for (const bool with_failures : {false, true}) {
    const FailureModel fm =
        with_failures ? FailureModel::uniform(0.35) : FailureModel{};
    Network net(kN, kSeed, fm);
    const TokenSplitResult seq =
        token_split_distribute(net, inst, kMult, 7ull << 32);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, fm, config_for(threads));
      const TokenSplitResult par =
          token_split_distribute(engine, inst, kMult, 7ull << 32);
      EXPECT_EQ(par.instance, seq.instance)
          << "threads=" << threads << " failures=" << with_failures;
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.token_count, seq.token_count);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " failures=" << with_failures;
    }
  }
}

// ---- full pipelines -------------------------------------------------------

TEST(EnginePipelines, ApproxQuantileMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 401;
  const auto values = generate_values(Distribution::kUniformReal, kN, 23);

  for (const double phi : {0.5, 0.2}) {
    for (const bool truncate_last : {true, false}) {
      Network net(kN, kSeed);
      ApproxQuantileParams params;
      params.phi = phi;
      params.eps = 0.15;
      params.truncate_last = truncate_last;
      const ApproxQuantileResult seq = approx_quantile(net, values, params);

      for (unsigned threads : kThreadCounts) {
        // The interned lanes' cross-kernel session reuse must be
        // unobservable at the pipeline level too.
        Engine engine(kN, kSeed, FailureModel{},
                      EngineConfig{.threads = threads, .shard_size = 192});
        const ApproxQuantileResult par =
            approx_quantile(engine, values, params);
        EXPECT_EQ(par.outputs, seq.outputs)
            << "threads=" << threads << " phi=" << phi
            << " truncate_last=" << truncate_last;
        EXPECT_EQ(par.valid, seq.valid);
        EXPECT_EQ(par.phase1_iterations, seq.phase1_iterations);
        EXPECT_EQ(par.phase2_iterations, seq.phase2_iterations);
        EXPECT_EQ(par.rounds, seq.rounds);
        EXPECT_EQ(par.used_exact_fallback, seq.used_exact_fallback);
        EXPECT_EQ(engine.metrics(), net.metrics())
            << "threads=" << threads << " phi=" << phi
            << " truncate_last=" << truncate_last;
      }
    }
  }
}

// The exact-fallback branch (eps below eps_tournament_floor) must route
// through the engine-native exact pipeline and still match bit for bit.
TEST(EnginePipelines, ApproxExactFallbackMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 403;
  const auto values = generate_values(Distribution::kGaussian, kN, 29);

  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.05;  // below eps_tournament_floor(1024) ~ 0.2
  Network net(kN, kSeed);
  const ApproxQuantileResult seq = approx_quantile(net, values, params);
  ASSERT_TRUE(seq.used_exact_fallback);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const ApproxQuantileResult par = approx_quantile(engine, values, params);
    EXPECT_TRUE(par.used_exact_fallback);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

TEST(EnginePipelines, ExactQuantileMatchesCore) {
  constexpr std::uint32_t kN = 4096;
  constexpr std::uint64_t kSeed = 409;
  const auto values = generate_values(Distribution::kExponential, kN, 31);

  for (const double phi : {0.5, 0.9}) {
    Network net(kN, kSeed);
    ExactQuantileParams params;
    params.phi = phi;
    const ExactQuantileResult seq = exact_quantile(net, values, params);

    for (unsigned threads : kThreadCounts) {
      Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
      const ExactQuantileResult par = exact_quantile(engine, values, params);
      EXPECT_EQ(par.answer, seq.answer)
          << "threads=" << threads << " phi=" << phi;
      EXPECT_EQ(par.outputs, seq.outputs);
      EXPECT_EQ(par.valid, seq.valid);
      EXPECT_EQ(par.iterations, seq.iterations);
      EXPECT_EQ(par.endgame_phases, seq.endgame_phases);
      EXPECT_EQ(par.rounds, seq.rounds);
      EXPECT_EQ(par.round_breakdown, seq.round_breakdown);
      EXPECT_EQ(engine.metrics(), net.metrics())
          << "threads=" << threads << " phi=" << phi;
    }
    EXPECT_EQ(seq.round_breakdown.total(), seq.rounds) << "phi=" << phi;
  }
}

// The duplication strategy exercises the scatter-based token split inside
// the full pipeline.
TEST(EnginePipelines, ExactDuplicationRouteMatchesCore) {
  constexpr std::uint32_t kN = 1 << 14;
  constexpr std::uint64_t kSeed = 419;
  const auto values = generate_values(Distribution::kUniformReal, kN, 37);

  Network net(kN, kSeed);
  ExactQuantileParams params;
  params.phi = 0.37;
  params.strategy = ExactStrategy::kPreferDuplication;
  const ExactQuantileResult seq = exact_quantile(net, values, params);
  ASSERT_GE(seq.iterations, 2u);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const ExactQuantileResult par = exact_quantile(engine, values, params);
    EXPECT_EQ(par.answer, seq.answer) << "threads=" << threads;
    EXPECT_EQ(par.outputs, seq.outputs);
    EXPECT_EQ(par.iterations, seq.iterations);
    EXPECT_EQ(par.endgame_phases, seq.endgame_phases);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(par.round_breakdown, seq.round_breakdown);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
  EXPECT_EQ(seq.round_breakdown.total(), seq.rounds);
  EXPECT_GT(seq.round_breakdown.token_split, 0u);
}

TEST(EnginePipelines, OwnRankMatchesCore) {
  constexpr std::uint32_t kN = 1 << 14;
  constexpr std::uint64_t kSeed = 421;
  const auto values = generate_values(Distribution::kUniformReal, kN, 41);

  Network net(kN, kSeed);
  OwnRankParams params;
  params.eps = 0.45;
  const OwnRankResult seq = own_rank(net, values, params);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const OwnRankResult par = own_rank(engine, values, params);
    EXPECT_EQ(par.estimates, seq.estimates) << "threads=" << threads;
    EXPECT_EQ(par.valid, seq.valid);
    EXPECT_EQ(par.quantile_runs, seq.quantile_runs);
    EXPECT_EQ(par.rounds, seq.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Back-to-back pipelines on one Engine reuse the scatter arena, the pooled
// push-sum scratch, and the token store across calls; the reuse must be
// invisible — the second run must stay bit-identical to the second run of
// the same sequence on a sequential Network, at every thread count.
TEST(EnginePipelines, BackToBackRunsReuseArenaBitIdentically) {
  constexpr std::uint32_t kN = 2048;
  constexpr std::uint64_t kSeed = 431;
  const auto values = generate_values(Distribution::kUniformReal, kN, 43);

  ApproxQuantileParams ap;
  ap.phi = 0.3;
  ap.eps = 0.2;
  ExactQuantileParams ep;
  ep.phi = 0.62;
  ep.strategy = ExactStrategy::kPreferDuplication;

  Network net(kN, kSeed);
  const ApproxQuantileResult seq_a1 = approx_quantile(net, values, ap);
  const ExactQuantileResult seq_e1 = exact_quantile(net, values, ep);
  const ApproxQuantileResult seq_a2 = approx_quantile(net, values, ap);
  const ExactQuantileResult seq_e2 = exact_quantile(net, values, ep);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{}, config_for(threads));
    const std::uint64_t grows_before = engine.scatter_arena().grow_events();
    const ApproxQuantileResult a1 = approx_quantile(engine, values, ap);
    const ExactQuantileResult e1 = exact_quantile(engine, values, ep);
    const std::uint64_t grows_warm = engine.scatter_arena().grow_events();
    const ApproxQuantileResult a2 = approx_quantile(engine, values, ap);
    const ExactQuantileResult e2 = exact_quantile(engine, values, ep);

    EXPECT_EQ(a1.outputs, seq_a1.outputs) << "threads=" << threads;
    EXPECT_EQ(e1.outputs, seq_e1.outputs) << "threads=" << threads;
    EXPECT_EQ(a2.outputs, seq_a2.outputs) << "threads=" << threads;
    EXPECT_EQ(a2.rounds, seq_a2.rounds);
    EXPECT_EQ(e2.outputs, seq_e2.outputs) << "threads=" << threads;
    EXPECT_EQ(e2.answer, seq_e2.answer);
    EXPECT_EQ(e2.rounds, seq_e2.rounds);
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
    // The first pair of runs warms the arena; reuse means the second pair
    // grows mailboxes far less (the randomness differs between runs, so a
    // handful of boxes may still see a new high-water mark).
    EXPECT_GT(grows_warm, grows_before);
    EXPECT_LE(engine.scatter_arena().grow_events() - grows_warm,
              (grows_warm - grows_before) / 4)
        << "threads=" << threads;
  }
}

// A Scatter constructed while another holds the engine's arena must fall
// back to private mailboxes and still deliver correctly.
TEST(Scatter, NestedScatterFallsBackToPrivateStorage) {
  constexpr std::uint32_t kN = 512;
  Engine engine(kN, 9, FailureModel{},
                EngineConfig{.threads = 2, .shard_size = 64});
  Scatter<std::uint64_t> outer(engine);
  Scatter<std::uint64_t> inner(engine);  // arena busy: private boxes
  outer.begin_round();
  inner.begin_round();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          outer.send(v, (v + 1) % kN, v);
          inner.send(v, (v + 2) % kN, v + 1000);
        }
      });
  std::vector<std::uint64_t> from_outer(kN, 0), from_inner(kN, 0);
  outer.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
    from_outer[dest] = payload;
  });
  inner.deliver(engine, [&](std::uint32_t dest, std::uint64_t payload) {
    from_inner[dest] = payload;
  });
  for (std::uint32_t v = 0; v < kN; ++v) {
    EXPECT_EQ(from_outer[(v + 1) % kN], v);
    EXPECT_EQ(from_inner[(v + 2) % kN], v + 1000);
  }
}

// Gather block size is a pure performance knob: every rewritten kernel's
// blocked-gather transcript (states, outcome structs, Metrics) must match
// the sequential Network path at every block size — degenerate one-node
// blocks, blocks that straddle shard boundaries, and blocks larger than
// any shard — at 1, 2, and 8 threads.
TEST(EngineKernels, GatherBlockSweepMatchesCoreForEveryKernel) {
  constexpr std::uint32_t kN = 3001;  // not a multiple of the shard size
  constexpr std::uint64_t kSeed = 131;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 47));

  Network net_two(kN, kSeed);
  std::vector<Key> seq_two_state(keys.begin(), keys.end());
  const auto seq_two = two_tournament(net_two, seq_two_state, 0.3, 0.1);

  Network net_three(kN, kSeed);
  std::vector<Key> seq_three_state(keys.begin(), keys.end());
  const auto seq_three = three_tournament(net_three, seq_three_state, 0.1);

  for (unsigned threads : kThreadCounts) {
    for (const std::uint32_t block : {1u, 7u, 64u, 1u << 20}) {
      EngineConfig cfg{
          .threads = threads, .shard_size = 192, .gather_block = block};
      {
        Engine engine(kN, kSeed, FailureModel{}, cfg);
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par = two_tournament(engine, state, 0.3, 0.1);
        EXPECT_EQ(par.iterations, seq_two.iterations);
        EXPECT_EQ(state, seq_two_state)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(engine.metrics(), net_two.metrics())
            << "threads=" << threads << " block=" << block;
      }
      {
        Engine engine(kN, kSeed, FailureModel{}, cfg);
        std::vector<Key> state(keys.begin(), keys.end());
        const auto par = three_tournament(engine, state, 0.1);
        EXPECT_EQ(par.iterations, seq_three.iterations);
        EXPECT_EQ(par.outputs, seq_three.outputs)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(state, seq_three_state)
            << "threads=" << threads << " block=" << block;
        EXPECT_EQ(engine.metrics(), net_three.metrics())
            << "threads=" << threads << " block=" << block;
      }
    }
  }
}

// Oversized final sampling (K above the kernels' stack-buffer bound, 64)
// routes the per-shard pick/sample slices through the pooled wide lane and
// the K-median through nth_element, and must stay bit-identical.
TEST(EngineKernels, ThreeTournamentOversizedFinalSampleMatchesCore) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 151;
  constexpr std::uint32_t kBigK = 101;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 61));

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  const auto seq = three_tournament(net, seq_state, 0.1, kBigK);

  for (unsigned threads : {1u, 8u}) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = threads, .shard_size = 192});
    std::vector<Key> state(keys.begin(), keys.end());
    const auto par = three_tournament(engine, state, 0.1, kBigK);
    EXPECT_EQ(par.outputs, seq.outputs) << "threads=" << threads;
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Consecutive kernels on one engine share an interned-lane session; the
// reuse check is an exact compare pass, so mutating the state vector
// between calls — even to a key outside the interned table — must trigger
// a re-intern, never serve stale lanes.
TEST(EngineKernels, InternedSessionDetectsStateMutationBetweenCalls) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint64_t kSeed = 139;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 53));
  const Key foreign{-123.25, 99999, 7};  // not in the original key set

  Network net(kN, kSeed);
  std::vector<Key> seq_state(keys.begin(), keys.end());
  (void)two_tournament(net, seq_state, 0.4, 0.1);
  seq_state[17] = foreign;
  const auto seq_out = three_tournament(net, seq_state, 0.1);

  for (unsigned threads : kThreadCounts) {
    Engine engine(kN, kSeed, FailureModel{},
                  EngineConfig{.threads = threads, .shard_size = 192});
    std::vector<Key> state(keys.begin(), keys.end());
    (void)two_tournament(engine, state, 0.4, 0.1);
    state[17] = foreign;  // invalidate the session behind the engine's back
    const auto par_out = three_tournament(engine, state, 0.1);
    EXPECT_EQ(par_out.outputs, seq_out.outputs) << "threads=" << threads;
    EXPECT_EQ(state, seq_state) << "threads=" << threads;
    EXPECT_EQ(engine.metrics(), net.metrics()) << "threads=" << threads;
  }
}

// Thread count and shard size are pure performance knobs: sweeping both
// must not change a single bit of the result.
TEST(Engine, ShardSizeIsNotObservable) {
  constexpr std::uint32_t kN = 777;
  Engine coarse(kN, 5, FailureModel::uniform(0.1),
                EngineConfig{.threads = 2, .shard_size = 1u << 14});
  Engine fine(kN, 5, FailureModel::uniform(0.1),
              EngineConfig{.threads = 2, .shard_size = 33});
  ASSERT_EQ(coarse.num_shards(), 1u);
  for (int r = 0; r < 6; ++r) {
    EXPECT_EQ(coarse.pull_round(24), fine.pull_round(24));
  }
  EXPECT_EQ(coarse.metrics(), fine.metrics());

  // Push-sum folds in place on the one-shard engine and through the
  // scatter on the 33-node shards: same counts, same Metrics, both for a
  // short schedule (counts still differ per node) and the exact one.
  std::vector<bool> ind_a(kN), ind_b(kN), ind_c(kN);
  for (std::uint32_t v = 0; v < kN; ++v) {
    ind_a[v] = v % 4 == 0;
    ind_b[v] = v % 3 != 0;
    ind_c[v] = v < kN / 2;
  }
  for (const std::uint64_t rounds : {12u, 0u}) {
    const TripleCountResult a = gossip_count3(coarse, ind_a, ind_b, ind_c, rounds);
    const TripleCountResult b = gossip_count3(fine, ind_a, ind_b, ind_c, rounds);
    EXPECT_EQ(a.a, b.a) << "rounds=" << rounds;
    EXPECT_EQ(a.b, b.b) << "rounds=" << rounds;
    EXPECT_EQ(a.c, b.c) << "rounds=" << rounds;
    EXPECT_EQ(a.rounds, b.rounds) << "rounds=" << rounds;
    EXPECT_EQ(coarse.metrics(), fine.metrics()) << "rounds=" << rounds;
  }
}

// ---- the executor core (sim/executor.hpp) ---------------------------------
//
// Network and Engine take their fault sources, stream rebasing and
// per-round primitives from one ExecutorCore.  These cases pin that
// contract once for both executors, the Engine at 1, 2 and 8 threads.

template <typename Exec>
Exec make_executor(std::uint32_t n, std::uint64_t seed, unsigned threads,
                   FailureModel fm = FailureModel{}) {
  if constexpr (std::is_same_v<Exec, Engine>) {
    return Engine(n, seed, std::move(fm), config_for(threads));
  } else {
    return Network(n, seed, std::move(fm));
  }
}

template <typename Exec>
std::span<const unsigned> thread_counts() {
  static constexpr unsigned kSequential[] = {1};
  if constexpr (std::is_same_v<Exec, Engine>) return kThreadCounts;
  return kSequential;
}

template <typename Exec>
class ExecutorCoreTest : public ::testing::Test {};
using Executors = ::testing::Types<Network, Engine>;
TYPED_TEST_SUITE(ExecutorCoreTest, Executors);

// reset_stream(s) after a run with an installed adversary re-binds the
// adversary, so the next run equals one on a fresh executor seeded s with
// the same adversary: same outputs, and a Metrics delta equal to the fresh
// executor's totals.  Crash churn draws its victims from the bind seed, so
// a stale binding would crash different nodes.
TYPED_TEST(ExecutorCoreTest, ResetStreamMatchesFreshExecutor) {
  constexpr std::uint32_t kN = 1024;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 67));
  const MedianRuleParams params{.iterations = 10};
  const CrashChurnAdversary::Config churn{.crashes = 96,
                                          .first_round = 1,
                                          .crash_window = 16,
                                          .down_rounds = 4,
                                          .strategy_seed = 5};
  for (const unsigned threads : thread_counts<TypeParam>()) {
    CrashChurnAdversary warm_adversary(churn);
    TypeParam warm = make_executor<TypeParam>(kN, 3, threads);
    warm.set_adversary(&warm_adversary);
    (void)median_rule_keys(warm, keys, params);
    warm.reset_stream(11);
    EXPECT_EQ(warm.seed(), 11u);
    EXPECT_EQ(warm.round(), 0u);
    const Metrics before = warm.metrics();
    const MedianRuleResult rerun = median_rule_keys(warm, keys, params);

    CrashChurnAdversary cold_adversary(churn);
    TypeParam cold = make_executor<TypeParam>(kN, 11, threads);
    cold.set_adversary(&cold_adversary);
    const MedianRuleResult fresh = median_rule_keys(cold, keys, params);

    EXPECT_GT(cold.metrics().failed_operations, 0u);  // the adversary acted
    EXPECT_EQ(rerun.outputs, fresh.outputs) << "threads=" << threads;
    EXPECT_EQ(warm.metrics().since(before), cold.metrics())
        << "threads=" << threads;
    EXPECT_EQ(warm.round(), cold.round());
  }
}

// An oblivious adversary's drop model is absorbed into an executor that
// has no failure model — the run is then the one a model-constructed
// executor produces — and never overrides a model the executor already
// has.
TYPED_TEST(ExecutorCoreTest, ObliviousAbsorbedOnlyWithoutFailureModel) {
  constexpr std::uint32_t kN = 512;
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kN, 71));
  const MedianRuleParams params{.iterations = 6};
  ObliviousAdversary oblivious(FailureModel::uniform(0.3));
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam bare = make_executor<TypeParam>(kN, 7, threads);
    bare.set_adversary(&oblivious);
    EXPECT_FALSE(bare.failures().never_fails());
    EXPECT_EQ(bare.failures().max_probability(), 0.3);
    TypeParam modelled = make_executor<TypeParam>(
        kN, 7, threads, FailureModel::uniform(0.3));
    EXPECT_EQ(median_rule_keys(bare, keys, params).outputs,
              median_rule_keys(modelled, keys, params).outputs)
        << "threads=" << threads;
    EXPECT_EQ(bare.metrics(), modelled.metrics()) << "threads=" << threads;

    TypeParam own = make_executor<TypeParam>(kN, 7, threads,
                                             FailureModel::uniform(0.1));
    own.set_adversary(&oblivious);
    EXPECT_EQ(own.failures().max_probability(), 0.1);
  }
}

// faultless() is false while either fault source is installed: a failure
// model, or an adversary (which, unless oblivious, leaves the failure model
// untouched).  Uninstalling the adversary makes the executor faultless
// again.
TYPED_TEST(ExecutorCoreTest, FaultlessTracksBothFaultSources) {
  constexpr std::uint32_t kN = 64;
  EclipseAdversary eclipse(0, 8);
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam exec = make_executor<TypeParam>(kN, 1, threads);
    EXPECT_TRUE(exec.faultless());
    exec.set_adversary(&eclipse);
    EXPECT_FALSE(exec.faultless());
    EXPECT_TRUE(exec.failures().never_fails());
    EXPECT_EQ(exec.adversary(), &eclipse);
    exec.set_adversary(nullptr);
    EXPECT_TRUE(exec.faultless());

    TypeParam modelled = make_executor<TypeParam>(kN, 1, threads,
                                                  FailureModel::uniform(0.1));
    EXPECT_FALSE(modelled.faultless());
  }
}

// The per-node for-each the pipeline templates fold through: fn runs once
// per node, and the per-node Metrics fragments fold into the same totals on
// the Network's one accumulator as on the Engine's shard accumulators.
// kNodes is not a multiple of the 192-node test shard, so the last shard
// is short.
constexpr std::uint32_t kNodes = 1000;

TYPED_TEST(ExecutorCoreTest, ForEachNodeVisitsEveryNodeOnceAndFoldsFragments) {
  const auto bill = [](std::uint32_t v, Metrics& local) {
    local.record_messages(v % 4, 8 * (v % 5 + 1));
    if (v % 3 == 0) ++local.failed_operations;
  };
  Metrics want;
  for (std::uint32_t v = 0; v < kNodes; ++v) bill(v, want);
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam exec = make_executor<TypeParam>(kNodes, 1, threads);
    std::vector<int> visits(kNodes, 0);
    exec.for_each_node([&](std::uint32_t v, Metrics& local) {
      ++visits[v];
      bill(v, local);
    });
    EXPECT_EQ(visits, std::vector<int>(kNodes, 1)) << "threads=" << threads;
    EXPECT_EQ(exec.metrics(), want) << "threads=" << threads;
    EXPECT_EQ(exec.round(), 0u);
  }
}

// advance_rounds(k) is k begin_round() calls: same round counter, same
// Metrics, and therefore the same per-node streams afterwards.
TYPED_TEST(ExecutorCoreTest, AdvanceRoundsEqualsRepeatedBeginRound) {
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam bulk = make_executor<TypeParam>(kNodes, 3, threads);
    TypeParam stepped = make_executor<TypeParam>(kNodes, 3, threads);
    for (const std::uint64_t k : {0u, 1u, 5u, 17u}) {
      bulk.advance_rounds(k);
      for (std::uint64_t i = 0; i < k; ++i) (void)stepped.begin_round();
      EXPECT_EQ(bulk.round(), stepped.round());
      EXPECT_EQ(bulk.metrics(), stepped.metrics());
      EXPECT_EQ(bulk.node_stream(kNodes - 1)(),
                stepped.node_stream(kNodes - 1)());
    }
    EXPECT_EQ(bulk.round(), 23u);
    EXPECT_EQ(bulk.metrics().rounds, 23u);
  }
}

// scratch<T>() is one pooled object per (executor, type): the same object
// on every call, with its contents kept, and a distinct one per type.
TYPED_TEST(ExecutorCoreTest, ScratchIsOneObjectPerType) {
  struct Lanes {
    std::vector<int> values;
  };
  struct Counter {
    int count = 0;
  };
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam exec = make_executor<TypeParam>(kNodes, 1, threads);
    Lanes& lanes = exec.template scratch<Lanes>();
    lanes.values.assign(3, 7);
    EXPECT_EQ(&exec.template scratch<Lanes>(), &lanes);
    Counter& counter = exec.template scratch<Counter>();
    EXPECT_NE(static_cast<void*>(&counter), static_cast<void*>(&lanes));
    EXPECT_EQ(counter.count, 0);
    ++counter.count;
    EXPECT_EQ(&exec.template scratch<Lanes>(), &lanes);
    EXPECT_EQ(exec.template scratch<Lanes>().values, std::vector<int>(3, 7));
    EXPECT_EQ(exec.template scratch<Counter>().count, 1);
  }
}

// The multi-quantile lane state lives in the executor's scratch.  A wider
// run must leave nothing behind for a narrower one: 4 targets, then
// reset_stream, then 2 targets on one executor equal the same two runs on
// fresh executors, in outputs and Metrics.
TYPED_TEST(ExecutorCoreTest, PooledLaneStateDoesNotLeakBetweenRuns) {
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, kNodes, 73));
  MultiQuantileParams wide;
  wide.phis = {0.1, 0.5, 0.9, 0.99};
  wide.eps = 0.25;
  MultiQuantileParams narrow;
  narrow.phis = {0.3, 0.7};
  narrow.eps = 0.25;
  for (const unsigned threads : thread_counts<TypeParam>()) {
    TypeParam warm = make_executor<TypeParam>(kNodes, 5, threads);
    const MultiQuantileResult warm_wide = multi_quantile_keys(warm, keys, wide);
    warm.reset_stream(9);
    const Metrics before = warm.metrics();
    const MultiQuantileResult warm_narrow =
        multi_quantile_keys(warm, keys, narrow);

    TypeParam cold_a = make_executor<TypeParam>(kNodes, 5, threads);
    const MultiQuantileResult cold_wide =
        multi_quantile_keys(cold_a, keys, wide);
    TypeParam cold_b = make_executor<TypeParam>(kNodes, 9, threads);
    const MultiQuantileResult cold_narrow =
        multi_quantile_keys(cold_b, keys, narrow);

    EXPECT_TRUE(warm_wide.shared_schedule);
    EXPECT_TRUE(warm_narrow.shared_schedule);
    for (std::size_t i = 0; i < wide.phis.size(); ++i) {
      EXPECT_EQ(warm_wide.per_phi[i].outputs, cold_wide.per_phi[i].outputs)
          << "threads=" << threads << " target=" << i;
    }
    for (std::size_t i = 0; i < narrow.phis.size(); ++i) {
      EXPECT_EQ(warm_narrow.per_phi[i].outputs,
                cold_narrow.per_phi[i].outputs)
          << "threads=" << threads << " target=" << i;
    }
    EXPECT_EQ(warm_wide.metrics, cold_wide.metrics) << "threads=" << threads;
    EXPECT_EQ(warm_narrow.metrics, cold_narrow.metrics)
        << "threads=" << threads;
    EXPECT_EQ(warm.metrics().since(before), cold_b.metrics())
        << "threads=" << threads;
  }
}

}  // namespace
}  // namespace gq
