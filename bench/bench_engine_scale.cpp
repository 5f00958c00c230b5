// E-ENG — engine scale: sharded parallel execution vs the sequential path.
//
// Demonstrates the engine subsystem at the paper's analysed scale
// (n = 10^6–10^7 nodes) with thread-count sweeps.  Two workloads:
//
//   1. raw pull rounds (the simulator substrate), and
//   2. the [DGM+11] median rule (median_rule_keys) — the sequential
//      Network baseline vs the engine's batched kernel (no virtual
//      dispatch in the hot loop).
//
// Every engine configuration computes bit-identical results to the
// sequential path (pinned by tests/test_engine.cpp), so each table is a
// pure throughput comparison.  GQ_BENCH_FAST=1 skips the 10^7 sweep.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "baselines/median_rule.hpp"
#include "bench_common.hpp"
#include "engine/engine.hpp"
#include "engine/kernels.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

bench::JsonArtifact& artifact() {
  static bench::JsonArtifact a("bench_engine_scale");
  return a;
}

void pull_round_table(std::uint32_t n, std::uint64_t rounds) {
  bench::Table table(
      {"executor", "threads", "rounds", "Mnode-rounds/s", "speedup"});
  Network net(n, 99);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t r = 0; r < rounds; ++r) (void)net.pull_round(32);
  const double seq_secs = bench::seconds_since(t0);
  table.add_row({"Network (sequential)", "1", bench::fmt_u(rounds),
                 bench::fmt(bench::mnrs(n, rounds, seq_secs)), "1.00"});
  artifact().add("pull_round", "network", n, 1, rounds, seq_secs, seq_secs);

  std::vector<std::uint32_t> peers(n);
  for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
    Engine engine(n, 99, FailureModel{}, EngineConfig{.threads = threads});
    const auto t1 = std::chrono::steady_clock::now();
    for (std::uint64_t r = 0; r < rounds; ++r) engine.pull_round(32, peers);
    const double secs = bench::seconds_since(t1);
    table.add_row({"Engine pull_round", std::to_string(threads),
                   bench::fmt_u(rounds), bench::fmt(bench::mnrs(n, rounds, secs)),
                   bench::fmt(seq_secs / secs)});
    artifact().add("pull_round", "engine", n, threads, rounds, secs, seq_secs);
  }
  table.print();
}

void median_rule_table(std::uint32_t n, std::uint64_t iterations) {
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, n, 71));
  const MedianRuleParams params{.iterations = iterations};
  const std::uint64_t rounds = 2 * iterations;

  bench::Table table(
      {"executor", "threads", "rounds", "Mnode-rounds/s", "speedup"});

  double seq_secs;
  {
    Network net(n, 42);
    const auto t0 = std::chrono::steady_clock::now();
    const MedianRuleResult result = median_rule_keys(net, keys, params);
    seq_secs = bench::seconds_since(t0);  // before freeing the outputs
    table.add_row({"Network (sequential)", "1", bench::fmt_u(rounds),
                   bench::fmt(bench::mnrs(n, rounds, seq_secs)), "1.00"});
    artifact().add("median_dynamics", "network", n, 1, rounds, seq_secs,
                   seq_secs);
  }

  for (const std::uint32_t block : bench::block_sweep()) {
    const std::string pipeline =
        "median_dynamics_kernel" + bench::block_suffix(block);
    for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
      Engine engine(n, 42, FailureModel{},
                    EngineConfig{.threads = threads, .gather_block = block});
      const auto t0 = std::chrono::steady_clock::now();
      const MedianRuleResult result = median_rule_keys(engine, keys, params);
      const double secs = bench::seconds_since(t0);
      table.add_row({"engine batched kernel", std::to_string(threads),
                     bench::fmt_u(rounds),
                     bench::fmt(bench::mnrs(n, rounds, secs)),
                     bench::fmt(seq_secs / secs)});
      artifact().add(pipeline.c_str(), "engine", n, threads, rounds, secs,
                     seq_secs);
    }
  }
  table.print();
}

void kernel_only_table(std::uint32_t n, std::uint64_t iterations) {
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, n, 73));
  const MedianRuleParams params{.iterations = iterations};
  const std::uint64_t rounds = 2 * iterations;

  // Normalised against the sweep's first row (historically the t=1 run;
  // GQ_BENCH_THREADS/GQ_BENCH_BLOCK can reorder what comes first).
  bench::Table table(
      {"executor", "threads", "block", "rounds", "Mnode-rounds/s",
       "speedup vs first row"});
  double base_secs = 0.0;
  for (const std::uint32_t block : bench::block_sweep()) {
    const std::string pipeline =
        "median_dynamics_kernel" + bench::block_suffix(block);
    for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
      Engine engine(n, 44, FailureModel{},
                    EngineConfig{.threads = threads, .gather_block = block});
      const auto t0 = std::chrono::steady_clock::now();
      const MedianRuleResult result = median_rule_keys(engine, keys, params);
      const double secs = bench::seconds_since(t0);
      if (base_secs == 0.0) base_secs = secs;
      table.add_row({"engine batched kernel", std::to_string(threads),
                     block == 0 ? "auto" : std::to_string(block),
                     bench::fmt_u(rounds),
                     bench::fmt(bench::mnrs(n, rounds, secs)),
                     bench::fmt(base_secs / secs)});
      // No sequential twin in this sweep (the table normalises against the
      // first engine run); per the PerfRecord contract seq_seconds is 0.
      artifact().add(pipeline.c_str(), "engine", n, threads, rounds, secs,
                     0.0);
    }
  }
  table.print();
}

void run() {
  bench::print_header(
      "E-ENG", "sharded parallel engine scale",
      "engineering: rounds are embarrassingly parallel because node v's "
      "round-r randomness is a pure function of (seed, r, v); the engine "
      "exploits this for bit-identical parallel execution");
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  constexpr std::uint32_t kMillion = 1000000;
  const std::uint32_t n = bench::smoke_capped(kMillion);
  std::printf("## raw pull rounds, n = %u\n\n", n);
  pull_round_table(n, 6);

  std::printf("\n## median rule, n = %u (sequential vs batched kernel)\n\n",
              n);
  median_rule_table(n, 3);

  if (!bench::fast_mode() && !bench::smoke_mode()) {
    std::printf("\n## batched kernel, n = 10^7\n\n");
    kernel_only_table(10 * kMillion, 2);
  }
}

}  // namespace
}  // namespace gq

int main() {
  gq::run();
  return gq::bench::exit_status();
}
