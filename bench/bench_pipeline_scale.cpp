// E-PIPE — full quantile pipelines on the engine vs the sequential path.
//
// PR 1 parallelised the substrate (pull rounds, median dynamics,
// tournaments); this bench measures the headline algorithms end-to-end:
// approx_quantile (2-TOURNAMENT + 3-TOURNAMENT) and exact_quantile
// (Algorithm 3, including scatter-based push-sum counting and the Step-7
// token split) at n = 10^5 … 10^7 with thread sweeps.
//
// Every engine configuration computes bit-identical results, round counts,
// and Metrics to the sequential path (pinned by tests/test_engine.cpp), so
// the tables are pure throughput comparisons.  Each row runs one untimed
// op, then reports the fastest of kTimedOps ops on the same executor, each
// after reset_stream(row seed), so every timed op replays one transcript
// on warm pooled scratch: one cold op per row cannot resolve a 10% change
// on a shared machine.  GQ_BENCH_FAST=1 skips the 10^7 sweep;
// GQ_BENCH_SMOKE=1 shrinks everything to CI-smoke scale.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/approx_quantile.hpp"
#include "core/exact_quantile.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

constexpr int kTimedOps = 5;

bench::JsonArtifact& artifact() {
  static bench::JsonArtifact a("bench_pipeline_scale");
  return a;
}

// Seconds of the fastest of kTimedOps runs of `op` on `exec`, after one
// untimed run; `op` returns the run's result, which lands in `last`.
template <typename Exec, typename Op, typename Result>
double fastest_op(Exec& exec, std::uint64_t seed, const Op& op,
                  Result& last) {
  last = op();
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kTimedOps; ++i) {
    exec.reset_stream(seed);
    const auto t0 = std::chrono::steady_clock::now();
    last = op();
    best = std::min(best, bench::seconds_since(t0));
  }
  return best;
}

void approx_table(std::uint32_t n) {
  const auto values = generate_values(Distribution::kUniformReal, n, 171);
  ApproxQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  bench::Table table(
      {"executor", "threads", "block", "rounds", "Mnode-rounds/s", "speedup"});
  ApproxQuantileResult r;
  double seq_secs;
  {
    Network net(n, 1234);
    seq_secs = fastest_op(
        net, 1234, [&] { return approx_quantile(net, values, params); }, r);
    table.add_row({"Network (sequential)", "1", "-", bench::fmt_u(r.rounds),
                   bench::fmt(bench::mnrs(n, r.rounds, seq_secs)), "1.00"});
    artifact().add("approx_quantile", "network", n, 1, r.rounds, seq_secs,
                   seq_secs);
  }
  for (const std::uint32_t block : bench::block_sweep()) {
    const std::string pipeline = "approx_quantile" + bench::block_suffix(block);
    for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
      Engine engine(n, 1234, FailureModel{},
                    EngineConfig{.threads = threads, .gather_block = block});
      const double secs = fastest_op(
          engine, 1234,
          [&] { return approx_quantile(engine, values, params); }, r);
      table.add_row({"Engine pipeline", std::to_string(threads),
                     block == 0 ? "auto" : std::to_string(block),
                     bench::fmt_u(r.rounds),
                     bench::fmt(bench::mnrs(n, r.rounds, secs)),
                     bench::fmt(seq_secs / secs)});
      artifact().add(pipeline.c_str(), "engine", n, threads, r.rounds, secs,
                     seq_secs);
    }
  }
  table.print();
}

void exact_table(std::uint32_t n) {
  const auto values = generate_values(Distribution::kUniformReal, n, 173);
  ExactQuantileParams params;
  params.phi = 0.5;

  bench::Table table(
      {"executor", "threads", "block", "rounds", "Mnode-rounds/s", "speedup"});
  ExactQuantileResult r;
  double seq_secs;
  {
    Network net(n, 4321);
    seq_secs = fastest_op(
        net, 4321, [&] { return exact_quantile(net, values, params); }, r);
    table.add_row({"Network (sequential)", "1", "-", bench::fmt_u(r.rounds),
                   bench::fmt(bench::mnrs(n, r.rounds, seq_secs)), "1.00"});
    artifact().add("exact_quantile", "network", n, 1, r.rounds, seq_secs,
                   seq_secs);
  }
  for (const std::uint32_t block : bench::block_sweep()) {
    const std::string pipeline = "exact_quantile" + bench::block_suffix(block);
    for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
      Engine engine(n, 4321, FailureModel{},
                    EngineConfig{.threads = threads, .gather_block = block});
      const double secs = fastest_op(
          engine, 4321,
          [&] { return exact_quantile(engine, values, params); }, r);
      table.add_row({"Engine pipeline", std::to_string(threads),
                     block == 0 ? "auto" : std::to_string(block),
                     bench::fmt_u(r.rounds),
                     bench::fmt(bench::mnrs(n, r.rounds, secs)),
                     bench::fmt(seq_secs / secs)});
      artifact().add(pipeline.c_str(), "engine", n, threads, r.rounds, secs,
                     seq_secs);
    }
  }
  table.print();
}

void run() {
  bench::print_header(
      "E-PIPE", "engine-native quantile pipelines at scale",
      "engineering: approx_quantile and exact_quantile run end-to-end on "
      "the sharded engine (scatter-based push patterns included) with "
      "bit-identical results, turning thread count into pure speedup");
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  const std::uint32_t k100k = bench::smoke_capped(100000);
  const std::uint32_t kMillion = bench::smoke_capped(1000000);

  std::printf("## approx_quantile (phi=0.5, eps=0.1), n = %u\n\n", k100k);
  approx_table(k100k);
  if (!bench::smoke_mode()) {
    std::printf("\n## approx_quantile (phi=0.5, eps=0.1), n = %u\n\n",
                kMillion);
    approx_table(kMillion);
    if (!bench::fast_mode()) {
      std::printf("\n## approx_quantile (phi=0.5, eps=0.1), n = 10^7\n\n");
      approx_table(10000000);
    }
  }

  std::printf("\n## exact_quantile (phi=0.5), n = %u\n\n", k100k);
  exact_table(k100k);
  if (!bench::smoke_mode()) {
    std::printf("\n## exact_quantile (phi=0.5), n = %u\n\n", kMillion);
    exact_table(kMillion);
  }
}

}  // namespace
}  // namespace gq

int main() {
  gq::run();
  return gq::bench::exit_status();
}
