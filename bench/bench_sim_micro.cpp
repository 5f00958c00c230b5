// M1 — microbenchmarks of the simulator substrate (google-benchmark).
//
// These quantify simulation throughput, not protocol behaviour: node-rounds
// per second for the core primitives, which bounds the network sizes the
// experiment harness can sweep.
#include <benchmark/benchmark.h>

#include <array>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
#include "agg/spread.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"
#include "sim/network.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

void BM_RngThroughput(benchmark::State& state) {
  Rng rng(42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rand_index(rng, 1000000));
  }
}
BENCHMARK(BM_RngThroughput);

void BM_NodeStreamDraw(benchmark::State& state) {
  Network net(1024, 7);
  net.begin_round();
  std::uint32_t v = 0;
  for (auto _ : state) {
    SplitMix64 s = net.node_stream(v);
    benchmark::DoNotOptimize(net.sample_peer(v, s));
    v = (v + 1) & 1023;
  }
}
BENCHMARK(BM_NodeStreamDraw);

void BM_PullRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  Network net(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(net.pull_round(32));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PullRound)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_PushSumRound(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto xs = generate_values(Distribution::kUniformReal, n, 1);
  std::vector<std::array<double, 1>> lanes(n);
  for (std::uint32_t v = 0; v < n; ++v) lanes[v][0] = xs[v];
  for (auto _ : state) {
    Network net(n, 5);
    benchmark::DoNotOptimize(push_sum_average_multi<1>(
        net, std::span<const std::array<double, 1>>(lanes), 1));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PushSumRound)->Arg(1 << 10)->Arg(1 << 14);

void BM_TwoTournamentIteration(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, n, 2));
  for (auto _ : state) {
    Network net(n, 9);
    std::vector<Key> s(keys.begin(), keys.end());
    // eps chosen so the schedule has exactly a few iterations.
    benchmark::DoNotOptimize(two_tournament(net, s, 0.25, 0.2));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TwoTournamentIteration)->Arg(1 << 10)->Arg(1 << 14);

void BM_SpreadMax(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const auto keys =
      make_keys(generate_values(Distribution::kUniformReal, n, 3));
  for (auto _ : state) {
    Network net(n, 11);
    benchmark::DoNotOptimize(spread_max(net, keys));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SpreadMax)->Arg(1 << 10)->Arg(1 << 14);

}  // namespace
}  // namespace gq
