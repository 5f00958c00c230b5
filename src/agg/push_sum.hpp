// PUSH-SUM (Kempe, Dobra, Gehrke; FOCS'03): gossip-based computation of sums
// and averages.
//
// Every node v maintains a pair (s_v, w_v), initially (x_v, 1).  In each
// round every node halves its pair, keeps one half and pushes the other half
// to a uniformly random other node; incoming pairs are added component-wise.
// The estimate s_v / w_v converges to the average of the x's; the relative
// error drops below eps w.h.p. after O(log n + log 1/eps) rounds.
//
// Mass conservation makes the protocol robust to the Section-5 failure
// model for free: a node whose operation fails simply keeps its whole pair
// for the round, which delays diffusion by a constant factor but never
// loses mass.  Failure handling is therefore inherited from the Network's
// FailureModel with no protocol change.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "sim/network.hpp"
#include "telemetry/telemetry.hpp"

namespace gq {

// Number of rounds after which every node's estimate has relative error
// below roughly n^-3 w.h.p. in the failure-free model; scaled by 1/(1-mu)
// under failures.  The one push-sum schedule: the default of
// push_sum_average_multi below and of the counting entry points.  The
// (n, failures) overload is the pure round-schedule logic shared with the
// parallel engine's batched counting kernels — both executors must derive
// identical schedules or their Metrics drift apart.
[[nodiscard]] std::uint64_t push_sum_rounds_for_exact(
    std::uint32_t n, const FailureModel& failures);
[[nodiscard]] std::uint64_t push_sum_rounds_for_exact(const Network& net);

// A push-sum message carries the value masses plus one weight word; the
// D-dimensional protocol sends D+1 reals.  Shared with the engine kernels.
[[nodiscard]] constexpr std::uint64_t push_sum_message_bits(
    std::size_t dims) noexcept {
  return 64 * (dims + 1);
}

// D-dimensional push-sum: averages D per-node vectors in a single protocol
// run with a shared weight coordinate (messages carry D+1 reals, still O(1)
// words).  Used by the exact algorithm to obtain several exact counts for
// the price of one diffusion.
template <std::size_t D>
struct MultiPushSumResult {
  std::vector<std::array<double, D>> estimates;  // per-node averages
  std::uint64_t rounds = 0;
};

template <std::size_t D>
MultiPushSumResult<D> push_sum_average_multi(
    Network& net, std::span<const std::array<double, D>> x,
    std::uint64_t rounds = 0) {
  GQ_SPAN("agg/push_sum");
  const std::uint32_t n = net.size();
  GQ_REQUIRE(x.size() == n, "one input vector per node required");
  if (rounds == 0) rounds = push_sum_rounds_for_exact(net);
  const std::uint64_t bits = push_sum_message_bits(D);

  std::vector<std::array<double, D>> s(x.begin(), x.end());
  std::vector<double> w(n, 1.0);
  std::vector<std::array<double, D>> s_in(n);
  std::vector<double> w_in(n);

  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::vector<std::uint32_t> dests = net.push_round(bits);
    for (auto& a : s_in) a.fill(0.0);
    std::fill(w_in.begin(), w_in.end(), 0.0);
    for (std::uint32_t v = 0; v < n; ++v) {
      const std::uint32_t d = dests[v];
      if (d == Network::kNoPeer) continue;
      for (std::size_t j = 0; j < D; ++j) {
        s[v][j] *= 0.5;
        s_in[d][j] += s[v][j];
      }
      w[v] *= 0.5;
      w_in[d] += w[v];
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      for (std::size_t j = 0; j < D; ++j) s[v][j] += s_in[v][j];
      w[v] += w_in[v];
    }
  }

  MultiPushSumResult<D> out;
  out.rounds = rounds;
  out.estimates.resize(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t j = 0; j < D; ++j) out.estimates[v][j] = s[v][j] / w[v];
  }
  return out;
}

}  // namespace gq
