// E1 — Theorem 1.1: exact phi-quantile in O(log n) rounds, a quadratic
// improvement over the KDG03 O(log^2 n) selection baseline.
//
// The table reports rounds for both algorithms across n; the shape to look
// for is ours/log2(n) flattening while KDG03/log2(n) keeps growing
// (its phase count is itself Theta(log n)).  The last six columns split
// our mean rounds by substrate (ExactQuantileResult::round_breakdown):
// bracket runs, extreme spreads and broadcasts, triple counts, token
// split, selection endgame, and verification.
#include <array>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "baselines/kdg03_quantile.hpp"
#include "bench_common.hpp"
#include "core/exact_quantile.hpp"
#include "util/stats.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

void run() {
  bench::print_header(
      "E1", "exact quantile rounds vs n (ours vs KDG03)",
      "Theorem 1.1: O(log n) rounds vs the KDG03 O(log^2 n) baseline");

  std::vector<std::uint32_t> sizes = {1u << 8,  1u << 10, 1u << 12,
                                      1u << 14, 1u << 16, 1u << 18};
  if (bench::fast_mode()) {
    sizes.pop_back();
    sizes.pop_back();
  }
  const std::size_t trials = bench::scaled_trials(3);

  bench::Table table({"n", "phi", "ours rounds", "ours/log2n",
                      "kdg03 rounds", "kdg03/log2n", "speedup",
                      "ours iters", "kdg03 phases", "brackets", "spreads",
                      "counts", "tokens", "endgame", "verify"});
  for (const std::uint32_t n : sizes) {
    for (const double phi : {0.1, 0.5, 0.9}) {
      RunningStats ours_rounds, base_rounds, ours_iters, base_phases;
      std::array<RunningStats, 6> split;
      for (std::size_t t = 0; t < trials; ++t) {
        const auto values = generate_values(
            Distribution::kUniformReal, n, 900 + t);

        Network ours_net(n, 17 + t);
        ExactQuantileParams ep;
        ep.phi = phi;
        const auto ours = exact_quantile(ours_net, values, ep);
        ours_rounds.add(static_cast<double>(ours.rounds));
        ours_iters.add(static_cast<double>(ours.iterations +
                                           ours.endgame_phases));
        const ExactRoundBreakdown& b = ours.round_breakdown;
        const std::array<std::uint64_t, 6> parts = {
            b.brackets,    b.spreads, b.counts,
            b.token_split, b.endgame, b.verification};
        for (std::size_t i = 0; i < parts.size(); ++i) {
          split[i].add(static_cast<double>(parts[i]));
        }

        Network base_net(n, 39 + t);
        Kdg03Params kp;
        kp.phi = phi;
        const auto base = kdg03_exact_quantile(base_net, values, kp);
        base_rounds.add(static_cast<double>(base.rounds));
        base_phases.add(static_cast<double>(base.phases));
      }
      const double log2n = std::log2(static_cast<double>(n));
      std::vector<std::string> row = {
          bench::fmt_u(n),
          bench::fmt(phi, 1),
          bench::fmt(ours_rounds.mean(), 0),
          bench::fmt(ours_rounds.mean() / log2n, 1),
          bench::fmt(base_rounds.mean(), 0),
          bench::fmt(base_rounds.mean() / log2n, 1),
          bench::fmt(base_rounds.mean() / ours_rounds.mean(), 2),
          bench::fmt(ours_iters.mean(), 1),
          bench::fmt(base_phases.mean(), 1)};
      for (const RunningStats& part : split) {
        row.push_back(bench::fmt(part.mean(), 0));
      }
      table.add_row(std::move(row));
    }
  }
  table.print();
  std::printf(
      "Shape check: 'kdg03/log2n' grows with n (its selection needs "
      "Theta(log n) counting phases),\nwhile 'ours/log2n' stays flat or "
      "falls once token duplication engages (n >= 2^14).\n\n");
}

}  // namespace
}  // namespace gq

int main() {
  gq::run();
  return gq::bench::exit_status();
}
