// Corollary 1.5: every node estimates the quantile of ITS OWN value up to
// an additive eps.
//
// The library runs approximate quantile computations on the grid
// phi_j = j * (eps/2) with slack eps/4; node v then counts how many of its
// own outputs lie below its value.  Each output's true quantile is within
// eps/4 + (ties) of its grid point, so the count pins v's quantile to an
// eps-window.  Total cost: (2/eps - 1) * O(log log n + log 1/eps) rounds.
//
// One template serves both executors: the runs call approx_quantile_keys
// by argument-dependent lookup (core/approx_quantile.hpp for Network,
// engine/pipelines.hpp for Engine), and the estimate loop is the
// executor's for_each_node.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "core/approx_quantile.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "sim/network.hpp"
#include "util/require.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

[[nodiscard]] OwnRankResult own_rank(Network& net,
                                     std::span<const double> values,
                                     const OwnRankParams& params);

namespace own_rank_detail {

template <typename Exec>
OwnRankResult own_rank_impl(Exec& exec, std::span<const double> values,
                            const OwnRankParams& params) {
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(values.size() == n, "one value per node required");
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");

  const std::vector<Key> keys = make_keys(values);
  const double grid = params.eps / 2.0;
  const auto runs = static_cast<std::size_t>(std::ceil(1.0 / grid)) - 1;

  const Metrics before = exec.metrics();
  OwnRankResult out;
  out.quantile_runs = runs;
  out.valid.assign(n, true);
  std::vector<std::size_t> below(n, 0);

  ApproxQuantileParams ap;
  ap.eps = params.eps / 4.0;
  ap.final_sample_size = params.final_sample_size;
  for (std::size_t j = 1; j <= runs; ++j) {
    ap.phi = std::min(1.0, grid * static_cast<double>(j));
    const ApproxQuantileResult r = approx_quantile_keys(exec, keys, ap);
    for (std::uint32_t v = 0; v < n; ++v) {
      if (!r.valid[v]) {
        out.valid[v] = false;
        continue;
      }
      if (r.outputs[v] < keys[v]) ++below[v];
    }
  }

  out.estimates.resize(n);
  exec.for_each_node([&](std::uint32_t v, Metrics&) {
    out.estimates[v] =
        std::min(1.0, (static_cast<double>(below[v]) + 0.5) * grid);
  });
  out.rounds = exec.metrics().rounds - before.rounds;
  return out;
}

}  // namespace own_rank_detail
}  // namespace gq
