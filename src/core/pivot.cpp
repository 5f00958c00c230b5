#include "core/pivot.hpp"

#include <utility>

#include "agg/spread.hpp"
#include "util/require.hpp"

namespace gq {

using pivot_detail::PriorityKey;
using pivot_detail::PriorityLess;

PivotSample sample_uniform_candidate(Network& net, std::span<const Key> inst,
                                     const std::vector<bool>& candidate) {
  const std::uint32_t n = net.size();
  GQ_REQUIRE(inst.size() == n && candidate.size() == n,
             "one key and one candidate flag per node required");

  // One local round in which every candidate draws its priority; failed
  // nodes sit this pivot out, which keeps the choice uniform over the
  // participating candidates.
  net.begin_round();
  std::vector<PriorityKey> pairs(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (!candidate[v]) continue;
    if (net.node_fails(v)) {
      net.record_failed_operation();
      continue;
    }
    SplitMix64 stream = net.node_stream(v);
    pairs[v] = PriorityKey{stream() | 1ull, inst[v]};
  }

  const GenericSpreadResult<PriorityKey> spread =
      spread_best(net, std::move(pairs), KeepBetter<PriorityLess>{},
                  pivot_detail::priority_key_bits(n));

  PivotSample out;
  out.rounds = 1 + spread.rounds;
  const PriorityKey& winner = spread.values.front();
  if (winner.priority != 0 && spread.converged) {
    out.found = true;
    out.pivot = winner.key;
  }
  return out;
}

}  // namespace gq
