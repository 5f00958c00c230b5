#include "sim/network.hpp"

namespace gq {

std::vector<std::uint32_t> Network::pull_round(std::uint64_t bits_per_message) {
  begin_round();
  const std::uint32_t n = size();
  std::vector<std::uint32_t> peers(n, kNoPeer);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (node_fails(v)) {
      record_failed_operation();
      continue;
    }
    SplitMix64 stream = node_stream(v);
    peers[v] = sample_peer(v, stream);
    record_message(bits_per_message);
  }
  return peers;
}

}  // namespace gq
