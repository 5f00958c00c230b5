#include "engine/engine.hpp"

namespace gq {

Engine::Engine(std::uint32_t n, std::uint64_t seed, FailureModel failures,
               EngineConfig config)
    : ExecutorCore(n, seed, std::move(failures)),
      config_(config),
      num_shards_((config.shard_size == 0
                       ? 1
                       : (static_cast<std::size_t>(n) + config.shard_size - 1) /
                             config.shard_size)),
      pool_(config.threads) {
  GQ_REQUIRE(config.shard_size > 0, "shard size must be positive");
  shard_scratch_.resize(num_shards_);
}

void Engine::pull_round(std::uint64_t bits_per_message,
                        std::span<std::uint32_t> peers_out) {
  GQ_REQUIRE(peers_out.size() == size(),
             "peer output array must have one slot per node");
  GQ_SPAN("engine/pull_round");
  begin_round();
  with_fault_coin([&](auto coin) {
    parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          std::uint64_t sent = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (coin && node_fails(v)) {
              ++local.failed_operations;
              peers_out[v] = kNoPeer;
              continue;
            }
            SplitMix64 stream = node_stream(v);
            peers_out[v] = sample_peer(v, stream);
            ++sent;
          }
          local.record_messages(sent, bits_per_message);
        });
  });
}

std::vector<std::uint32_t> Engine::pull_round(std::uint64_t bits_per_message) {
  std::vector<std::uint32_t> peers(size(), kNoPeer);
  pull_round(bits_per_message, peers);
  return peers;
}

}  // namespace gq
