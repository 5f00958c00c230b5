// Configuration for the sharded parallel execution engine.
#pragma once

#include <cstdint>

namespace gq {

struct EngineConfig {
  // Worker threads for round execution.  0 means "use the hardware
  // concurrency"; 1 runs everything inline on the calling thread (no worker
  // threads are spawned).  The engine's results are bit-identical at every
  // thread count — threads only change wall-clock time.
  unsigned threads = 0;

  // Nodes per shard.  Each shard is one unit of parallel work with its own
  // Metrics accumulator; shard boundaries are fixed by (n, shard_size)
  // alone, never by the thread count, so the per-shard merge order — and
  // with it every metric — is deterministic.  Smaller shards balance load
  // better; larger shards amortise dispatch overhead.
  std::uint32_t shard_size = 1u << 14;

  // Nodes per gather block in the batched kernels' hot loops.  A kernel
  // round first materialises a block's peer indices into a scratch lane,
  // issues software prefetches for the peer state lines, then runs the
  // compute pass against warm lines.  Purely a performance knob: draw
  // order, results, and Metrics are identical at every block size (pinned
  // by tests/test_engine.cpp).  0 picks the tuned default.
  std::uint32_t gather_block = 0;
};

}  // namespace gq
