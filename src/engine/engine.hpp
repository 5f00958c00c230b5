// The sharded parallel gossip execution engine.
//
// Engine executes the synchronous-round model of sim/executor.hpp, like the
// sequential Network, but shards each round over a fixed thread pool.  It
// exists to push simulations to the paper's analysed scale (n in the
// millions) while keeping every experiment reproducible.
//
// ## Determinism contract
//
// For the same (n, seed, FailureModel) and the same sequence of calls, the
// engine produces **bit-identical transcripts, node states, and Metrics to
// the sequential Network path, at every thread count and shard size**.
// This rests on three properties, each load-bearing:
//
//   1. Counter-based randomness.  Node v's draws in round r are a pure
//      function of (seed, r, v) — see sim/streams.hpp.  Both executors draw
//      through the one ExecutorCore (sim/executor.hpp), so no draw depends
//      on the order in which other nodes are processed, and threads cannot
//      perturb transcripts.
//   2. Disjoint output slots.  Every parallel kernel writes only to node-
//      indexed slots of its own shard (peer arrays, per-node states); no
//      shard writes state another shard reads within the same parallel
//      section.  Reads of shared round-start snapshots are immutable.
//   3. Deterministic metric aggregation.  Each shard accumulates into its
//      own Metrics; after the barrier the shard accumulators are merged in
//      shard order.  Shard boundaries depend only on (n, shard_size) —
//      never on the thread count — and every Metrics field is a sum or max,
//      so the merged totals are exactly the sequential totals.
//
// Anything built on top (the batched kernels in kernels.hpp, the scatter
// primitive, the pipelines) inherits the contract by only using
// parallel_shards() with per-node slots and per-shard Metrics.
//
// ## API shape
//
// Engine inherits the executor core's primitives (begin_round /
// advance_rounds / node_stream / node_fails / sample_peer / metrics /
// scratch ...) from ExecutorCore, exactly as Network does, so protocol code
// ports mechanically.  It adds only its own round execution: the sharded
// parallel_shards section and the per-node for_each_node built on it, the
// pool, the scatter arena, and the batched whole-round kernel pull_round
// that fills a caller-provided contiguous peer array in parallel — no
// virtual dispatch, no per-node allocation in the hot loop.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/arena.hpp"
#include "engine/engine_config.hpp"
#include "engine/thread_pool.hpp"
#include "sim/executor.hpp"
#include "sim/failure_model.hpp"
#include "sim/metrics.hpp"
#include "util/require.hpp"

namespace gq {

class Engine : public ExecutorCore {
 public:
  Engine(std::uint32_t n, std::uint64_t seed,
         FailureModel failures = FailureModel{},
         EngineConfig config = EngineConfig{});

  [[nodiscard]] const EngineConfig& config() const noexcept { return config_; }
  [[nodiscard]] unsigned threads() const noexcept { return pool_.threads(); }
  [[nodiscard]] std::size_t num_shards() const noexcept { return num_shards_; }

  // Index of the shard owning `node` (equivalently: whose range starts at a
  // parallel_shards callback's `begin`).  Shard geometry lives in exactly
  // one place so the kernels cannot drift from the dispatch layout.
  [[nodiscard]] std::size_t shard_of(std::uint32_t node) const noexcept {
    return node / config_.shard_size;
  }

  // Tuned default for EngineConfig::gather_block (see README "Performance"
  // and the GQ_BENCH_BLOCK sweep in the engine benches).  Large enough to
  // put hundreds of independent prefetches in flight per block, small
  // enough that a block's index lanes stay L1/L2-resident.
  static constexpr std::uint32_t kDefaultGatherBlock = 512;

  // Resolved gather block size for the batched kernels (config value, or
  // the tuned default when the config leaves it 0).  Purely a performance
  // knob: results and Metrics are identical at every value.
  [[nodiscard]] std::uint32_t gather_block() const noexcept {
    return config_.gather_block != 0 ? config_.gather_block
                                     : kDefaultGatherBlock;
  }

  // ---- sharded execution -----------------------------------------------

  // The extension point every batched kernel is built on: runs
  // fn(begin, end, local) for each shard [begin, end) of the node range,
  // in parallel, then merges the shard-local Metrics in shard order.
  // fn must honour the determinism contract above: write only to
  // node-indexed slots within [begin, end) and account traffic only
  // through `local`.  The callable is borrowed, never wrapped in a
  // std::function — one parallel section costs zero heap allocations once
  // the shard accumulators' size tables have warmed up.
  template <typename Fn>
  void parallel_shards(Fn&& fn) {
    GQ_SPAN("engine/parallel_shards");
    const std::uint32_t shard_size = config_.shard_size;
    auto shard_task = [&](std::size_t s) {
      const std::uint32_t begin =
          static_cast<std::uint32_t>(s * static_cast<std::size_t>(shard_size));
      const std::uint32_t end =
          s + 1 == num_shards_
              ? size()
              : static_cast<std::uint32_t>(
                    (s + 1) * static_cast<std::size_t>(shard_size));
      Metrics& local = shard_scratch_[s];
      local.reset();
      fn(begin, end, local);
    };
    pool_.run(num_shards_, shard_task);
    // Deterministic aggregation: shard order is fixed by (n, shard_size),
    // independent of which thread ran which shard.  Shards that recorded
    // nothing are skipped — merging zeros is a no-op, so the skip is
    // observationally neutral and keeps per-section accounting proportional
    // to the shards that actually billed traffic.
    for (const Metrics& local : shard_scratch_) {
      if (!local.empty()) mutable_metrics().merge(local);
    }
  }

  // Runs fn(v, local) for every node v, sharded: each shard walks its node
  // range in ascending order against its own accumulator, merged in shard
  // order — the same fragments, folded in the same node order, as
  // Network::for_each_node.  fn must write only node-v slots.
  template <typename Fn>
  void for_each_node(Fn&& fn) {
    parallel_shards(
        [&fn](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          for (std::uint32_t v = begin; v < end; ++v) fn(v, local);
        });
  }

  // The underlying worker pool, for engine subsystems (e.g. the scatter
  // primitive's delivery pass) that parallelise over units other than the
  // node shards.  Callers own their determinism: tasks must write disjoint
  // slots and must not touch the engine's Metrics.
  [[nodiscard]] ThreadPool& pool() noexcept { return pool_; }

  // The engine-owned mailbox arena; a Scatter checks its rows x partitions
  // box table out of it so mailbox capacity persists across rounds and
  // pipeline stages.  See engine/arena.hpp.
  [[nodiscard]] ScatterArena& scatter_arena() noexcept {
    return scatter_arena_;
  }

  // ---- batched whole-round kernels -------------------------------------

  // One synchronous round in which every node attempts a single pull of a
  // `bits_per_message`-bit message.  peers_out[v] is the contacted peer, or
  // kNoPeer if v's operation failed.  Bit-identical to Network::pull_round.
  void pull_round(std::uint64_t bits_per_message,
                  std::span<std::uint32_t> peers_out);
  [[nodiscard]] std::vector<std::uint32_t> pull_round(
      std::uint64_t bits_per_message);

 private:
  EngineConfig config_;
  std::size_t num_shards_;
  ThreadPool pool_;
  std::vector<Metrics> shard_scratch_;  // one accumulator per shard
  ScatterArena scatter_arena_;
};

}  // namespace gq
