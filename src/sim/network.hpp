// The uniform gossip network simulator: the sequential executor.
//
// Network runs the synchronous-round model of sim/executor.hpp one node at
// a time, on the calling thread.  It is the reference every other executor
// is pinned against: the parallel Engine must reproduce its transcripts,
// states and Metrics bit for bit.
//
// Protocols drive the network through two levels of API:
//   * whole-round helpers (pull_round, push_round) covering the common
//     "every node contacts one random peer" pattern, and
//   * the executor core's low-level primitives (begin_round / node_stream /
//     sample_peer / node_fails) plus the sequential accounting below
//     (record_messages ..., for_each_node) for protocols with richer
//     per-round behaviour such as the token-splitting step of the exact
//     algorithm.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/executor.hpp"
#include "sim/failure_model.hpp"
#include "sim/metrics.hpp"

namespace gq {

class Network : public ExecutorCore {
 public:
  Network(std::uint32_t n, std::uint64_t seed,
          FailureModel failures = FailureModel{})
      : ExecutorCore(n, seed, std::move(failures)) {}

  // ---- sequential accounting ---------------------------------------------

  // Traffic accounting for the current round.  Bulk form is O(#distinct
  // message sizes), not O(count).
  void record_messages(std::uint64_t count, std::uint64_t bits_each) {
    mutable_metrics().record_messages(count, bits_each);
  }
  void record_message(std::uint64_t bits) {
    mutable_metrics().record_message(bits);
  }
  void record_failed_operation() noexcept {
    ++mutable_metrics().failed_operations;
  }

  // Runs fn(v, local) for every node v in ascending order against one
  // local accumulator, folded into the run accounting afterwards — the same
  // fragments, merged in the same node order, as Engine::for_each_node's
  // shards.  fn must write only node-v slots, and bills messages, failed
  // operations and adversary tallies through `local` — never rounds;
  // advance those through begin_round / advance_rounds.
  template <typename Fn>
  void for_each_node(Fn&& fn) {
    Metrics local;
    for (std::uint32_t v = 0; v < size(); ++v) fn(v, local);
    mutable_metrics().merge(local);
  }

  // ---- whole-round helpers ---------------------------------------------

  // One synchronous round in which every node attempts a single pull of a
  // `bits_per_message`-bit message.  out[v] is the contacted peer, or
  // kNoPeer if v's operation failed.
  [[nodiscard]] std::vector<std::uint32_t> pull_round(
      std::uint64_t bits_per_message);

  // One synchronous round in which every node attempts a single push.
  // out[v] is the destination chosen by v, or kNoPeer on failure.  (The
  // mechanics are identical to pull_round; the distinction is which side
  // supplies the message, which matters to the protocol, not the sampler.)
  [[nodiscard]] std::vector<std::uint32_t> push_round(
      std::uint64_t bits_per_message) {
    return pull_round(bits_per_message);
  }
};

}  // namespace gq
