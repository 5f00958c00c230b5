// Traffic and round accounting for a simulated gossip execution.
//
// Every algorithm in this library advances rounds and records messages
// through Network (or the parallel Engine), so the counters below are honest
// end-to-end costs in the paper's model: rounds of synchronous gossip,
// messages exchanged, and bits on the wire (message sizes are accounted, not
// serialized).
//
// Billed sizes are the model's analytic budgets, not an encoding.  A key is
// billed key_bits(n) (sim/key.hpp); a self-contained key encoding needs 10
// bits more — a 2-bit kind tag for the two sentinels and the 8-bit iteration
// field of the duplication tag — so key and pivot messages are billed about
// 11% below such an encoding at n = 2^14, where key_bits is 92.  Tokens are
// billed key_bits(n) plus bit_width(multiplier) weight bits
// (core/token_split.hpp).
//
// Alongside the plain counters, Metrics keeps a cumulative per-size message
// count (`size_counts`).  Protocols use only a handful of distinct message
// sizes per run, so the table stays tiny, and it is what makes phase
// accounting honest: `since(earlier)` can report the largest message that
// occurred *within* the phase rather than the run-global maximum.
//
// Metrics is a value type: snapshots are plain copies, and shard-local
// instances can be combined with `merge` (all counters are sums or maxes, so
// merging is order-independent — the parallel engine relies on this for
// bit-identical results at any thread count).
#pragma once

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

namespace gq {

namespace metrics_detail {

using SizeCounts = std::vector<std::pair<std::uint64_t, std::uint64_t>>;

inline SizeCounts::const_iterator find_size(const SizeCounts& counts,
                                            std::uint64_t bits) {
  return std::lower_bound(
      counts.begin(), counts.end(), bits,
      [](const auto& entry, std::uint64_t b) { return entry.first < b; });
}

// Adds `count` messages of size `bits` to the sorted table.
inline void add_size(SizeCounts& counts, std::uint64_t bits,
                     std::uint64_t count) {
  const auto pos = counts.begin() + (find_size(counts, bits) - counts.begin());
  if (pos != counts.end() && pos->first == bits) {
    pos->second += count;
  } else {
    counts.insert(pos, {bits, count});
  }
}

// Cumulative count recorded for size `bits` (0 if never seen).
inline std::uint64_t count_at(const SizeCounts& counts, std::uint64_t bits) {
  const auto pos = find_size(counts, bits);
  return (pos != counts.end() && pos->first == bits) ? pos->second : 0;
}

}  // namespace metrics_detail

struct Metrics {
  std::uint64_t rounds = 0;             // synchronous gossip rounds elapsed
  std::uint64_t messages = 0;           // successful push/pull messages
  std::uint64_t message_bits = 0;       // sum of message sizes in bits
  std::uint64_t max_message_bits = 0;   // largest single message
  std::uint64_t failed_operations = 0;  // node-rounds lost to failures

  // Adversarial fault tallies (sim/adversary.hpp).  A faulted message is
  // still billed as sent (the sender paid for it); these count what the
  // adversary did to it in transit.  Zero on failure-model-only runs.
  std::uint64_t adversary_dropped = 0;    // destroyed in transit
  std::uint64_t adversary_corrupted = 0;  // payload replaced
  std::uint64_t adversary_delayed = 0;    // delivery postponed

  // Crash-churn lifecycle tallies (FaultKind::kCrash / kRecover).  Crashed
  // node-rounds send nothing, so unlike the in-transit tallies above these
  // operations are *not* billed as messages.
  std::uint64_t adversary_crashed = 0;        // node-rounds spent down
  std::uint64_t adversary_crash_dropped = 0;  // pulls lost to a down peer
  std::uint64_t adversary_recovered = 0;      // recovery events observed

  // Cumulative count of messages per distinct size, sorted by size.
  metrics_detail::SizeCounts size_counts;

  friend bool operator==(const Metrics&, const Metrics&) = default;

  // Zeroes every counter but keeps size_counts' capacity, unlike assigning
  // Metrics{} — the engine resets shard-local accumulators every parallel
  // section, and steady-state rounds must not reallocate the table.
  void reset() {
    rounds = 0;
    messages = 0;
    message_bits = 0;
    max_message_bits = 0;
    failed_operations = 0;
    adversary_dropped = 0;
    adversary_corrupted = 0;
    adversary_delayed = 0;
    adversary_crashed = 0;
    adversary_crash_dropped = 0;
    adversary_recovered = 0;
    size_counts.clear();
  }

  // True iff every counter is zero.  The engine's per-section merge skips
  // empty shard accumulators on this test; skipping is observationally
  // identical to merging (every field is a sum or a max, and merging zeros
  // changes nothing), it just keeps the O(shards) per-section accounting
  // from touching size tables that recorded no traffic.
  [[nodiscard]] bool empty() const noexcept {
    return rounds == 0 && messages == 0 && message_bits == 0 &&
           max_message_bits == 0 && failed_operations == 0 &&
           adversary_dropped == 0 && adversary_corrupted == 0 &&
           adversary_delayed == 0 && adversary_crashed == 0 &&
           adversary_crash_dropped == 0 && adversary_recovered == 0 &&
           size_counts.empty();
  }

  void record_message(std::uint64_t bits) { record_messages(1, bits); }

  // Bulk update: `count` messages of `bits` bits each, O(#distinct sizes)
  // instead of O(count).
  void record_messages(std::uint64_t count, std::uint64_t bits) {
    if (count == 0) return;
    messages += count;
    message_bits += count * bits;
    if (bits > max_message_bits) max_message_bits = bits;
    metrics_detail::add_size(size_counts, bits, count);
  }

  // Folds a shard-local Metrics into this one.  Every field is a sum or a
  // max, so the result does not depend on merge order.
  void merge(const Metrics& other) {
    rounds += other.rounds;
    messages += other.messages;
    message_bits += other.message_bits;
    max_message_bits = std::max(max_message_bits, other.max_message_bits);
    failed_operations += other.failed_operations;
    adversary_dropped += other.adversary_dropped;
    adversary_corrupted += other.adversary_corrupted;
    adversary_delayed += other.adversary_delayed;
    adversary_crashed += other.adversary_crashed;
    adversary_crash_dropped += other.adversary_crash_dropped;
    adversary_recovered += other.adversary_recovered;
    for (const auto& [bits, count] : other.size_counts) {
      metrics_detail::add_size(size_counts, bits, count);
    }
  }

  // Difference of two snapshots: cost of the phase between them.  `earlier`
  // must be a previous snapshot of this same accounting stream (its per-size
  // counts are dominated by ours); `max_message_bits` of the result is the
  // largest message recorded within the phase, not the global maximum.
  [[nodiscard]] Metrics since(const Metrics& earlier) const {
    Metrics d;
    d.rounds = rounds - earlier.rounds;
    d.messages = messages - earlier.messages;
    d.message_bits = message_bits - earlier.message_bits;
    d.failed_operations = failed_operations - earlier.failed_operations;
    d.adversary_dropped = adversary_dropped - earlier.adversary_dropped;
    d.adversary_corrupted = adversary_corrupted - earlier.adversary_corrupted;
    d.adversary_delayed = adversary_delayed - earlier.adversary_delayed;
    d.adversary_crashed = adversary_crashed - earlier.adversary_crashed;
    d.adversary_crash_dropped =
        adversary_crash_dropped - earlier.adversary_crash_dropped;
    d.adversary_recovered = adversary_recovered - earlier.adversary_recovered;
    for (const auto& [bits, count] : size_counts) {
      const std::uint64_t before =
          metrics_detail::count_at(earlier.size_counts, bits);
      if (count > before) {
        d.size_counts.emplace_back(bits, count - before);
        if (bits > d.max_message_bits) d.max_message_bits = bits;
      }
    }
    return d;
  }
};

}  // namespace gq
