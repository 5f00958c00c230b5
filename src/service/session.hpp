// The service's persistent interned session: the bridge between sealed
// epochs and the engine's compact rank-lane kernels.
//
// Every sealed epoch produces a one-key-per-node gossip instance.  The
// session keeps that instance interned — a sorted distinct-key table plus a
// 32-bit rank lane per node (sim/key_intern.hpp) — and maintains it
// *incrementally* across epochs: keys that appeared this epoch are merged
// into the existing table instead of re-sorting the whole instance.  Keys
// retired by an epoch stay in the table as stale-but-harmless entries (rank
// order is still key order; see key_intern.hpp); once the table outgrows
// the instance by the configured factor, the next update compacts it with
// one full re-intern.
//
// What an update costs, for m slots, a table of d keys and c changed slots:
//   * update(instance, factor) scans the whole instance: m binary searches
//     to find the new keys, a merge, then m more to re-rank every lane —
//     O(m log d).  It is what an update that changes every slot runs (the
//     first one, a membership change, a kGlobalResample epoch).
//   * update(instance, changed, factor) trusts the caller's list of slots
//     whose key moved: c binary searches find the new keys, the merge
//     re-ranks every other lane through one old -> new rank map
//     (KeyInterner::extend_remap), and c more searches place the changed
//     lanes — O(c log d + d + m), and O(c log d) when no key is new.  A
//     trickle epoch of the service (a few nodes ingested) runs this one.
// Both leave the same table, lanes and counters.
//
// The session is what makes warm queries cheap twice over:
//   * engine hand-off — adopt_intern_session seeds the kernels' verify-
//     checked session from the table/lanes here, skipping the per-query
//     intern sort;
//   * rank/CDF indicators — "key_v <= probe" is the integer compare
//     lane[v] < count_le(probe) against one binary search, never a
//     Key-typed scan.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/key.hpp"
#include "sim/key_intern.hpp"

namespace gq {

class EpochSession {
 public:
  // Re-bases the session on a sealed epoch's instance (keys[i] belongs to
  // contributor slot i).  Chooses extend vs rebuild internally; after the
  // call, lanes()/table() encode exactly `instance`.
  void update(std::span<const Key> instance, std::uint32_t compact_factor);

  // The same update for an instance that differs from the previous one only
  // at the distinct slots in `changed`, listed in any order.  An update
  // that lists every slot (required for the first update and for any
  // change of instance size) is the full scan above.
  void update(std::span<const Key> instance,
              std::span<const std::uint32_t> changed,
              std::uint32_t compact_factor);

  [[nodiscard]] std::span<const Key> table() const noexcept {
    return interner_.table();
  }
  [[nodiscard]] std::span<const std::uint32_t> lanes() const noexcept {
    return {lanes_.data(), lanes_.size()};
  }

  // indicator[i] = (instance key i <= probe), computed lane-wise.
  void indicator_le(const Key& probe, std::vector<bool>& indicator) const;

  // Session trajectory counters (observability; surfaced in ServiceStats).
  [[nodiscard]] std::uint64_t rebuilds() const noexcept { return rebuilds_; }
  [[nodiscard]] std::uint64_t extends() const noexcept { return extends_; }
  [[nodiscard]] std::uint64_t reuse_hits() const noexcept {
    return reuse_hits_;
  }

 private:
  // Full re-intern when the session is cold or the table has outgrown the
  // instance; returns whether it ran.
  bool rebuild_if_due(std::span<const Key> instance,
                      std::uint32_t compact_factor);

  KeyInterner interner_;
  std::vector<std::uint32_t> lanes_;
  std::vector<Key> added_;  // per-update scratch: keys new to the table
  bool warm_ = false;
  std::uint64_t rebuilds_ = 0;   // full intern sorts paid
  std::uint64_t extends_ = 0;    // incremental merges paid
  std::uint64_t reuse_hits_ = 0; // updates with no new distinct keys at all
};

}  // namespace gq
