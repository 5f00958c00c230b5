#include "service/session.hpp"

#include <algorithm>

#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

bool EpochSession::rebuild_if_due(std::span<const Key> instance,
                                  std::uint32_t compact_factor) {
  // Compact once staleness dominates: the table may lawfully hold retired
  // keys, but past `compact_factor` times the instance size the binary-
  // search depth and memory are paying for dead weight.
  const bool oversized = interner_.table().size() >
                         static_cast<std::size_t>(compact_factor) *
                             instance.size();
  if (warm_ && !oversized) return false;
  GQ_SPAN("service/session_rebuild");
  lanes_.resize(instance.size());
  interner_.intern(instance, {lanes_.data(), lanes_.size()});
  warm_ = true;
  ++rebuilds_;
  return true;
}

void EpochSession::update(std::span<const Key> instance,
                          std::uint32_t compact_factor) {
  if (rebuild_if_due(instance, compact_factor)) return;
  GQ_SPAN("service/session_extend");
  const std::size_t m = instance.size();
  lanes_.resize(m);
  // Keys this epoch introduced: anything not already in the table.  The
  // common steady-state epoch (a few nodes ingested, a few representatives
  // moved) makes this a short list; a quiet epoch makes it empty.
  added_.clear();
  const std::span<const Key> table = interner_.table();
  for (const Key& k : instance) {
    if (!std::binary_search(table.begin(), table.end(), k)) {
      added_.push_back(k);
    }
  }
  interner_.extend(added_, instance, {lanes_.data(), m});
  ++(added_.empty() ? reuse_hits_ : extends_);
}

void EpochSession::update(std::span<const Key> instance,
                          std::span<const std::uint32_t> changed,
                          std::uint32_t compact_factor) {
  if (changed.size() == instance.size()) {
    update(instance, compact_factor);
    return;
  }
  GQ_REQUIRE(warm_ && lanes_.size() == instance.size(),
             "a slot-targeted update needs the previous instance's lanes");
  if (rebuild_if_due(instance, compact_factor)) return;
  GQ_SPAN("service/session_extend");
  // Unchanged slots hold keys of the previous instance, all of them in the
  // table, so only the changed slots can introduce keys.
  added_.clear();
  const std::span<const Key> table = interner_.table();
  for (const std::uint32_t slot : changed) {
    if (!std::binary_search(table.begin(), table.end(), instance[slot])) {
      added_.push_back(instance[slot]);
    }
  }
  if (!added_.empty()) {
    interner_.extend_remap(added_, {lanes_.data(), lanes_.size()});
  }
  for (const std::uint32_t slot : changed) {
    lanes_[slot] = interner_.rank_of(instance[slot]);
  }
  ++(added_.empty() ? reuse_hits_ : extends_);
}

void EpochSession::indicator_le(const Key& probe,
                                std::vector<bool>& indicator) const {
  GQ_REQUIRE(warm_, "indicator_le needs an updated session");
  const std::uint32_t bound = interner_.count_le(probe);
  indicator.assign(lanes_.size(), false);
  for (std::size_t v = 0; v < lanes_.size(); ++v) {
    indicator[v] = lanes_[v] < bound;
  }
}

}  // namespace gq
