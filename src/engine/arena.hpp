// Per-engine mailbox arena for the scatter primitive.
//
// The push-shaped collectives (push-sum counting on multi-shard engines, the
// Step-7 token split) route their traffic through a Scatter; one-shard
// push-sum folds in place, and spreads, pivot spreading included, are
// pulls.  Before this arena existed each collective constructed its own
// rows x partitions mailbox table and re-grew every mailbox from zero — in
// a long exact_quantile run that is thousands of throwaway vector growths.
// The arena gives the Engine ownership of one mailbox table that
// collectives check out and return: byte capacity reached in round r is
// still there in round r+1000 and in the next pipeline stage, so
// steady-state rounds perform zero heap allocations in the scatter path.
//
// Boxes store raw bytes rather than typed records so the same capacity is
// reused across payload types (a push-sum PushSumScratch<D>::Pair round
// followed by a Token round reuses the same slabs).  Scatter<Payload>
// imposes the record framing; payloads must be trivially copyable, which
// every gossip payload is (they model wire messages).
//
// NUMA note: a mailbox row is written by exactly one sender shard, and
// growth happens inside that shard's send loop — so the pages of a row's
// slab are first touched by the worker that owns the row, which is the
// first-touch placement a NUMA allocator wants.  Delivery reads cross
// rows, but reads are the cheap direction.
//
// Checkout is exclusive: one collective holds the arena at a time (they run
// sequentially inside a pipeline, and none nests a Scatter inside another).
// acquire() rejects a second checkout, so a nested Scatter throws instead
// of corrupting the boxes its holder is filling.
//
// The growth counter exists for the allocation-freeness tests: after a
// warmup run, a bit-identical rerun must leave grow_events() unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#include "util/require.hpp"

namespace gq {

// Uninitialized pooled buffer for trivially-default-constructible elements.
// Unlike std::vector, ensure() does not write the pages, so the first write
// — from the owning shard's worker inside a parallel section — is what maps
// them, landing each shard's slice on that worker's NUMA node (first-touch
// placement).  Pool instances via Engine::scratch so capacity persists
// across collective calls.  Callers must write before reading, which the
// engine kernels do by construction (every slot is (re)initialized each
// call or each round).
template <typename T>
class FirstTouchBuffer {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "first-touch storage must not require construction, or the "
                "constructor itself would touch the pages sequentially");

 public:
  void ensure(std::size_t n) {
    if (n <= capacity_) return;
    data_ = std::make_unique_for_overwrite<T[]>(n);
    capacity_ = n;
  }

  [[nodiscard]] T* data() noexcept { return data_.get(); }
  [[nodiscard]] std::span<T> span(std::size_t n) noexcept {
    return {data_.get(), n};
  }

 private:
  std::unique_ptr<T[]> data_;
  std::size_t capacity_ = 0;
};

class ScatterArena {
 public:
  struct Box {
    std::vector<std::byte> bytes;  // capacity slab; size() is the capacity
    std::size_t used = 0;          // bytes holding live records
  };

  // Claims `count` boxes with `used` reset and capacity preserved; throws
  // std::invalid_argument when the arena is already checked out.  The
  // pointer is valid until release(); the box table never moves
  // mid-checkout.
  [[nodiscard]] Box* acquire(std::size_t count) {
    GQ_REQUIRE(!in_use_,
               "the scatter arena is already checked out; scatters do not "
               "nest");
    if (boxes_.size() < count) boxes_.resize(count);
    for (std::size_t i = 0; i < count; ++i) boxes_[i].used = 0;
    in_use_ = true;
    return boxes_.data();
  }

  void release() noexcept { in_use_ = false; }

  // Grows `box` to hold at least `min_bytes`, geometrically.  The floor is
  // deliberately small: a mailbox table can hold thousands of boxes, and
  // over-sized floors fragment the delivery read path across mostly-empty
  // pages; doubling reaches any realistic box volume in a few warmup
  // rounds.  Called concurrently for *different* boxes (each row has one
  // writer), hence the atomic counter.
  void grow(Box& box, std::size_t min_bytes) {
    const std::size_t doubled = box.bytes.size() * 2;
    const std::size_t floor = std::size_t{1} << 8;
    grow_events_.fetch_add(1, std::memory_order_relaxed);
    box.bytes.resize(std::max(min_bytes, std::max(doubled, floor)));
  }

  // ---- instrumentation --------------------------------------------------

  // Number of box growths since construction.  Steady state is defined by
  // this standing still: rerunning an identical workload on a warmed-up
  // engine must not move it.
  [[nodiscard]] std::uint64_t grow_events() const noexcept {
    return grow_events_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<Box> boxes_;
  bool in_use_ = false;
  std::atomic<std::uint64_t> grow_events_{0};
};

}  // namespace gq
