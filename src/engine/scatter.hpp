// Deterministic parallel push/scatter for the sharded engine.
//
// The engine's pull kernels parallelise trivially: every node writes only
// its own slots.  A *push* pattern — many senders delivering payloads to
// arbitrary destinations in the same round — cannot, because two senders may
// target the same node and the order in which their payloads are applied is
// observable (floating-point folds, token list append order).  This is the
// pattern behind Algorithm 3's token split (Step 7) and push-sum counting,
// and it is what kept the full quantile pipelines off the engine.  Push-sum
// uses it only on multi-shard engines: with one shard the single send task
// already walks the senders in ascending order, so the counting kernel
// folds in place (engine/collectives.cpp).
//
// Scatter makes the pattern deterministic in two phases:
//
//   1. Send.  Each engine shard appends (destination, payload) records into
//      its own mailbox row — no sharing, no locks.  Within a row, records
//      sit in the order the shard's node loop emitted them, i.e. ascending
//      sender id.
//   2. Deliver.  Destinations are partitioned into contiguous ranges, fixed
//      by (n, shard_size) alone.  Each partition task folds the records
//      addressed to it by walking the mailbox rows in shard order.  Row
//      order is ascending sender shard and rows are internally ascending,
//      so every destination observes its payloads in ascending sender
//      order — exactly the order the sequential Network loop (for v = 0..n)
//      produces.  The fold result is therefore bit-identical at any thread
//      count and any shard size.
//
// Mailboxes live in the engine's ScatterArena (engine/arena.hpp): a Scatter
// checks the rows x partitions box table out for its lifetime and returns
// it, so mailbox capacity persists across rounds, pipeline stages, and
// payload types — steady-state rounds allocate nothing.  Records are
// memcpy-framed into the byte boxes, which is why payloads must be
// trivially copyable (they model wire messages; all of ours are).
#pragma once

#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "engine/arena.hpp"
#include "engine/engine.hpp"
#include "util/require.hpp"

namespace gq {

// Mailbox geometry of the scatter.  Rows are the engine's
// node shards (the send-side write granularity); destination partitions are
// contiguous node ranges sized from the same shard layout, capped so the
// row x partition table stays small.  All boundaries are pure functions of
// (n, shard_size) — never of the thread count.
struct ScatterLayout {
  std::uint32_t n = 0;
  std::uint32_t shard_size = 0;   // sender row granularity
  std::size_t rows = 0;           // number of sender shards
  std::uint32_t partition_shift = 0;  // destination partition width: 2^shift
  std::size_t partitions = 0;

  // Partition-count cap: keeps rows * partitions mailboxes cheap even for
  // very fine shard sizes, and keeps each box's record run long enough to
  // stream well (more, smaller boxes fragment the delivery read path).
  static constexpr std::size_t kMaxPartitions = 64;
  // Minimum partition width (2^12 = 4096 destinations): below this a
  // partition's accumulator slice is so small that per-box and per-task
  // overheads dominate, so tiny instances collapse into fewer partitions.
  static constexpr std::uint32_t kMinPartitionShift = 12;

  [[nodiscard]] static ScatterLayout for_engine(const Engine& engine);
  // The geometry is a pure function of (n, shard_size); this factory is
  // the engine-free entry point (layout boundary tests use it).
  [[nodiscard]] static ScatterLayout for_geometry(std::uint32_t n,
                                                  std::uint32_t shard_size,
                                                  std::size_t rows);

  [[nodiscard]] std::size_t row_of(std::uint32_t sender) const noexcept {
    return sender / shard_size;
  }
  // Partition widths are powers of two, so the per-message destination
  // lookup is a shift — send() sits on the hottest per-message path in the
  // whole engine and a runtime division here is measurable.  (Partition
  // shape is internal geometry: the per-destination fold order depends only
  // on row order, so this never affects results.)
  [[nodiscard]] std::size_t partition_of(std::uint32_t dest) const noexcept {
    return static_cast<std::size_t>(static_cast<std::uint64_t>(dest) >>
                                    partition_shift);
  }
  // Destination range [first, last) of one partition.
  [[nodiscard]] std::pair<std::uint32_t, std::uint32_t> partition_range(
      std::size_t p) const noexcept {
    const auto first = static_cast<std::uint64_t>(p) << partition_shift;
    const auto last = first + (std::uint64_t{1} << partition_shift);
    return {static_cast<std::uint32_t>(first),
            last < n ? static_cast<std::uint32_t>(last) : n};
  }
};

namespace scatter_detail {

// The arena-backed mailbox table the scatter sits on: checkout,
// record framing, and the row-major delivery walk.  Records are framed
// into the byte slabs with placement-new (write) and laundered pointers
// (read): every record offset is a multiple of sizeof(Record) from a
// max-aligned slab base, so access is always aligned, and avoiding a
// bounce through a stack temporary keeps the per-message cost at parity
// with a typed vector while letting the slabs be reused across payload
// types.
template <typename Record>
class Mailboxes {
 public:
  static_assert(std::is_trivially_copyable_v<Record> &&
                    std::is_trivially_destructible_v<Record>,
                "scatter payloads model wire messages and must be "
                "trivially copyable");
  static_assert(alignof(Record) <= alignof(std::max_align_t));

  Mailboxes(Engine& engine, const ScatterLayout& layout)
      : layout_(layout), arena_(&engine.scatter_arena()) {
    const std::size_t count = layout_.rows * layout_.partitions;
    boxes_ = arena_->acquire(count);
    if (boxes_ == nullptr) {
      // The arena is checked out by an enclosing collective; nest with
      // private mailboxes instead (pre-arena behaviour).
      arena_ = nullptr;
      own_.resize(count);
      boxes_ = own_.data();
    }
  }
  ~Mailboxes() {
    if (arena_ != nullptr) arena_->release();
  }

  Mailboxes(const Mailboxes&) = delete;
  Mailboxes& operator=(const Mailboxes&) = delete;

  void clear_all() {
    const std::size_t count = layout_.rows * layout_.partitions;
    for (std::size_t i = 0; i < count; ++i) boxes_[i].used = 0;
  }

  [[nodiscard]] ScatterArena::Box& box(std::size_t row, std::size_t p) {
    return boxes_[row * layout_.partitions + p];
  }

  // Base of one sender row's boxes; hoists the row lookup out of
  // per-message sends (the whole row belongs to one shard task).
  [[nodiscard]] ScatterArena::Box* row_base(std::size_t row) {
    return boxes_ + row * layout_.partitions;
  }

  void append(ScatterArena::Box& b, const Record& record) {
    if (b.used + sizeof(Record) > b.bytes.size()) {
      if (arena_ != nullptr) {
        arena_->grow(b, b.used + sizeof(Record));
      } else {
        b.bytes.resize(
            ScatterArena::next_capacity(b, b.used + sizeof(Record)));
      }
    }
    ::new (static_cast<void*>(b.bytes.data() + b.used)) Record(record);
    b.used += sizeof(Record);
  }

  [[nodiscard]] static const Record* records(const ScatterArena::Box& b) {
    return std::launder(reinterpret_cast<const Record*>(b.bytes.data()));
  }
  [[nodiscard]] static std::size_t count(const ScatterArena::Box& b) {
    return b.used / sizeof(Record);
  }

  // Applies fn(record) to every record addressed to partition p, mailbox
  // rows in shard order — i.e. ascending sender order per destination —
  // and calls touch(record) kLookahead records ahead of fn(record).  The
  // record stream itself is sequential (the hardware prefetcher handles
  // it); what stalls the fold is the random-indexed per-destination
  // accumulator line, whose address only the caller can compute — touch is
  // where it issues the software prefetch.  Purely a timing hint: fn still
  // runs over every record in the same order.
  template <typename Fn, typename Touch>
  void for_each_in_partition(std::size_t p, Fn&& fn, Touch&& touch) {
    constexpr std::size_t kLookahead = 8;
    for (std::size_t row = 0; row < layout_.rows; ++row) {
      const ScatterArena::Box& b = box(row, p);
      const Record* r = records(b);
      const std::size_t m = count(b);
      const std::size_t head = std::min(kLookahead, m);
      for (std::size_t i = 0; i < head; ++i) touch(r[i]);
      for (std::size_t i = 0; i < m; ++i) {
        if (i + kLookahead < m) touch(r[i + kLookahead]);
        fn(r[i]);
      }
    }
  }

 private:
  ScatterLayout layout_;
  ScatterArena* arena_;  // null when nested: own_ backs the boxes instead
  ScatterArena::Box* boxes_;
  std::vector<ScatterArena::Box> own_;
};

}  // namespace scatter_detail

// Order-preserving scatter: deliver() applies payloads to each destination
// in ascending sender order.  Use for floating-point folds and for payloads
// whose arrival order is observable (e.g. token lists).
template <typename Payload>
class Scatter {
 public:
  explicit Scatter(Engine& engine)
      : layout_(ScatterLayout::for_engine(engine)), boxes_(engine, layout_) {}

  [[nodiscard]] const ScatterLayout& layout() const noexcept {
    return layout_;
  }

  // Clears every mailbox, keeping capacity for the next round.
  void begin_round() { boxes_.clear_all(); }

  // Queues one payload.  Must be called from the engine shard that owns
  // `sender` (each row is written by exactly one task); senders within a
  // shard must send in ascending node order, which every node-loop kernel
  // does naturally.
  void send(std::uint32_t sender, std::uint32_t dest, Payload payload) {
    boxes_.append(boxes_.box(layout_.row_of(sender), layout_.partition_of(dest)),
                  Record{dest, std::move(payload)});
  }

  // Per-shard send handle: resolves the mailbox row once per shard task
  // instead of once per message (the row division is real cost at a
  // million sends per round).  Same ordering contract as send().
  class Sender {
   public:
    void send(std::uint32_t dest, Payload payload) {
      scatter_->boxes_.append(row_[scatter_->layout_.partition_of(dest)],
                              Record{dest, std::move(payload)});
    }

   private:
    friend class Scatter;
    Sender(Scatter* scatter, ScatterArena::Box* row)
        : scatter_(scatter), row_(row) {}
    Scatter* scatter_;
    ScatterArena::Box* row_;
  };

  // The handle for the shard whose node range starts at `shard_begin`.
  [[nodiscard]] Sender sender_for(std::uint32_t shard_begin) {
    return Sender(this, boxes_.row_base(layout_.row_of(shard_begin)));
  }

  // Applies fold(dest, payload) for every queued record, partitions in
  // parallel, per-destination in ascending sender order.  fold must write
  // only destination-indexed state (destinations of distinct partitions are
  // disjoint by construction).  Every deliver flavour forwards into the
  // full deliver_prefetch form (no-op stages compile away), so the
  // delivery walk exists exactly once.
  template <typename Fold>
  void deliver(Engine& engine, Fold&& fold) {
    deliver_prefetch(engine, std::forward<Fold>(fold),
                     [](std::uint32_t) {});
  }

  // Like deliver, but runs prologue(first, last) over the partition's
  // destination range before folding — the idiomatic place to zero
  // per-destination accumulators while the range is cache-resident.
  template <typename Prologue, typename Fold>
  void deliver(Engine& engine, Prologue&& prologue, Fold&& fold) {
    deliver_prefetch(engine, std::forward<Prologue>(prologue),
                     std::forward<Fold>(fold),
                     [](std::uint32_t, std::uint32_t) {},
                     [](std::uint32_t) {});
  }

  // deliver() with a destination prefetch hint: touch(dest) is called a few
  // records ahead of fold(dest, payload), so the fold's random-indexed
  // accumulator line is already in flight when the record is applied.  The
  // hint must have no observable effect (issue prefetches, nothing else);
  // fold order and results are exactly those of deliver().
  template <typename Fold, typename Touch>
  void deliver_prefetch(Engine& engine, Fold&& fold, Touch&& touch) {
    deliver_prefetch(engine, [](std::uint32_t, std::uint32_t) {},
                     std::forward<Fold>(fold),
                     [](std::uint32_t, std::uint32_t) {},
                     std::forward<Touch>(touch));
  }

  // Full-round form: prologue(first, last), the fold, then
  // epilogue(first, last) over the same range — so a collective can zero
  // its accumulators, fold the incoming payloads, and commit them to the
  // per-node state in one parallel section while the partition is
  // cache-resident, instead of paying a separate whole-array pass.
  // Identical fold order, so results stay bit-identical.
  template <typename Prologue, typename Fold, typename Epilogue,
            typename Touch>
  void deliver_prefetch(Engine& engine, Prologue&& prologue, Fold&& fold,
                        Epilogue&& epilogue, Touch&& touch) {
    GQ_SPAN("engine/scatter_deliver");
    engine.pool().run(layout_.partitions, [&](std::size_t p) {
      const auto [first, last] = layout_.partition_range(p);
      prologue(first, last);
      boxes_.for_each_in_partition(
          p, [&](const Record& r) { fold(r.dest, r.payload); },
          [&](const Record& r) { touch(r.dest); });
      epilogue(first, last);
    });
  }

 private:
  struct Record {
    std::uint32_t dest;
    Payload payload;
  };

  ScatterLayout layout_;
  scatter_detail::Mailboxes<Record> boxes_;
};

}  // namespace gq
