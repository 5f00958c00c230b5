// The Engine's round kernels of the gossip collectives: the spread kernel
// (spread_min / spread_max / spread_min_max and pivot sampling), push-sum
// (the counts) and the Step-7 token split.  Declared in
// engine/pipelines.hpp; the pipeline entry points live in
// engine/pipelines.cpp.
#include "engine/pipelines.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "agg/push_sum.hpp"
#include "engine/arena.hpp"
#include "engine/scatter.hpp"
#include "engine/token_store.hpp"
#include "sim/key_intern.hpp"
#include "telemetry/telemetry.hpp"
#include "util/prefetch.hpp"
#include "util/require.hpp"

namespace gq {

// ---- spread round kernel --------------------------------------------------
//
// The batched twin of agg/spread.hpp's spread_best: same target (the join
// of every initial payload, folded shard-wise and combined in shard order),
// same per-round fold, same convergence checks, so round counts and Metrics
// match the sequential loop exactly.  The per-shard done flags are folded
// into the round kernel so the omniscient all-agree check costs no extra
// parallel section.
//
// On a one-shard engine, Key and MinMaxKeys payloads run that loop on
// interned ranks, as the tournament kernels do (sim/key_intern.hpp): one
// intern maps every payload lane to its rank in the sorted table of the
// lanes' distinct keys, the rounds join 4-byte ranks (an 8-byte rank pair
// for MinMaxKeys) with branch-free min/max, and the result writes
// table[rank] back.  Rank order is key order and equal keys share a rank,
// so the target, every join and every done flag decide as on keys:
// rounds, Metrics and the values of a capped run are the Key loop's.  What
// changes is a round's random gather, 4 bytes instead of a 24-byte Key (48
// for MinMaxKeys), and joins that no longer branch on random data.  Both
// lanes of a MinMaxKeys payload share one table, since they compare in the
// same key order.
//
// The intern is one serial radix sort over every payload lane (n keys, 2n
// for MinMaxKeys), and its lanes and slots stay pooled for the Engine's
// life (about 140 bytes per node for MinMaxKeys).  On one shard every
// round section is a single task too, so the sort competes with nothing
// parallel: on a 4-vCPU VM perfbench exact_16k_t2 (n = 2^14, one shard,
// threads = 2) read op_min_ms 197 -> 170 ms, faster in 10 of 10 pairs.
// With several shards the rounds spread over the pool while the sort does
// not: exact_256k_t4 (n = 2^18, 16 shards, threads = 4) read op_min_ms
// 1677 -> 1946 ms, faster in 1 of 8 pairs, and peak RSS 176 -> 199 MB,
// with spread_min alone 38 -> 52-58 ms.  So multi-shard engines, and the
// pivot's PriorityKey payloads, run the loop on the payloads themselves.
namespace {

// MinMaxKeys with each lane's key replaced by its rank.
struct RankPair {
  std::uint32_t min;
  std::uint32_t max;

  friend bool operator==(const RankPair&, const RankPair&) = default;
};

// The rank twins of the Key joins.  Value selects rather than
// std::min/std::max, whose reference-returning pair GCC lowers to a branch
// (see rank_median_detail::compare_exchange).
struct RankMin {
  std::uint32_t operator()(std::uint32_t own, std::uint32_t peer) const {
    return peer < own ? peer : own;
  }
};
struct RankMax {
  std::uint32_t operator()(std::uint32_t own, std::uint32_t peer) const {
    return own < peer ? peer : own;
  }
};
struct RankPairJoin {
  RankPair operator()(const RankPair& own, const RankPair& peer) const {
    return {RankMin{}(own.min, peer.min), RankMax{}(own.max, peer.max)};
  }
};

// KeepBetter over std::less keeps the larger key, over std::greater the
// smaller.
RankMax rank_join(KeepBetter<std::less<Key>>) { return {}; }
RankMin rank_join(KeepBetter<std::greater<Key>>) { return {}; }

// Both lanes of MinMaxKeys payloads as one key sequence, for one intern
// into one table: element 2v is node v's min key, 2v + 1 its max key.
struct MinMaxLanes {
  std::span<const MinMaxKeys> payloads;

  [[nodiscard]] std::size_t size() const { return 2 * payloads.size(); }
  const Key& operator[](std::size_t i) const {
    const MinMaxKeys& p = payloads[i / 2];
    return i % 2 == 0 ? p.min : p.max;
  }
};

// Engine-pooled working state (Engine::scratch): repeated spreads reuse
// their lanes instead of allocating n-sized buffers per call.  The
// interner and the rank lanes serve one-shard engines only.
struct SpreadScratch {
  KeyInterner interner;
  FirstTouchBuffer<std::uint32_t> ranks;  // Key: lanes A and B; MinMaxKeys:
                                          // the ranks of MinMaxLanes
  FirstTouchBuffer<RankPair> pairs;       // MinMaxKeys: lanes A and B
  FirstTouchBuffer<std::uint32_t> peers;  // each round's pulled peers
  std::vector<std::uint8_t> done;         // per-shard all-agree flags
};

template <typename T>
struct SpreadRun {
  std::span<T> values;  // the lane holding the final payloads
  std::uint64_t rounds = 0;
  bool converged = false;
};

// The round loop, on payload lanes `cur` (holding the initial payloads) and
// `next`, which trade places every round.
template <typename T, typename Join>
SpreadRun<T> spread_rounds(Engine& engine, SpreadScratch& s, std::span<T> cur,
                           std::span<T> next, Join join,
                           std::uint64_t bits_per_message,
                           std::uint64_t max_rounds) {
  const std::uint32_t n = engine.size();
  const std::size_t shards = engine.num_shards();
  s.peers.ensure(n);
  if (s.done.size() < shards) s.done.resize(shards);
  const std::span<std::uint32_t> peers = s.peers.span(n);
  const std::span<std::uint8_t> done(s.done.data(), shards);

  std::vector<T> shard_best(shards);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        T best = cur[begin];
        for (std::uint32_t v = begin + 1; v < end; ++v) {
          best = join(best, cur[v]);
        }
        shard_best[engine.shard_of(begin)] = best;
      });
  T target = shard_best[0];
  for (std::size_t i = 1; i < shards; ++i) {
    target = join(target, shard_best[i]);
  }

  SpreadRun<T> out;
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        std::uint8_t flag = 1;
        for (std::uint32_t v = begin; v < end; ++v) {
          if (cur[v] != target) {
            flag = 0;
            break;
          }
        }
        done[engine.shard_of(begin)] = flag;
      });
  const auto all_done = [&] {
    return std::all_of(done.begin(), done.end(),
                       [](std::uint8_t f) { return f != 0; });
  };

  for (std::uint64_t r = 0; r < max_rounds; ++r) {
    if (all_done()) {
      out.converged = true;
      break;
    }
    engine.pull_round(bits_per_message, peers);
    ++out.rounds;
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          constexpr std::uint32_t kAhead = 16;
          std::uint8_t flag = 1;
          for (std::uint32_t v = begin; v < end; ++v) {
            // The peer lane is already materialised (pull_round filled it),
            // so a simple lookahead prefetch hides the random gather.
            if (v + kAhead < end) {
              const std::uint32_t ahead = peers[v + kAhead];
              if (ahead != Engine::kNoPeer) prefetch_read(&cur[ahead]);
            }
            const std::uint32_t p = peers[v];
            next[v] = p != Engine::kNoPeer ? join(cur[v], cur[p]) : cur[v];
            if (next[v] != target) flag = 0;
          }
          done[engine.shard_of(begin)] = flag;
        });
    std::swap(cur, next);
  }
  if (!out.converged) out.converged = all_done();
  out.values = cur;
  return out;
}

// The loop on the payloads themselves.
template <typename T, typename Join>
GenericSpreadResult<T> spread_payloads(Engine& engine, SpreadScratch& s,
                                       std::vector<T> cur, Join join,
                                       std::uint64_t bits_per_message,
                                       std::uint64_t max_rounds) {
  std::vector<T> next(cur.size());
  const SpreadRun<T> run =
      spread_rounds(engine, s, std::span<T>(cur), std::span<T>(next), join,
                    bits_per_message, max_rounds);
  if (run.values.data() == next.data()) cur.swap(next);
  return {std::move(cur), run.rounds, run.converged};
}

// Key payloads on one shard: one rank lane.
template <typename Join>
GenericSpreadResult<Key> spread_ranks(Engine& engine, SpreadScratch& s,
                                      std::vector<Key> cur, Join join,
                                      std::uint64_t bits_per_message,
                                      std::uint64_t max_rounds) {
  const std::uint32_t n = engine.size();
  s.ranks.ensure(2 * std::size_t{n});
  const std::span<std::uint32_t> lanes = s.ranks.span(2 * std::size_t{n});
  s.interner.intern(cur, lanes.first(n));
  const SpreadRun<std::uint32_t> run =
      spread_rounds(engine, s, lanes.first(n), lanes.last(n), rank_join(join),
                    bits_per_message, max_rounds);
  const std::span<const Key> table = s.interner.table();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          cur[v] = table[run.values[v]];
        }
      });
  return {std::move(cur), run.rounds, run.converged};
}

// MinMaxKeys payloads on one shard: one rank-pair lane, both lanes
// interned into one table.
GenericSpreadResult<MinMaxKeys> spread_ranks(Engine& engine, SpreadScratch& s,
                                             std::vector<MinMaxKeys> cur,
                                             MinMaxJoin,
                                             std::uint64_t bits_per_message,
                                             std::uint64_t max_rounds) {
  const std::uint32_t n = engine.size();
  const std::size_t lane_keys = 2 * std::size_t{n};
  s.ranks.ensure(lane_keys);
  s.pairs.ensure(lane_keys);
  const std::span<std::uint32_t> ranks = s.ranks.span(lane_keys);
  const std::span<RankPair> lanes = s.pairs.span(lane_keys);
  s.interner.intern(MinMaxLanes{cur}, ranks);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          const std::size_t i = 2 * std::size_t{v};
          lanes[v] = RankPair{ranks[i], ranks[i + 1]};
        }
      });
  const SpreadRun<RankPair> run =
      spread_rounds(engine, s, lanes.first(n), lanes.last(n), RankPairJoin{},
                    bits_per_message, max_rounds);
  const std::span<const Key> table = s.interner.table();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          cur[v] = MinMaxKeys{table[run.values[v].min],
                              table[run.values[v].max]};
        }
      });
  return {std::move(cur), run.rounds, run.converged};
}

}  // namespace

template <typename T, typename Join>
GenericSpreadResult<T> spread_best(Engine& engine, std::vector<T> cur,
                                   Join join, std::uint64_t bits_per_message,
                                   std::uint64_t max_rounds) {
  GQ_SPAN("agg/spread");
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(cur.size() == n, "one payload per node required");
  if (max_rounds == 0) {
    max_rounds = spread_rounds_cap(n, engine.failures());
  }
  SpreadScratch& s = engine.scratch<SpreadScratch>();
  if constexpr (std::is_same_v<T, Key> || std::is_same_v<T, MinMaxKeys>) {
    if (engine.num_shards() == 1) {
      return spread_ranks(engine, s, std::move(cur), join, bits_per_message,
                          max_rounds);
    }
  }
  return spread_payloads(engine, s, std::move(cur), join, bits_per_message,
                         max_rounds);
}

template GenericSpreadResult<Key> spread_best(Engine&, std::vector<Key>,
                                              KeepBetter<std::less<Key>>,
                                              std::uint64_t, std::uint64_t);
template GenericSpreadResult<Key> spread_best(Engine&, std::vector<Key>,
                                              KeepBetter<std::greater<Key>>,
                                              std::uint64_t, std::uint64_t);
template GenericSpreadResult<MinMaxKeys> spread_best(Engine&,
                                                     std::vector<MinMaxKeys>,
                                                     MinMaxJoin, std::uint64_t,
                                                     std::uint64_t);
template GenericSpreadResult<pivot_detail::PriorityKey> spread_best(
    Engine&, std::vector<pivot_detail::PriorityKey>,
    KeepBetter<pivot_detail::PriorityLess>, std::uint64_t, std::uint64_t);

// ---- push-sum round kernel: in-place fold on one shard, scatter on several
//
// The batched twin of agg/push_sum.hpp's push_sum_average_multi: per round,
// every node halves its masses and pushes one half; each destination adds
// its incoming halves in ascending sender order and commits them once — the
// exact floating-point fold order of the sequential for-loop.
//
// On a one-shard engine the send section is a single task that walks the
// senders in ascending order, so it already produces that order: the send
// loop adds each half straight into inflow[dest], and one pass after it
// commits and re-zeroes the accumulators.  No mailbox, no delivery section.
// With several shards the halves go through the scatter, which delivers
// each destination's records in ascending sender order.  The path follows
// the shard count, not the thread count: at threads = 1 (4-vCPU Xeon VM,
// 62-80-round counts) the in-place fold ran 1.7x faster at n = 2^14 and
// 2^16, even at 2^18, and 2x slower at 2^20, where its random
// read-modify-write over a 16 MB accumulator loses to the scatter's
// cache-sized partitions.  At the default shard_size only n <= 2^14 has
// one shard.
//
// Both paths share one send loop, which draws every node's peer each round
// and takes the failure coin through with_fault_coin (sim/executor.hpp):
// failure-free runs compile the coin out, because even never taken, its
// call makes the loop reload its state around every node.
//
// Working state is engine-pooled (Engine::scratch) and first-touch
// initialized: each shard's slice of the arrays is first written by the
// worker that owns the shard, and the per-destination accumulators by their
// partition's delivery task — so repeated counting stages reuse warm,
// NUMA-local pages instead of re-allocating n-sized vectors per call.
//
// A node's value masses and weight mass live in ONE struct, not parallel
// arrays: the fold makes two random-indexed accesses per message (read the
// sender's pair, bump the destination's accumulator pair), and keeping each
// pair on one cache line instead of two halves the lines the L2 has to
// serve on the hottest loop of the counting stages.
namespace {

template <std::size_t D>
struct PushSumScratch {
  struct Pair {
    std::array<double, D> s;
    double w;
  };
  FirstTouchBuffer<Pair> state;   // each node's current (s, w)
  FirstTouchBuffer<Pair> inflow;  // accumulated incoming masses
};

}  // namespace

template <std::size_t D>
MultiPushSumResult<D> push_sum_average_multi(
    Engine& engine, std::span<const std::array<double, D>> x,
    std::uint64_t rounds) {
  GQ_SPAN("agg/push_sum");
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(x.size() == n, "one input vector per node required");
  if (rounds == 0) rounds = push_sum_rounds_for_exact(n, engine.failures());
  const std::uint64_t bits = push_sum_message_bits(D);

  using Pair = typename PushSumScratch<D>::Pair;
  auto& scratch = engine.scratch<PushSumScratch<D>>();
  scratch.state.ensure(n);
  scratch.inflow.ensure(n);
  const std::span<Pair> state = scratch.state.span(n);
  const std::span<Pair> inflow = scratch.inflow.span(n);
  const bool in_place = engine.num_shards() == 1;
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          state[v].s = x[v];
          state[v].w = 1.0;
          // The scatter's delivery prologue zeroes inflow every round (and
          // first-touches each slice from its partition task); the in-place
          // fold zeroes it here and in every commit.
          if (in_place) inflow[v] = Pair{};
        }
      });

  // The halve-and-send loop of one shard, fused with the peer draw (the
  // batched twin of push_round — same per-node stream derivation, same
  // per-shard message accounting); emit(dest, half) takes each half.
  const auto send_shard = [&](std::uint32_t begin, std::uint32_t end,
                              Metrics& local, auto&& emit) {
    engine.with_fault_coin([&](auto coin) {
      std::uint64_t sent = 0;
      for (std::uint32_t v = begin; v < end; ++v) {
        if (coin && engine.node_fails(v)) {  // failed: keeps whole pair
          ++local.failed_operations;
          continue;
        }
        SplitMix64 stream = engine.node_stream(v);
        const std::uint32_t d = engine.sample_peer(v, stream);
        ++sent;
        for (std::size_t j = 0; j < D; ++j) state[v].s[j] *= 0.5;
        state[v].w *= 0.5;
        emit(d, state[v]);
      }
      local.record_messages(sent, bits);
    });
  };
  const auto fold = [&](std::uint32_t dest, const Pair& m) {
    for (std::size_t j = 0; j < D; ++j) inflow[dest].s[j] += m.s[j];
    inflow[dest].w += m.w;
  };
  const auto commit = [&](std::uint32_t v) {
    for (std::size_t j = 0; j < D; ++j) state[v].s[j] += inflow[v].s[j];
    state[v].w += inflow[v].w;
  };

  if (in_place) {
    // One parallel section per round: the single shard task sends, folds
    // and commits.
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.begin_round();
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
            send_shard(begin, end, local, fold);
            for (std::uint32_t v = begin; v < end; ++v) {
              commit(v);
              inflow[v] = Pair{};
            }
          });
    }
  } else {
    // Two parallel sections per round: send, then delivery, whose prologue
    // zeroes the partition's accumulators and whose epilogue commits them
    // while they are cache-resident.  Messages carry the halved pair inline
    // — a pure streaming read on delivery — and the fold touches exactly
    // one random-indexed accumulator Pair per message.
    Scatter<Pair> scatter(engine);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      engine.begin_round();
      scatter.begin_round();
      engine.parallel_shards(
          [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
            auto out = scatter.sender_for(begin);
            send_shard(begin, end, local,
                       [&](std::uint32_t d, const Pair& half) {
                         out.send(d, half);
                       });
          });
      scatter.deliver_prefetch(
          engine,
          [&](std::uint32_t first, std::uint32_t last) {
            for (std::uint32_t v = first; v < last; ++v) inflow[v] = Pair{};
          },
          fold,
          [&](std::uint32_t first, std::uint32_t last) {
            for (std::uint32_t v = first; v < last; ++v) commit(v);
          },
          // The fold's one random-indexed access: the destination's inflow
          // Pair.  Issued a few records ahead by the delivery walk.
          [&](std::uint32_t dest) { prefetch_read(&inflow[dest]); });
    }
  }

  MultiPushSumResult<D> out;
  out.rounds = rounds;
  out.estimates.resize(n);
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          for (std::size_t j = 0; j < D; ++j) {
            out.estimates[v][j] = state[v].s[j] / state[v].w;
          }
        }
      });
  return out;
}

template MultiPushSumResult<1> push_sum_average_multi<1>(
    Engine&, std::span<const std::array<double, 1>>, std::uint64_t);
template MultiPushSumResult<3> push_sum_average_multi<3>(
    Engine&, std::span<const std::array<double, 3>>, std::uint64_t);

// ---- token split ----------------------------------------------------------

namespace {

// Engine-pooled working state of the batched token split: the flat token
// store plus the incrementally maintained counters that replace the
// sequential version's per-round full rescans.  heavy counts track tokens
// with weight > 1 (Phase A's continuation condition), crowded counts track
// nodes holding >= 2 tokens (Phase B's).  Per-shard counters are atomics
// because delivery tasks are partitioned by *destination* range, which
// need not align with shard boundaries; only their sums are observed
// (after a section barrier), so relaxed updates stay deterministic.
struct TokenSplitScratch {
  TokenStore store;
  FirstTouchBuffer<std::uint32_t> heavy_node;  // heavy tokens held per node
  std::unique_ptr<std::atomic<std::int64_t>[]> heavy_shard;
  std::unique_ptr<std::atomic<std::int64_t>[]> crowded_shard;
  std::size_t shard_capacity = 0;

  void ensure_shards(std::size_t shards) {
    if (shards <= shard_capacity) return;
    heavy_shard = std::make_unique<std::atomic<std::int64_t>[]>(shards);
    crowded_shard = std::make_unique<std::atomic<std::int64_t>[]>(shards);
    shard_capacity = shards;
  }
};

}  // namespace

TokenSplitResult token_split_distribute(Engine& engine,
                                        std::span<const Key> inst,
                                        std::uint64_t multiplier,
                                        std::uint64_t tag_base) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(inst.size() == n, "one key per node required");
  GQ_REQUIRE(multiplier >= 1 && std::has_single_bit(multiplier),
             "multiplier must be a power of two");

  std::uint64_t finite = 0;
  for (const Key& k : inst) finite += k != Key::infinite() ? 1 : 0;
  GQ_REQUIRE(finite >= 1, "token split needs at least one valued node");
  GQ_REQUIRE(multiplier * finite <= 4ull * n / 5 + 1,
             "token count must leave >= n/5 nodes free for scattering");

  const std::size_t shards = engine.num_shards();
  auto& scratch = engine.scratch<TokenSplitScratch>();
  TokenStore& held = scratch.store;
  held.ensure(n);
  scratch.heavy_node.ensure(n);
  scratch.ensure_shards(shards);
  const std::span<std::uint32_t> heavy_node = scratch.heavy_node.span(n);
  const auto heavy_shard = scratch.heavy_shard.get();
  const auto crowded_shard = scratch.crowded_shard.get();
  for (std::size_t s = 0; s < shards; ++s) {
    crowded_shard[s].store(0, std::memory_order_relaxed);
  }

  // Mint one token per valued node, from its owning shard (clear_node also
  // first-touches the node's slots on that worker).  Every minted token is
  // heavy unless the multiplier is already 1.
  const bool mint_heavy = multiplier > 1;
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        std::int64_t heavy = 0;
        for (std::uint32_t v = begin; v < end; ++v) {
          held.clear_node(v);
          heavy_node[v] = 0;
          if (inst[v] != Key::infinite()) {
            held.push_back(v, Token{inst[v], multiplier});
            if (mint_heavy) {
              heavy_node[v] = 1;
              ++heavy;
            }
          }
        }
        heavy_shard[engine.shard_of(begin)].store(
            heavy, std::memory_order_relaxed);
      });

  TokenSplitResult out;
  out.token_count = multiplier * finite;
  const std::uint64_t bits = token_message_bits(n, multiplier);
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n)));
  const std::uint64_t round_cap = 64 * log2n + 512;

  const auto counter_total = [shards](const std::atomic<std::int64_t>* arr) {
    std::int64_t total = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      total += arr[s].load(std::memory_order_relaxed);
    }
    return total;
  };

  Scatter<Token> scatter(engine);
  // Delivery fold of both phases: append in ascending sender order (the
  // sequential order) and roll the incremental counters forward.  A
  // delivered heavy token raises its destination's heavy counts; a second
  // token on a node makes that node crowded.  The fold's random-indexed
  // lines (the destination's token slots and heavy count) are prefetched a
  // few records ahead by the delivery walk.
  const auto touch_token_dest = [&](std::uint32_t dest) {
    held.prefetch_node(dest);
    prefetch_read(&heavy_node[dest]);
  };
  const auto append_token = [&](std::uint32_t dest, const Token& t) {
    const std::uint32_t before = held.size(dest);
    held.push_back(dest, t);
    if (t.weight > 1) {
      ++heavy_node[dest];
      heavy_shard[engine.shard_of(dest)].fetch_add(1,
                                                  std::memory_order_relaxed);
    }
    if (before == 1) {
      crowded_shard[engine.shard_of(dest)].fetch_add(
          1, std::memory_order_relaxed);
    }
  };

  // Phase A: halve weights.  Each round a node splits at most one of its
  // weight>1 tokens; the pushed half travels to a uniform node.  A failed
  // operation leaves the token whole (the Section-5.2 merge-back).  The
  // continuation condition "any heavy token anywhere" reads the maintained
  // counters — no rescan of n token lists per round — and shards whose
  // heavy count is zero skip their node loop outright (their nodes would
  // all fall through the sequential find-first-heavy check).
  while (true) {
    if (counter_total(heavy_shard) == 0) break;
    if (out.rounds > round_cap) {
      throw std::runtime_error("token splitting did not converge");
    }

    engine.begin_round();
    ++out.rounds;
    scatter.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          const std::size_t sidx = engine.shard_of(begin);
          if (heavy_shard[sidx].load(std::memory_order_relaxed) == 0) return;
          auto out = scatter.sender_for(begin);
          std::uint64_t sent = 0;
          std::int64_t heavy_delta = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (heavy_node[v] == 0) continue;
            if (engine.node_fails(v)) {
              ++local.failed_operations;
              continue;
            }
            SplitMix64 stream = engine.node_stream(v);
            const std::uint32_t dest = engine.sample_peer(v, stream);
            std::uint32_t i = 0;
            while (held.at(v, i).weight <= 1) ++i;  // first heavy token
            Token& tok = held.at(v, i);
            tok.weight /= 2;
            if (tok.weight == 1) {
              --heavy_node[v];
              --heavy_delta;
            }
            out.send(dest, Token{tok.key, tok.weight});
            ++sent;
          }
          heavy_shard[sidx].fetch_add(heavy_delta,
                                      std::memory_order_relaxed);
          local.record_messages(sent, bits);
        });
    scatter.deliver_prefetch(engine, append_token, touch_token_dest);
  }

  // Phase B: scatter weight-1 tokens until every node holds at most one.
  // Same counter treatment: the crowded counts gate the loop and let
  // all-settled shards skip their node loop.
  while (true) {
    if (counter_total(crowded_shard) == 0) break;
    if (out.rounds > 4 * round_cap) {
      throw std::runtime_error("token scattering did not converge");
    }

    engine.begin_round();
    ++out.rounds;
    scatter.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          const std::size_t sidx = engine.shard_of(begin);
          if (crowded_shard[sidx].load(std::memory_order_relaxed) == 0) {
            return;
          }
          auto out = scatter.sender_for(begin);
          std::uint64_t sent = 0;
          std::int64_t crowded_delta = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (held.size(v) < 2) continue;
            if (engine.node_fails(v)) {
              ++local.failed_operations;
              continue;
            }
            SplitMix64 stream = engine.node_stream(v);
            const std::uint32_t dest = engine.sample_peer(v, stream);
            out.send(dest, held.back(v));
            held.pop_back(v);
            if (held.size(v) == 1) --crowded_delta;
            ++sent;
          }
          crowded_shard[sidx].fetch_add(crowded_delta,
                                        std::memory_order_relaxed);
          local.record_messages(sent, bits);
        });
    scatter.deliver_prefetch(engine, append_token, touch_token_dest);
  }

  out.instance.assign(n, Key::infinite());
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          if (held.size(v) == 0) continue;
          const Token& t = held.front(v);
          out.instance[v] = Key{t.key.value, t.key.id, tag_base + v};
        }
      });
  return out;
}

}  // namespace gq
