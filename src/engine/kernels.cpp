#include "engine/kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <span>
#include <utility>
#include <vector>

#include "sim/key_intern.hpp"
#include "sim/streams.hpp"
#include "util/prefetch.hpp"
#include "util/require.hpp"

namespace gq {
namespace {

// Lookahead distance for gather loops whose index lane is walked linearly
// (lane exports, verify passes, coverage finish): far enough to cover the
// miss latency, close enough that the touched line is still resident when
// the loop reaches it.
constexpr std::uint32_t kPrefetchAhead = 16;

// ---- compact interned state lanes -----------------------------------------
//
// Every tournament-shaped kernel runs on 32-bit rank lanes instead of
// Key-typed buffers, at every n: the state's distinct keys are interned
// once into a sorted table (sim/key_intern.hpp) and the ping-pong buffers
// hold ranks.  Rank order is key order, so min/max/median commits decide
// identically — what changes is that a round's random peer gather touches
// a 4-byte lane entry (16 per cache line) instead of a Key-sized record,
// which at n = 10^6..10^7 is the difference between latency-bound misses
// and a prefetchable stream, and that the final K-sample median runs as a
// branch-free comparator network over ranks (rank_median).
//
// The session fields let consecutive kernels of one pipeline (two- then
// three-tournament; robust two then robust three) skip the re-intern:
// a kernel exports table[lane] back into the caller's vector on
// exit and records that lane A still encodes it; the next kernel VERIFIES
// the claim with one exact parallel compare pass (state[v] == table[lane[v]]
// for all v) and re-interns only on mismatch.  The check is exact — there
// is no hash shortcut to collide — so a caller mutating its state between
// kernel calls simply pays a fresh intern, never a wrong answer.
struct LaneScratch {
  KeyInterner interner;
  std::vector<std::uint32_t> lane_a, lane_b;  // rank ping-pong (A is live)
  std::vector<std::uint8_t> shard_ok;         // verify-pass per-shard flags
  bool session = false;      // lane A encodes the last exported state
  std::uint32_t session_n = 0;

  void ensure(std::uint32_t n, std::size_t shards) {
    if (lane_a.size() < n) lane_a.resize(n);
    if (shard_ok.size() < shards) shard_ok.resize(shards);
  }

  // Lane B, sized only by the kernels that ping-pong on it (the robust
  // kernels and median_rule_keys): the tournaments run on MultiLaneScratch,
  // so failure-free runs never hold it.
  std::span<std::uint32_t> back_lane(std::uint32_t n) {
    if (lane_b.size() < n) lane_b.resize(n);
    return {lane_b.data(), n};
  }
};

// Puts `state` into lane A as ranks, reusing the previous session's table
// and lane when the verify pass proves them current (one gather pass, ~one
// round's cost) and re-interning otherwise (one radix sort, amortised over
// the dozens of gather rounds the lanes then serve).
void lane_import(Engine& engine, std::span<const Key> state, LaneScratch& s) {
  const auto n = static_cast<std::uint32_t>(state.size());
  s.ensure(n, engine.num_shards());
  if (s.session && s.session_n == n) {
    const std::span<const Key> table = s.interner.table();
    const std::uint32_t* const lane = s.lane_a.data();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          std::uint8_t ok = 1;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (v + kPrefetchAhead < end) {
              prefetch_read(&table[lane[v + kPrefetchAhead]]);
            }
            if (state[v] != table[lane[v]]) {
              ok = 0;
              break;
            }
          }
          s.shard_ok[engine.shard_of(begin)] = ok;
        });
    bool all = true;
    for (std::size_t sh = 0; sh < engine.num_shards(); ++sh) {
      all = all && s.shard_ok[sh] != 0;
    }
    if (all) return;
  }
  s.interner.intern(state, std::span<std::uint32_t>(s.lane_a.data(), n));
  s.session = true;
  s.session_n = n;
}

// Writes table[lane A] back into the caller's state.  Lane A still encodes
// the exported state afterwards, which is exactly the session claim the
// next lane_import verifies.
void lane_export(Engine& engine, LaneScratch& s, std::span<Key> state) {
  const std::span<const Key> table = s.interner.table();
  const std::uint32_t* const lane = s.lane_a.data();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          if (v + kPrefetchAhead < end) {
            prefetch_read(&table[lane[v + kPrefetchAhead]]);
          }
          state[v] = table[lane[v]];
        }
      });
}

// Restores the "lane A is live" invariant after a kernel's ping-pong swaps.
void lane_settle(LaneScratch& s, std::span<const std::uint32_t> cur) {
  if (cur.data() != s.lane_a.data()) s.lane_a.swap(s.lane_b);
}

// Engine-pooled per-round peer-pick lanes (uninitialized first-touch
// storage: each lane slot is written by its owning shard every round before
// any read).  `wide` backs the per-shard pick+sample slices of the fused
// K-sampling step when K exceeds the stack buffer.
struct PickScratch {
  FirstTouchBuffer<std::uint32_t> p0, p1, p2;
  std::vector<std::uint32_t> wide;

  void ensure(std::uint32_t n) {
    p0.ensure(n);
    p1.ensure(n);
    p2.ensure(n);
  }
  void ensure_wide(std::size_t slots) {
    if (wide.size() < slots) wide.resize(slots);
  }
};

// One median-of-three rule for every executor and kernel: the shared
// robust_detail::median3 (core/robust_pipeline.hpp), so a tie-break tweak
// cannot diverge the bit-identity twins.
using robust_detail::median3;

// Pooled Key-typed ping-pong buffers: the median rule's representation for
// short runs (see median_rule_keys), where one intern would cost about as
// much as the handful of rounds it speeds up.
struct KeyPairScratch {
  std::vector<Key> a, b;

  void ensure(std::uint32_t n) {
    if (a.size() < n) a.resize(n);
    if (b.size() < n) b.resize(n);
  }
};

// Sharded copy of a key span into a pooled Key buffer.
void copy_keys(Engine& engine, std::span<const Key> from, std::span<Key> to) {
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) to[v] = from[v];
      });
}

// The round mechanics of the median rule, templated over the state
// representation: T = std::uint32_t (interned rank lanes) or Key (pooled
// AoS buffers).  Both run the same blocked draw/prefetch/commit structure
// with identical per-node draw order and Metrics, so the representation is
// unobservable.  Returns the buffer holding the final state (the ping-pong
// may end on either).
template <typename T>
const T* median_rule_rounds(Engine& engine, std::span<T> cur,
                            std::span<T> next,
                            std::span<std::uint32_t> first,
                            std::span<std::uint32_t> second,
                            std::uint64_t iterations, std::uint64_t bits) {
  const std::uint32_t block = engine.gather_block();
  for (std::uint64_t it = 0; it < iterations; ++it) {
    // First round of the iteration: the first sample.  Pure pick pass — no
    // gathers — so no blocking is needed; `cur` stays immutable until the
    // commit and doubles as the iteration-start snapshot.
    engine.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          std::uint64_t sent = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            if (engine.node_fails(v)) {
              ++local.failed_operations;
              first[v] = Engine::kNoPeer;
              continue;
            }
            SplitMix64 stream = engine.node_stream(v);
            first[v] = engine.sample_peer(v, stream);
            ++sent;
          }
          local.record_messages(sent, bits);
        });

    // Second round: the second sample with the commit fused in, blocked —
    // per block the draws land first, then prefetches over both gather
    // targets, then the median commit against warm lines.  A node whose
    // first pull failed has lost the iteration and skips its second pull,
    // as in baselines/median_rule.cpp; a failed second pull also keeps the
    // node's value.
    engine.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          std::uint64_t sent = 0;
          for (std::uint32_t b0 = begin; b0 < end; b0 += block) {
            const std::uint32_t b1 = std::min(b0 + block, end);
            for (std::uint32_t v = b0; v < b1; ++v) {
              if (first[v] == Engine::kNoPeer || engine.node_fails(v)) {
                if (first[v] != Engine::kNoPeer) ++local.failed_operations;
                second[v] = Engine::kNoPeer;
                continue;
              }
              SplitMix64 stream = engine.node_stream(v);
              second[v] = engine.sample_peer(v, stream);
              ++sent;
            }
            for (std::uint32_t v = b0; v < b1; ++v) {
              if (first[v] != Engine::kNoPeer) prefetch_read(&cur[first[v]]);
              if (second[v] != Engine::kNoPeer) {
                prefetch_read(&cur[second[v]]);
              }
            }
            for (std::uint32_t v = b0; v < b1; ++v) {
              if (first[v] == Engine::kNoPeer ||
                  second[v] == Engine::kNoPeer) {
                next[v] = cur[v];
                continue;
              }
              const T& a = cur[first[v]];
              const T& b = cur[second[v]];
              next[v] = median3(a, b, cur[v]);
            }
          }
          local.record_messages(sent, bits);
        });
    std::swap(cur, next);
  }
  return cur.data();
}

}  // namespace

MedianRuleResult median_rule_keys(Engine& engine, std::span<const Key> keys,
                                  const MedianRuleParams& params) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");

  MedianRuleResult out;
  out.iterations = median_rule_iterations(n, params);
  out.rounds = 2 * out.iterations;
  const std::uint64_t bits = key_bits(n);
  auto& picks = engine.scratch<PickScratch>();
  picks.ensure(n);
  const std::span<std::uint32_t> first = picks.p0.span(n);
  const std::span<std::uint32_t> second = picks.p1.span(n);

  // Representation choice: callers often run a tiny iteration count (the
  // scale benches run 2-3), and at n = 2^20 a 3-iteration run on Key
  // buffers costs about what the intern alone does.  Short runs therefore
  // stay on pooled Key buffers, where the blocked prefetch still hides the
  // gather latency; longer runs intern.  The representation is
  // unobservable (same draws, same commit rule, same Metrics), so the
  // threshold is pure tuning.
  constexpr std::uint64_t kInternMinIterations = 8;
  if (out.iterations >= kInternMinIterations) {
    auto& lanes = engine.scratch<LaneScratch>();
    lane_import(engine, keys, lanes);
    const std::uint32_t* live = median_rule_rounds<std::uint32_t>(
        engine, {lanes.lane_a.data(), n}, lanes.back_lane(n), first,
        second, out.iterations, bits);
    lane_settle(lanes, std::span<const std::uint32_t>(live, n));
    out.outputs.resize(n);
    lane_export(engine, lanes, out.outputs);
    return out;
  }

  auto& buffers = engine.scratch<KeyPairScratch>();
  buffers.ensure(n);
  copy_keys(engine, keys, {buffers.a.data(), n});
  const Key* live = median_rule_rounds<Key>(engine, {buffers.a.data(), n},
                                            {buffers.b.data(), n}, first,
                                            second, out.iterations, bits);
  // Hand the live buffer to the caller instead of copying it out; the next
  // short run regrows it.
  std::vector<Key>& final_state =
      live == buffers.a.data() ? buffers.a : buffers.b;
  out.outputs = std::exchange(final_state, {});
  return out;
}

// ---- shared-schedule lane kernels -----------------------------------------

namespace {

// The q-lane rank matrices of the shared schedule: node v's lane l lives at
// mat[v * q + l], so one node's whole vector is contiguous
// (q <= kMaxSharedLanes = 64 lanes = at most four cache lines) and a peer
// gather prefetches rows, not scattered entries.  Ping-pong like the
// robust kernels' lanes: the live matrix is the iteration-start snapshot,
// commits write the other.  `tmask` carries each node's Round-B tournament
// lane bitmask from the draw pass to the commit pass; a one-lane run keeps
// none, because whether its second pull was drawn is the mask.
struct MultiLaneScratch {
  std::vector<std::uint32_t> mat_a, mat_b;
  std::vector<std::uint64_t> tmask;
  std::uint32_t q = 0;
  bool a_live = true;

  void ensure(std::uint32_t n, std::uint32_t q_lanes) {
    const std::size_t cells = static_cast<std::size_t>(n) * q_lanes;
    if (mat_a.size() < cells) {
      mat_a.resize(cells);
      mat_b.resize(cells);
    }
    if (q_lanes > 1 && tmask.size() < n) tmask.resize(n);
  }
  [[nodiscard]] std::uint32_t* live() {
    return a_live ? mat_a.data() : mat_b.data();
  }
  [[nodiscard]] std::uint32_t* spare() {
    return a_live ? mat_b.data() : mat_a.data();
  }
};

// Every lane kernel is compiled twice: Q = 1 for the single-target
// pipeline, whose lane loops and row strides then fold away, and Q = 0 for
// a lane count read at run time.  The count the run began with picks the
// instance.  The shard lambdas run out of line behind the pool's dispatch,
// so each reads the count itself: a captured local would reach them as a
// run-time load even at Q = 1.
template <std::uint32_t Q>
std::uint32_t lane_count(const MultiLaneScratch& s) {
  return Q != 0 ? Q : s.q;
}

// Prefetches a node's whole q-lane row (one line per 16 lanes).
inline void prefetch_lane_row(const std::uint32_t* row, std::uint32_t q) {
  for (std::uint32_t off = 0; off < q; off += 16) prefetch_read(row + off);
}

template <std::uint32_t Q>
void two_iteration(Engine& engine, MultiLaneScratch& s,
                   std::span<const MultiLaneStep> steps) {
  auto& picks = engine.scratch<PickScratch>();
  const std::uint32_t n = engine.size();
  const std::uint64_t bits = key_bits(n);
  std::uint64_t active = 0;
  for (const MultiLaneStep& st : steps) active += st.active ? 1 : 0;
  const std::span<std::uint32_t> first = picks.p0.span(n);
  const std::span<std::uint32_t> second = picks.p1.span(n);
  const std::uint32_t* const cur = s.live();
  std::uint32_t* const next = s.spare();
  std::uint64_t* const tmask = s.tmask.data();
  const std::uint32_t block = engine.gather_block();

  // Round A: one shared first sample per node; the message carries the
  // active lanes.  Pick pass only — `cur` is the iteration snapshot.
  engine.begin_round();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
        for (std::uint32_t v = begin; v < end; ++v) {
          SplitMix64 stream = engine.node_stream(v);
          first[v] = engine.sample_peer(v, stream);
        }
        local.record_messages(end - begin, active * bits);
      });

  // Round B: per-lane delta coins in lane order (delta >= 1.0 consumes no
  // draw, as in the sequential path), one shared second sample when any
  // lane tournaments, then the blocked per-lane commit against warm rows.
  // Messages are bucketed by tournament-lane count in per-shard
  // accumulators and flushed once per bucket.
  engine.begin_round();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
        const std::uint32_t q = lane_count<Q>(s);
        std::uint64_t counts[(Q != 0 ? Q : kMaxSharedLanes) + 1] = {};
        for (std::uint32_t b0 = begin; b0 < end; b0 += block) {
          const std::uint32_t b1 = std::min(b0 + block, end);
          for (std::uint32_t v = b0; v < b1; ++v) {
            SplitMix64 stream = engine.node_stream(v);
            std::uint64_t mask = 0;
            for (std::uint32_t l = 0; l < q; ++l) {
              if (!steps[l].active) continue;
              const bool tournament =
                  steps[l].delta >= 1.0 ||
                  rand_bernoulli(stream, steps[l].delta);
              if (tournament) mask |= std::uint64_t{1} << l;
            }
            if constexpr (Q != 1) tmask[v] = mask;
            const auto t = static_cast<std::uint32_t>(std::popcount(mask));
            ++counts[t];
            second[v] =
                t > 0 ? engine.sample_peer(v, stream) : Engine::kNoPeer;
          }
          for (std::uint32_t v = b0; v < b1; ++v) {
            prefetch_lane_row(
                cur + static_cast<std::size_t>(first[v]) * q, q);
            if (second[v] != Engine::kNoPeer) {
              prefetch_lane_row(
                  cur + static_cast<std::size_t>(second[v]) * q, q);
            }
          }
          for (std::uint32_t v = b0; v < b1; ++v) {
            const std::uint32_t* const fa =
                cur + static_cast<std::size_t>(first[v]) * q;
            const std::uint32_t* const sa =
                second[v] != Engine::kNoPeer
                    ? cur + static_cast<std::size_t>(second[v]) * q
                    : nullptr;
            const std::uint32_t* const own =
                cur + static_cast<std::size_t>(v) * q;
            std::uint32_t* const out =
                next + static_cast<std::size_t>(v) * q;
            const std::uint64_t mask =
                Q == 1 ? std::uint64_t{sa != nullptr} : tmask[v];
            for (std::uint32_t l = 0; l < q; ++l) {
              if (!steps[l].active) {
                out[l] = own[l];  // finished lane keeps its value
              } else if ((mask >> l) & 1) {
                out[l] = steps[l].suppress_high ? std::min(fa[l], sa[l])
                                                : std::max(fa[l], sa[l]);
              } else {
                out[l] = fa[l];
              }
            }
          }
        }
        for (std::uint32_t t = 1; t <= q; ++t) {
          local.record_messages(counts[t], t * bits);
        }
      });
  s.a_live = !s.a_live;
}

template <std::uint32_t Q>
void three_iteration(Engine& engine, MultiLaneScratch& s) {
  auto& picks = engine.scratch<PickScratch>();
  const std::uint32_t n = engine.size();
  const std::uint64_t bits = key_bits(n);
  const std::array<std::span<std::uint32_t>, 3> pk = {
      picks.p0.span(n), picks.p1.span(n), picks.p2.span(n)};
  const std::uint32_t* const cur = s.live();
  std::uint32_t* const next = s.spare();
  const std::uint32_t block = engine.gather_block();

  // Three shared pulls = three rounds reading the iteration-start matrix;
  // every message carries the full q-lane vector.  The first two are pure
  // pick passes; the third is blocked with the per-lane median commit
  // fused in against warm rows.
  for (int pull = 0; pull < 3; ++pull) {
    engine.begin_round();
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          const std::uint32_t q = lane_count<Q>(s);
          const auto& out_picks = pk[static_cast<std::size_t>(pull)];
          if (pull < 2) {
            for (std::uint32_t v = begin; v < end; ++v) {
              SplitMix64 stream = engine.node_stream(v);
              out_picks[v] = engine.sample_peer(v, stream);
            }
          } else {
            for (std::uint32_t b0 = begin; b0 < end; b0 += block) {
              const std::uint32_t b1 = std::min(b0 + block, end);
              for (std::uint32_t v = b0; v < b1; ++v) {
                SplitMix64 stream = engine.node_stream(v);
                out_picks[v] = engine.sample_peer(v, stream);
              }
              for (std::uint32_t v = b0; v < b1; ++v) {
                prefetch_lane_row(
                    cur + static_cast<std::size_t>(pk[0][v]) * q, q);
                prefetch_lane_row(
                    cur + static_cast<std::size_t>(pk[1][v]) * q, q);
                prefetch_lane_row(
                    cur + static_cast<std::size_t>(pk[2][v]) * q, q);
              }
              for (std::uint32_t v = b0; v < b1; ++v) {
                const std::uint32_t* const r0 =
                    cur + static_cast<std::size_t>(pk[0][v]) * q;
                const std::uint32_t* const r1 =
                    cur + static_cast<std::size_t>(pk[1][v]) * q;
                const std::uint32_t* const r2 =
                    cur + static_cast<std::size_t>(pk[2][v]) * q;
                std::uint32_t* const out =
                    next + static_cast<std::size_t>(v) * q;
                for (std::uint32_t l = 0; l < q; ++l) {
                  out[l] = median3(r0[l], r1[l], r2[l]);
                }
              }
            }
          }
          local.record_messages(end - begin, q * bits);
        });
  }
  s.a_live = !s.a_live;
}

template <std::uint32_t Q>
void final_sample(Engine& engine, MultiLaneScratch& s,
                  std::uint32_t k_samples,
                  std::vector<std::vector<Key>>& outputs) {
  auto& lanes = engine.scratch<LaneScratch>();
  auto& picks = engine.scratch<PickScratch>();
  const std::uint32_t n = engine.size();
  const std::uint64_t bits = key_bits(n);
  const std::uint32_t* const cur = s.live();

  // Final step: every node samples K values and outputs each lane's
  // median.  The lane state is immutable during these rounds, so the K
  // sampling rounds fuse into one parallel section: the round counter
  // advances K times up front, and each node derives the per-round streams
  // directly — the same (seed, round, v) derivation the per-round kernel
  // would use, so draws and Metrics are bit-identical to K per-round sweeps
  // while the K-pass sample matrix disappears entirely.  Each node's K
  // picks are drawn (and their rows prefetched) before its q per-lane
  // medians fold, so the draw ALU covers the miss latency.
  const std::uint64_t first_sample_round = engine.round() + 1;
  engine.advance_rounds(k_samples);
  outputs.resize(lane_count<Q>(s));
  for (std::vector<Key>& lane : outputs) lane.resize(n);
  constexpr std::uint32_t kMaxStackSamples = 64;
  const std::size_t shards = engine.num_shards();
  const auto wide_k = static_cast<std::size_t>(k_samples);
  if (k_samples > kMaxStackSamples) {
    // Oversized K: per-shard pick and sample slices come from the pooled
    // wide lane, so even this path allocates nothing in steady state.
    picks.ensure_wide(2 * shards * wide_k);
  }
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
        const std::uint32_t q = lane_count<Q>(s);
        std::uint32_t stack_picks[kMaxStackSamples];
        std::uint32_t stack_samples[kMaxStackSamples];
        std::uint32_t* pick = stack_picks;
        std::uint32_t* samp = stack_samples;
        if (k_samples > kMaxStackSamples) {
          const std::size_t shard = engine.shard_of(begin);
          pick = picks.wide.data() + shard * wide_k;
          samp = picks.wide.data() + (shards + shard) * wide_k;
        }
        for (std::uint32_t v = begin; v < end; ++v) {
          for (std::uint32_t j = 0; j < k_samples; ++j) {
            SplitMix64 stream = streams::node_stream(
                engine.seed(), first_sample_round + j, v);
            pick[j] = engine.sample_peer(v, stream);
            prefetch_lane_row(
                cur + static_cast<std::size_t>(pick[j]) * q, q);
          }
          for (std::uint32_t l = 0; l < q; ++l) {
            for (std::uint32_t j = 0; j < k_samples; ++j) {
              samp[j] = cur[static_cast<std::size_t>(pick[j]) * q + l];
            }
            outputs[l][v] =
                lanes.interner.key_at(rank_median(samp, k_samples));
          }
        }
        local.record_messages(
            static_cast<std::uint64_t>(k_samples) * (end - begin),
            q * bits);
      });
}

}  // namespace

void multi_tournament_begin(Engine& engine, std::span<const Key> keys,
                            std::uint32_t lanes) {
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(lanes >= 1 && lanes <= kMaxSharedLanes,
             "lane count must lie in [1, kMaxSharedLanes]");
  GQ_REQUIRE(engine.faultless(),
             "the shared tournament schedule is the failure-free variant; "
             "the pipelines route robust runs per target");
  auto& s = engine.scratch<MultiLaneScratch>();
  auto& ls = engine.scratch<LaneScratch>();
  auto& picks = engine.scratch<PickScratch>();
  s.ensure(n, lanes);
  picks.ensure(n);
  s.q = lanes;
  s.a_live = true;
  // Intern once (or verify a live session), then broadcast each node's
  // base rank across its q lane slots.  Lane A is not touched again before
  // an export, so the session claim it carries stays valid for the next
  // kernel.
  lane_import(engine, keys, ls);
  const std::uint32_t* const base = ls.lane_a.data();
  std::uint32_t* const mat = s.mat_a.data();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          const std::uint32_t r = base[v];
          std::uint32_t* const row =
              mat + static_cast<std::size_t>(v) * lanes;
          for (std::uint32_t l = 0; l < lanes; ++l) row[l] = r;
        }
      });
}

void multi_two_iteration(Engine& engine,
                         std::span<const MultiLaneStep> steps) {
  auto& s = engine.scratch<MultiLaneScratch>();
  GQ_REQUIRE(steps.size() == s.q, "one step per lane required");
  if (s.q == 1) {
    two_iteration<1>(engine, s, steps);
  } else {
    two_iteration<0>(engine, s, steps);
  }
}

void multi_three_iteration(Engine& engine) {
  auto& s = engine.scratch<MultiLaneScratch>();
  if (s.q == 1) {
    three_iteration<1>(engine, s);
  } else {
    three_iteration<0>(engine, s);
  }
}

void multi_final_sample(Engine& engine, std::uint32_t k_samples,
                        std::vector<std::vector<Key>>& outputs) {
  auto& s = engine.scratch<MultiLaneScratch>();
  if (s.q == 1) {
    final_sample<1>(engine, s, k_samples, outputs);
  } else {
    final_sample<0>(engine, s, k_samples, outputs);
  }
}

void multi_lane_export(Engine& engine, std::uint32_t lane,
                       std::span<Key> state) {
  auto& s = engine.scratch<MultiLaneScratch>();
  auto& ls = engine.scratch<LaneScratch>();
  const std::uint32_t n = engine.size();
  GQ_REQUIRE(lane < s.q && state.size() == n,
             "export needs a live lane and one key per node");
  // Lane A takes the exported lane's ranks first, so the interned session
  // claims the exported state and the next kernel's verify pass hits (a
  // two_tournament -> three_tournament chain interns once).
  const std::uint32_t q = s.q;
  const std::uint32_t* const cur = s.live();
  std::uint32_t* const base = ls.lane_a.data();
  engine.parallel_shards(
      [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
        for (std::uint32_t v = begin; v < end; ++v) {
          base[v] = cur[static_cast<std::size_t>(v) * q + lane];
        }
      });
  lane_export(engine, ls, state);
}

TwoTournamentOutcome two_tournament(Engine& engine, std::vector<Key>& state,
                                    double phi, double eps,
                                    bool truncate_last) {
  return multi_detail::two_tournament_impl(engine, state, phi, eps,
                                           truncate_last, {});
}

ThreeTournamentOutcome three_tournament(Engine& engine,
                                        std::vector<Key>& state, double eps,
                                        std::uint32_t final_sample_size) {
  return multi_detail::three_tournament_impl(engine, state, eps,
                                             final_sample_size, {});
}

// ---- robust (failure-model) kernels ---------------------------------------

namespace {

// Engine-pooled working state of the robust kernels beyond the shared rank
// lanes: good-flag ping-pong buffers (A is the iteration-start snapshot the
// fan-out pulls read, commits write B), the per-shard recorded-pick and
// K-sample slices, a staging row for vector<bool> results (vector<bool> is
// bit-packed, so shards cannot write it concurrently), and the coverage
// tail's lanes — source-index ping-pong plus the original-outputs snapshot
// it indexes into (coverage only copies answers around, so a 4-byte origin
// index carries a node's answer; the Keys materialise once in finish()).
struct RobustScratch {
  std::vector<std::uint8_t> good_a, good_b;  // good/valid flag ping-pong
  std::vector<std::uint8_t> flags8;          // result staging row
  std::vector<std::uint32_t> pick_slots;     // shards x pulls recorded draws
  std::vector<std::uint32_t> samples;        // shards x K gathered ranks
  std::vector<std::uint32_t> cov_picks;      // shards x block coverage picks
  std::vector<std::uint32_t> src_a, src_b;   // coverage source-index lanes
  std::vector<Key> snapshot;                 // coverage: original outputs
  std::vector<std::int64_t> shard_unserved;

  void ensure(std::uint32_t n) {
    if (good_a.size() < n) {
      good_a.resize(n);
      good_b.resize(n);
      flags8.resize(n);
    }
  }
  void ensure_slots(std::size_t slots) {
    if (pick_slots.size() < slots) pick_slots.resize(slots);
  }
  void ensure_samples(std::size_t slots) {
    if (samples.size() < slots) samples.resize(slots);
  }
  void ensure_coverage(std::uint32_t n, std::size_t cov_pick_slots) {
    if (src_a.size() < n) {
      src_a.resize(n);
      src_b.resize(n);
      snapshot.resize(n);
    }
    if (cov_picks.size() < cov_pick_slots) cov_picks.resize(cov_pick_slots);
  }
  void ensure_shards(std::size_t shards) {
    if (shard_unserved.size() < shards) shard_unserved.resize(shards);
  }
};

// The engine instantiation of the shared robust control flow in
// core/robust_pipeline.hpp; the sequential twin lives in core/robust.cpp.
//
// Each phase batches its k-fold fan-out pulls by advancing the round
// counter for the whole pull block up front and deriving every (round,
// node) stream directly — the same derivation the per-round loop would
// use, so draws, failure coins, and Metrics are bit-identical while the
// k round sweeps fuse into one parallel section per iteration.  The fold
// per node reads only the immutable block-start snapshot (rank lane A,
// good A), so no scatter is involved (see robust_pipeline.hpp on why the
// fan-out pulls are pull-shaped).
class EngineRobustOps {
 public:
  EngineRobustOps(Engine& engine, std::vector<Key>& state,
                  std::vector<bool>& good)
      : engine_(engine),
        state_(state),
        good_(good),
        n_(engine.size()),
        bits_(key_bits(n_)),
        lanes_(engine.scratch<LaneScratch>()),
        scratch_(engine.scratch<RobustScratch>()) {
    scratch_.ensure(n_);
    lane_import(engine, state, lanes_);
    cur_ = std::span<std::uint32_t>(lanes_.lane_a.data(), n_);
    next_ = lanes_.back_lane(n_);
    g_cur_ = std::span<std::uint8_t>(scratch_.good_a.data(), n_);
    g_next_ = std::span<std::uint8_t>(scratch_.good_b.data(), n_);
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          for (std::uint32_t v = begin; v < end; ++v) {
            g_cur_[v] = good[v] ? 1 : 0;
          }
        });
  }

  // Copies the carried state and good flags back to the caller's vectors
  // (sequentially for `good`: vector<bool> is bit-packed).
  void finish() {
    lane_settle(lanes_, cur_);
    lane_export(engine_, lanes_, state_);
    for (std::uint32_t v = 0; v < n_; ++v) good_[v] = g_cur_[v] != 0;
  }

  [[nodiscard]] std::uint32_t size() const { return n_; }
  [[nodiscard]] double max_failure_probability() const {
    return engine_.failures().max_probability();
  }

  // The one copy of the fan-out pull mechanics every robust phase folds
  // over: advances the round counter for the whole block (`pulls` pull
  // rounds plus `trailing_rounds` the caller's commit owns, e.g. the
  // 2-tournament's delta-coin round), then runs one parallel section in
  // which node v walks its pull rounds — failure coin billed, message
  // billed on success — records the peers of its successful pulls, then
  // folds up to `capacity` good samples out of the immutable block-start
  // snapshot and hands commit(v, samples, cnt, collecting) the result.
  //
  // Recording-then-folding (instead of folding inside the draw loop) is
  // what creates the prefetch window: the good-flag and rank-lane lines of
  // the first few recorded peers go in flight while the remaining draws'
  // ALU work runs.  It also draws peers the sequential loop skips once a
  // node's samples are full — unobservable either way, since every draw is
  // a pure function of (seed, round, node) and skipped draws leave no
  // trace in results or Metrics; the *collected* samples are the first
  // `capacity` good ones in pull-round order on both paths.  Nodes that
  // are already bad never draw (also unobservable), but every non-failed
  // pull is billed regardless, exactly as in the sequential path.
  template <typename Commit>
  void fanout_pull_block(std::uint32_t pulls, std::uint32_t trailing_rounds,
                         std::uint32_t capacity, Commit&& commit) {
    GQ_SPAN("robust/fanout_pull_block");
    const std::uint64_t base = engine_.round() + 1;
    engine_.advance_rounds(pulls + trailing_rounds);
    constexpr std::uint32_t kInlineSamples = 3;
    const std::uint32_t prefetch_cap = capacity + 2;
    scratch_.ensure_slots(engine_.num_shards() *
                          static_cast<std::size_t>(pulls));
    if (capacity > kInlineSamples) {
      scratch_.ensure_samples(engine_.num_shards() *
                              static_cast<std::size_t>(capacity));
    }
    engine_.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          std::uint32_t* const slots =
              scratch_.pick_slots.data() +
              engine_.shard_of(begin) * static_cast<std::size_t>(pulls);
          std::uint32_t inline_samples[kInlineSamples];
          std::uint32_t* const samp =
              capacity <= kInlineSamples
                  ? inline_samples
                  : scratch_.samples.data() +
                        engine_.shard_of(begin) *
                            static_cast<std::size_t>(capacity);
          std::uint64_t sent = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            const bool collecting = g_cur_[v] != 0;
            std::uint32_t recorded = 0;
            for (std::uint32_t r = 0; r < pulls; ++r) {
              if (engine_.op_fails(v, base + r)) {
                ++local.failed_operations;
                continue;
              }
              ++sent;
              if (!collecting) continue;
              SplitMix64 stream =
                  streams::node_stream(engine_.seed(), base + r, v);
              const std::uint32_t p = streams::sample_peer(v, n_, stream);
              slots[recorded] = p;
              if (recorded < prefetch_cap) {
                prefetch_read(&g_cur_[p]);
                prefetch_read(&cur_[p]);
              }
              ++recorded;
            }
            std::uint32_t cnt = 0;
            for (std::uint32_t i = 0; i < recorded && cnt < capacity; ++i) {
              const std::uint32_t p = slots[i];
              if (g_cur_[p] != 0) samp[cnt++] = cur_[p];
            }
            commit(v, samp, cnt, collecting);
          }
          local.record_messages(sent, bits_);
        });
  }

  void two_iteration(std::uint32_t pulls, double delta, bool suppress_high) {
    // The pull block plus one trailing round for the delta coin (whose
    // randomness is independent of the pulls, as in the sequential path).
    const std::uint64_t commit_round = engine_.round() + 1 + pulls;
    fanout_pull_block(
        pulls, /*trailing_rounds=*/1, /*capacity=*/2,
        [&](std::uint32_t v, const std::uint32_t* samp, std::uint32_t cnt,
            bool collecting) {
          if (!collecting || cnt < 2) {
            next_[v] = cur_[v];
            g_next_[v] = 0;
            return;
          }
          g_next_[v] = 1;
          SplitMix64 stream =
              streams::node_stream(engine_.seed(), commit_round, v);
          const bool tournament =
              delta >= 1.0 || rand_bernoulli(stream, delta);
          next_[v] = robust_detail::two_tournament_commit(
              samp[0], samp[1], tournament, suppress_high);
        });
    std::swap(cur_, next_);
    std::swap(g_cur_, g_next_);
  }

  void three_iteration(std::uint32_t pulls) {
    fanout_pull_block(
        pulls, /*trailing_rounds=*/0, /*capacity=*/3,
        [&](std::uint32_t v, const std::uint32_t* samp, std::uint32_t cnt,
            bool collecting) {
          if (!collecting || cnt < 3) {
            next_[v] = cur_[v];
            g_next_[v] = 0;
            return;
          }
          g_next_[v] = 1;
          next_[v] = robust_detail::median3(samp[0], samp[1], samp[2]);
        });
    std::swap(cur_, next_);
    std::swap(g_cur_, g_next_);
  }

  void final_median_sample(std::uint32_t final_pulls, std::uint32_t k,
                           std::vector<Key>& outputs,
                           std::vector<bool>& valid) {
    const std::span<std::uint8_t> valid8(scratch_.flags8.data(), n_);
    outputs.assign(n_, Key::infinite());
    fanout_pull_block(
        final_pulls, /*trailing_rounds=*/0, /*capacity=*/k,
        [&](std::uint32_t v, std::uint32_t* samp, std::uint32_t cnt,
            bool collecting) {
          if (!collecting || cnt < k) {
            valid8[v] = 0;
            return;
          }
          outputs[v] = lanes_.interner.key_at(rank_median(samp, k));
          valid8[v] = 1;
        });
    valid.resize(n_);
    for (std::uint32_t v = 0; v < n_; ++v) valid[v] = valid8[v] != 0;
  }

 private:
  Engine& engine_;
  std::vector<Key>& state_;
  std::vector<bool>& good_;
  std::uint32_t n_;
  std::uint64_t bits_;
  LaneScratch& lanes_;
  RobustScratch& scratch_;
  std::span<std::uint32_t> cur_, next_;
  std::span<std::uint8_t> g_cur_, g_next_;
};

// The batched coverage tail on compact lanes: a node's carried answer is
// represented by the index of the node that originated it (coverage only
// copies answers, so propagating the 4-byte origin index is equivalent),
// valid flags ping-pong through the pooled byte rows, and the early-exit
// check reads per-shard unserved counters maintained by each round's
// commit instead of scanning all n flags.  The answer Keys materialise
// once in finish() from the pooled snapshot of the original outputs.
class EngineCoverageOps {
 public:
  EngineCoverageOps(Engine& engine, std::vector<Key>& outputs,
                    std::vector<bool>& valid)
      : engine_(engine),
        outputs_(outputs),
        valid_(valid),
        n_(engine.size()),
        bits_(key_bits(n_)),
        block_(std::min(engine.gather_block(), engine.config().shard_size)),
        scratch_(engine.scratch<RobustScratch>()) {
    scratch_.ensure(n_);
    scratch_.ensure_shards(engine.num_shards());
    scratch_.ensure_coverage(
        n_, engine.num_shards() * static_cast<std::size_t>(block_));
    src_cur_ = std::span<std::uint32_t>(scratch_.src_a.data(), n_);
    src_next_ = std::span<std::uint32_t>(scratch_.src_b.data(), n_);
    v_cur_ = std::span<std::uint8_t>(scratch_.good_a.data(), n_);
    v_next_ = std::span<std::uint8_t>(scratch_.good_b.data(), n_);
    snapshot_ = std::span<Key>(scratch_.snapshot.data(), n_);
    unserved_ = std::span<std::int64_t>(scratch_.shard_unserved.data(),
                                        engine.num_shards());
    engine.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          std::int64_t open = 0;
          for (std::uint32_t v = begin; v < end; ++v) {
            snapshot_[v] = outputs[v];
            src_cur_[v] = v;
            const bool served = valid[v];
            v_cur_[v] = served ? 1 : 0;
            open += served ? 0 : 1;
          }
          unserved_[engine_.shard_of(begin)] = open;
        });
  }

  void finish() {
    engine_.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics&) {
          for (std::uint32_t v = begin; v < end; ++v) {
            if (v + kPrefetchAhead < end) {
              prefetch_read(&snapshot_[src_cur_[v + kPrefetchAhead]]);
            }
            outputs_[v] = snapshot_[src_cur_[v]];
          }
        });
    for (std::uint32_t v = 0; v < n_; ++v) valid_[v] = v_cur_[v] != 0;
  }

  [[nodiscard]] bool all_served() const {
    std::int64_t open = 0;
    for (const std::int64_t s : unserved_) open += s;
    return open == 0;
  }

  void coverage_round() {
    engine_.begin_round();
    engine_.parallel_shards(
        [&](std::uint32_t begin, std::uint32_t end, Metrics& local) {
          // Pick sentinel: a node's own id means "already served" (a peer
          // draw never returns the drawing node), kNoPeer means "failed".
          std::uint32_t* const picks =
              scratch_.cov_picks.data() +
              engine_.shard_of(begin) * static_cast<std::size_t>(block_);
          std::uint64_t sent = 0;
          std::int64_t open = 0;
          for (std::uint32_t b0 = begin; b0 < end; b0 += block_) {
            const std::uint32_t b1 = std::min(b0 + block_, end);
            for (std::uint32_t v = b0; v < b1; ++v) {
              if (v_cur_[v] != 0) {
                picks[v - b0] = v;
                continue;
              }
              if (engine_.node_fails(v)) {
                ++local.failed_operations;
                picks[v - b0] = Engine::kNoPeer;
                continue;
              }
              SplitMix64 stream = engine_.node_stream(v);
              picks[v - b0] = engine_.sample_peer(v, stream);
              ++sent;
            }
            for (std::uint32_t v = b0; v < b1; ++v) {
              const std::uint32_t p = picks[v - b0];
              if (p != v && p != Engine::kNoPeer) {
                prefetch_read(&v_cur_[p]);
                prefetch_read(&src_cur_[p]);
              }
            }
            for (std::uint32_t v = b0; v < b1; ++v) {
              const std::uint32_t p = picks[v - b0];
              if (p == v) {  // already served: carry the answer forward
                src_next_[v] = src_cur_[v];
                v_next_[v] = 1;
                continue;
              }
              if (p == Engine::kNoPeer) {  // failed this round
                src_next_[v] = src_cur_[v];
                v_next_[v] = 0;
                ++open;
                continue;
              }
              if (v_cur_[p] != 0) {
                src_next_[v] = src_cur_[p];
                v_next_[v] = 1;
              } else {
                src_next_[v] = src_cur_[v];
                v_next_[v] = 0;
                ++open;
              }
            }
          }
          unserved_[engine_.shard_of(begin)] = open;
          local.record_messages(sent, bits_);
        });
    std::swap(src_cur_, src_next_);
    std::swap(v_cur_, v_next_);
  }

 private:
  Engine& engine_;
  std::vector<Key>& outputs_;
  std::vector<bool>& valid_;
  std::uint32_t n_;
  std::uint64_t bits_;
  std::uint32_t block_;
  RobustScratch& scratch_;
  std::span<std::uint32_t> src_cur_, src_next_;
  std::span<std::uint8_t> v_cur_, v_next_;
  std::span<Key> snapshot_;
  std::span<std::int64_t> unserved_;
};

}  // namespace

RobustTwoTournamentOutcome robust_two_tournament(Engine& engine,
                                                 std::vector<Key>& state,
                                                 std::vector<bool>& good,
                                                 double phi, double eps,
                                                 bool truncate_last) {
  GQ_REQUIRE(state.size() == engine.size() && good.size() == engine.size(),
             "state and good flags must have one entry per node");
  EngineRobustOps ops(engine, state, good);
  RobustTwoTournamentOutcome out =
      robust_detail::robust_two_tournament_impl(ops, phi, eps, truncate_last);
  ops.finish();
  return out;
}

RobustThreeTournamentOutcome robust_three_tournament(
    Engine& engine, std::vector<Key>& state, std::vector<bool>& good,
    double eps, std::uint32_t final_sample_size) {
  GQ_REQUIRE(state.size() == engine.size() && good.size() == engine.size(),
             "state and good flags must have one entry per node");
  EngineRobustOps ops(engine, state, good);
  RobustThreeTournamentOutcome out =
      robust_detail::robust_three_tournament_impl(ops, eps,
                                                  final_sample_size);
  ops.finish();
  return out;
}

std::uint64_t robust_coverage(Engine& engine, std::vector<Key>& outputs,
                              std::vector<bool>& valid, std::uint32_t t) {
  GQ_REQUIRE(outputs.size() == engine.size() && valid.size() == engine.size(),
             "outputs and valid flags must have one entry per node");
  EngineCoverageOps ops(engine, outputs, valid);
  const std::uint64_t rounds = robust_detail::robust_coverage_impl(ops, t);
  ops.finish();
  return rounds;
}

void adopt_intern_session(Engine& engine, std::span<const Key> table,
                          std::span<const std::uint32_t> lanes) {
  GQ_REQUIRE(lanes.size() == engine.size(),
             "adopted session needs one lane entry per node");
  const auto n = static_cast<std::uint32_t>(lanes.size());
  LaneScratch& s = engine.scratch<LaneScratch>();
  s.ensure(n, engine.num_shards());
  s.interner.adopt(table);
  std::copy(lanes.begin(), lanes.end(), s.lane_a.begin());
  s.session = true;
  s.session_n = n;
}

}  // namespace gq
