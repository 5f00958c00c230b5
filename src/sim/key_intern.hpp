// Order-preserving key interning: the compact-lane representation behind
// the engine's tournament kernels (engine/kernels.cpp) and its Key and
// MinMaxKeys spreads on one-shard engines (engine/collectives.cpp, one
// table over both lanes); the service's sessions extend and adopt tables
// (src/service/).
//
// A tournament, median-dynamics or spread round never creates key values —
// it only copies and compares them — so the whole evolving state is a
// multiset over the distinct keys of the *initial* state.  Interning builds
// the sorted dictionary of those distinct keys once and replaces every
// state entry by its 32-bit rank.  Because the map rank -> key is strictly
// increasing, rank comparisons decide exactly as key comparisons do: min /
// max / median-of-three / median-of-K over ranks commit the same values the
// Key-typed kernels would, bit for bit.  What changes is purely the memory
// traffic: a random peer gather touches a 4-byte lane entry instead of a
// Key-sized record, so one cache line now serves 16 peers instead of 2 —
// the difference between a latency-bound pointer chase and a prefetchable
// stream at n = 10^6..10^7.
//
// Duplicates are fine (the exact pipeline's instances carry many identical
// Key::infinite() entries): equal keys share a rank, and since equal keys
// are interchangeable everywhere the protocols compare them, collapsing
// them is unobservable.
//
// intern() sorts by an LSD radix sort over an order-preserving unsigned
// image of Key::value, not by comparisons: at most eight byte passes over
// 16-byte (image, node) slots, each a sequential read and a 256-way
// scatter, with passes whose byte is the same for every key skipped.  Runs
// of equal values — rare for real-valued inputs, common in the exact
// pipeline's duplicated instances — are then ordered by the full Key.
// The table and ranks are exactly those of a comparison sort; the radix
// sort just gets there in a few linear passes, which is what lets the
// kernels intern at every n instead of only where an O(n log n) sort pays
// for itself.
//
// All buffers are pooled: a warmed-up interner's intern() performs no heap
// allocation, which the engine's steady-state allocation tests rely on
// (kernels hold their interner in Engine::scratch).
//
// Long-lived sessions (src/service/) additionally use extend(): instead of
// re-sorting all n keys when an epoch appends a few new distinct keys, the
// newly appeared keys are merged into the existing sorted table and every
// lane is re-ranked by binary search — O(a log a + n log d) against
// intern()'s radix passes over all n keys.  extend_remap() is the same merge
// for a caller whose lanes already index the table: it re-ranks every lane
// through one old -> new rank map, O(a log a + d + n), leaving the caller to
// binary-search only the lanes whose key changed.  The table is then allowed
// to be a *superset* of the state's distinct keys: rank order is still key
// order and every state key still maps through the table, so protocols
// decide and materialise identically; only the (unobserved) rank values
// differ.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "sim/key.hpp"
#include "util/prefetch.hpp"
#include "util/require.hpp"

namespace gq {

class KeyInterner {
 public:
  // Builds the dictionary for `keys` and writes ranks[v] = the rank of
  // keys[v] in the sorted distinct-key table.  One radix sort per interned
  // state, amortised over the dozens of gather rounds the compact lanes
  // then serve.  Keys must not carry NaN values.  `keys` is any sequence
  // with size() and an operator[] returning const Key&: a span or vector,
  // or a view that interns several payload lanes into one table without
  // copying them (the spread kernel's MinMaxKeys lanes).
  template <typename Keys>
  void intern(const Keys& keys, std::span<std::uint32_t> ranks) {
    GQ_REQUIRE(keys.size() == ranks.size(),
               "one rank slot per interned key required");
    GQ_REQUIRE(keys.size() <= std::numeric_limits<std::uint32_t>::max(),
               "interned state must be indexable by 32-bit ranks");
    const auto n = static_cast<std::uint32_t>(keys.size());
    if (n == 0) {
      table_.clear();
      return;
    }
    if (slots_a_.size() < n) {
      slots_a_.resize(n);
      slots_b_.resize(n);
    }

    // One sweep computes every image and all eight byte histograms.
    std::array<std::array<std::uint32_t, kBuckets>, kDigits> counts{};
    bool saw_nan = false;
    for (std::uint32_t v = 0; v < n; ++v) {
      const double x = keys[v].value;
      saw_nan |= std::isnan(x);
      const std::uint64_t image = order_image(x);
      slots_a_[v] = Slot{image, v};
      for (std::size_t d = 0; d < kDigits; ++d) {
        ++counts[d][(image >> (8 * d)) & 0xFF];
      }
    }
    GQ_REQUIRE(!saw_nan, "interned keys must not carry NaN values");

    // Stable LSD passes, least significant byte first.  A byte shared by
    // every key would permute nothing, so its pass is skipped.
    Slot* src = slots_a_.data();
    Slot* dst = slots_b_.data();
    for (std::size_t d = 0; d < kDigits; ++d) {
      std::array<std::uint32_t, kBuckets>& offset = counts[d];
      const unsigned shift = 8 * static_cast<unsigned>(d);
      if (offset[(src[0].image >> shift) & 0xFF] == n) continue;
      std::uint32_t sum = 0;
      for (std::uint32_t& c : offset) sum += std::exchange(c, sum);
      for (std::uint32_t i = 0; i < n; ++i) {
        dst[offset[(src[i].image >> shift) & 0xFF]++] = src[i];
      }
      std::swap(src, dst);
    }

    // Walk the value order: equal images are equal values, whose keys the
    // full (value, id, tag) order decides; each new key opens a table
    // slot.  The key and rank accesses are random in node order, so they
    // are prefetched a fixed distance ahead of the walk.  Nothing the
    // caller can see changes before this point, so a rejected input leaves
    // the previous table and ranks intact.
    table_.clear();
    const auto by_key = [&](const Slot& a, const Slot& b) {
      return keys[a.node] < keys[b.node];
    };
    constexpr std::uint32_t kAhead = 16;
    for (std::uint32_t i = 0; i < n;) {
      std::uint32_t j = i + 1;
      while (j < n && src[j].image == src[i].image) ++j;
      if (j - i > 1 && !std::is_sorted(src + i, src + j, by_key)) {
        std::sort(src + i, src + j, by_key);
      }
      for (; i < j; ++i) {
        if (i + kAhead < n) {
          prefetch_read(&keys[src[i + kAhead].node]);
          prefetch_read(&ranks[src[i + kAhead].node]);
        }
        const Key& key = keys[src[i].node];
        if (table_.empty() || table_.back() != key) table_.push_back(key);
        ranks[src[i].node] = static_cast<std::uint32_t>(table_.size() - 1);
      }
    }
  }

  // Incremental session extension: merges `added` (any multiset; duplicates
  // and keys already in the table are fine) into the sorted dictionary, then
  // writes ranks[v] for every keys[v] by binary search.  Bit-identical rank
  // semantics to intern() — rank order is table order — except that keys
  // retired from the state stay in the table as harmless stale entries
  // (see the header comment).  Every keys[v] must be findable, i.e. present
  // in the old table or in `added`.  O(a log a + d + n log d).
  void extend(std::span<const Key> added, std::span<const Key> keys,
              std::span<std::uint32_t> ranks) {
    GQ_REQUIRE(keys.size() == ranks.size(),
               "one rank slot per interned key required");
    merge(added, nullptr);
    for (std::size_t v = 0; v < keys.size(); ++v) {
      ranks[v] = rank_of(keys[v]);
    }
  }

  // Lane-remapping extension: the same merge as extend(), for ranks that
  // already index the current table.  Each ranks[v] is rewritten to the
  // merged rank of the key it named, through one old -> new rank map
  // recorded by the merge instead of a binary search per lane, so the
  // table and ranks equal extend()'s over the same keys.  Every ranks[v]
  // must be below the table size before the call.  O(a log a + d + n).
  void extend_remap(std::span<const Key> added,
                    std::span<std::uint32_t> ranks) {
    remap_.resize(table_.size());
    merge(added, remap_.data());
    for (std::uint32_t& r : ranks) r = remap_[r];
  }

  // Replaces the dictionary with an externally maintained sorted table
  // (the engine-side half of a session hand-off; see
  // engine/kernels.hpp: adopt_intern_session).
  void adopt(std::span<const Key> table) {
    for (std::size_t i = 1; i < table.size(); ++i) {
      GQ_REQUIRE(table[i - 1] < table[i],
                 "adopted intern table must be sorted and distinct");
    }
    table_.assign(table.begin(), table.end());
  }

  // Rank of a key that is present in the table.
  [[nodiscard]] std::uint32_t rank_of(const Key& key) const {
    const auto it = std::lower_bound(table_.begin(), table_.end(), key);
    GQ_REQUIRE(it != table_.end() && *it == key,
               "rank_of: key missing from the interned table");
    return static_cast<std::uint32_t>(it - table_.begin());
  }

  // Number of table keys <= z: with state held as rank lanes, the
  // state-level indicator keys[v] <= z is exactly lane[v] < count_le(z) —
  // one integer compare per node against a single binary search.
  [[nodiscard]] std::uint32_t count_le(const Key& z) const noexcept {
    return static_cast<std::uint32_t>(
        std::upper_bound(table_.begin(), table_.end(), z) - table_.begin());
  }

  // The sorted distinct-key dictionary of the last intern() call.
  [[nodiscard]] std::span<const Key> table() const noexcept {
    return {table_.data(), table_.size()};
  }

  [[nodiscard]] const Key& key_at(std::uint32_t rank) const noexcept {
    return table_[rank];
  }

 private:
  static constexpr std::size_t kDigits = 8;      // bytes of the 64-bit image
  static constexpr std::size_t kBuckets = 256;   // values of one byte

  // Order-preserving unsigned image of a double: for non-NaN x and y,
  // x < y  <=>  image(x) < image(y), and x == y  <=>  image(x) == image(y).
  // Flipping every bit of a negative value and only the sign bit of a
  // non-negative one turns IEEE-754's sign-magnitude order into unsigned
  // integer order; -0.0 is folded onto +0.0 first because the two compare
  // equal.  NaN has no place in Key's order and no meaningful image.
  [[nodiscard]] static std::uint64_t order_image(double x) noexcept {
    const std::uint64_t bits =
        std::bit_cast<std::uint64_t>(x == 0.0 ? 0.0 : x);
    const std::uint64_t sign_mask = 0 - (bits >> 63);  // all ones iff negative
    return bits ^ (sign_mask | (std::uint64_t{1} << 63));
  }

  struct Slot {
    std::uint64_t image;
    std::uint32_t node;
  };

  // Set-union merge of `added` (sorted here; it may duplicate itself or the
  // table) into the sorted table.  A non-null `remap` receives, for each old
  // table entry in order, its rank in the merged table.
  void merge(std::span<const Key> added, std::uint32_t* remap) {
    if (add_buf_.size() < added.size()) add_buf_.resize(added.size());
    std::copy(added.begin(), added.end(), add_buf_.begin());
    const auto add_end =
        add_buf_.begin() + static_cast<std::ptrdiff_t>(added.size());
    std::sort(add_buf_.begin(), add_end);
    merge_buf_.clear();
    merge_buf_.reserve(table_.size() + added.size());
    auto t = table_.begin();
    auto a = add_buf_.begin();
    while (t != table_.end() || a != add_end) {
      const bool from_table = a == add_end || (t != table_.end() && *t <= *a);
      const Key& next = from_table ? *t++ : *a++;
      if (merge_buf_.empty() || merge_buf_.back() != next) {
        merge_buf_.push_back(next);
      }
      if (from_table && remap != nullptr) {
        *remap++ = static_cast<std::uint32_t>(merge_buf_.size() - 1);
      }
    }
    table_.swap(merge_buf_);
  }

  std::vector<Slot> slots_a_, slots_b_;  // radix ping-pong
  std::vector<Key> table_;
  std::vector<Key> add_buf_, merge_buf_;  // merge() scratch
  std::vector<std::uint32_t> remap_;      // extend_remap()'s rank map
};

// ---- median of K interned ranks --------------------------------------------
//
// The final step of 3-TOURNAMENT (and its robust and multi-lane variants)
// outputs, at every node, the median of K sampled ranks.  For K <= 32 that
// median comes from a fixed comparator network instead of nth_element:
// Batcher's odd-even merge sort on W = 16 or 32 wires, cut down to the
// comparators the middle wire depends on, fully unrolled into branch-free
// min/max pairs.  Inputs are padded to W around the samples — the lowest
// value below, the highest above, as many of each as put the samples'
// median on the middle wire — and since padding only adds values at the
// extremes, the middle wire then carries exactly the element nth_element
// would place at k / 2.
//
// One network pass serves a block of B nodes: wire i of node b sits at
// w[i][b], so each comparator is one min/max over B adjacent lanes, which
// the compiler emits as vector compares and blends.  Baseline x86-64
// (SSE2) compares 32-bit lanes only as signed integers, so a lane holds
// its rank XOR 2^31 as an int32_t: that bias maps unsigned order onto
// signed order over the whole uint32_t range, and the pads become
// INT32_MIN and INT32_MAX.  The kernels' final sampling evaluates blocks
// of kMedianBlock nodes; rank_median is the one-node case.
namespace rank_median_detail {

struct Comparator {
  std::uint8_t lo, hi;
};

struct Network {
  std::array<Comparator, 256> cmp{};
  std::size_t size = 0;
};

// Batcher's odd-even merge sort on `width` (a power of two) wires, keeping
// only comparators that feed wire width / 2: walking backwards from the
// output, a comparator matters iff it writes a wire some kept comparator
// (or the output) reads later, and then both its inputs matter.
constexpr Network median_network(std::size_t width) {
  Network all;
  for (std::size_t p = 1; p < width; p *= 2) {
    for (std::size_t k = p; k >= 1; k /= 2) {
      for (std::size_t j = k % p; j + k < width; j += 2 * k) {
        for (std::size_t i = 0; i < k && i + j + k < width; ++i) {
          if ((i + j) / (2 * p) == (i + j + k) / (2 * p)) {
            all.cmp[all.size++] = {static_cast<std::uint8_t>(i + j),
                                   static_cast<std::uint8_t>(i + j + k)};
          }
        }
      }
    }
  }
  std::array<bool, 64> live{};
  std::array<bool, 256> keep{};
  live[width / 2] = true;
  for (std::size_t c = all.size; c-- > 0;) {
    const Comparator x = all.cmp[c];
    if (live[x.lo] || live[x.hi]) {
      keep[c] = true;
      live[x.lo] = live[x.hi] = true;
    }
  }
  Network kept;
  for (std::size_t c = 0; c < all.size; ++c) {
    if (keep[c]) kept.cmp[kept.size++] = all.cmp[c];
  }
  return kept;
}

template <std::size_t W>
inline constexpr Network kMedianNetwork = median_network(W);

inline constexpr std::uint32_t kBias = std::uint32_t{1} << 31;

// Value selects rather than std::min/std::max: GCC lowers the
// reference-returning pair to a conditional branch, which mispredicts on
// every other comparator of random ranks; the selects become cmov pairs
// for one lane and compare-and-blend vectors for a block.
template <std::size_t B>
inline void compare_exchange(std::int32_t (&lo)[B],
                             std::int32_t (&hi)[B]) noexcept {
  for (std::size_t b = 0; b < B; ++b) {
    const std::int32_t x = lo[b];
    const std::int32_t y = hi[b];
    lo[b] = y < x ? y : x;
    hi[b] = y < x ? x : y;
  }
}

template <std::size_t W, std::size_t B, std::size_t... C>
inline void apply_network(std::int32_t (&w)[W][B], std::index_sequence<C...>) {
  constexpr const Network& net = kMedianNetwork<W>;
  (compare_exchange(w[net.cmp[C].lo], w[net.cmp[C].hi]), ...);
}

template <std::size_t W, std::size_t B, typename Sample>
inline void network_medians(std::uint32_t k, std::uint32_t nodes,
                            const Sample& sample, std::uint32_t* out) {
  constexpr std::int32_t kLow = std::numeric_limits<std::int32_t>::min();
  constexpr std::int32_t kHigh = std::numeric_limits<std::int32_t>::max();
  const std::uint32_t below = W / 2 - k / 2;  // low pads before the samples
  std::int32_t w[W][B];
  for (std::uint32_t i = 0; i < below; ++i) {
    for (std::int32_t& x : w[i]) x = kLow;
  }
  for (std::uint32_t j = 0; j < k; ++j) {
    std::int32_t(&row)[B] = w[below + j];
    for (std::uint32_t b = 0; b < nodes; ++b) {
      row[b] = static_cast<std::int32_t>(sample(b, j) ^ kBias);
    }
    for (std::uint32_t b = nodes; b < B; ++b) row[b] = 0;  // unused lanes
  }
  for (std::uint32_t i = below + k; i < W; ++i) {
    for (std::int32_t& x : w[i]) x = kHigh;
  }
  apply_network<W>(w, std::make_index_sequence<kMedianNetwork<W>.size>{});
  for (std::uint32_t b = 0; b < nodes; ++b) {
    out[b] = static_cast<std::uint32_t>(w[W / 2][b]) ^ kBias;
  }
}

}  // namespace rank_median_detail

// The largest K the comparator networks serve, and the node block the
// kernels evaluate them over.
inline constexpr std::uint32_t kMaxNetworkSamples = 32;
inline constexpr std::uint32_t kMedianBlock = 8;

// For every node b < nodes (1 <= nodes <= B), writes to out[b] the element
// std::nth_element would place at position k / 2 of that node's samples
// sample(b, 0), ..., sample(b, k - 1) — the median for odd k.  One network
// pass serves all of them; 1 <= k <= kMaxNetworkSamples.
template <std::size_t B, typename Sample>
inline void block_medians(std::uint32_t k, std::uint32_t nodes,
                          const Sample& sample, std::uint32_t* out) {
  GQ_ASSERT(k >= 1 && k <= kMaxNetworkSamples && nodes >= 1 && nodes <= B);
  if (k <= 16) {
    rank_median_detail::network_medians<16, B>(k, nodes, sample, out);
  } else {
    rank_median_detail::network_medians<32, B>(k, nodes, sample, out);
  }
}

// The element std::nth_element(samp, samp + k / 2, samp + k) would place at
// position k / 2 — the median for odd k.  k >= 1; `samp` may be permuted.
[[nodiscard]] inline std::uint32_t rank_median(std::uint32_t* samp,
                                               std::uint32_t k) {
  if (k <= kMaxNetworkSamples) {
    std::uint32_t median;
    block_medians<1>(
        k, 1, [samp](std::uint32_t, std::uint32_t j) { return samp[j]; },
        &median);
    return median;
  }
  std::uint32_t* const mid = samp + k / 2;
  std::nth_element(samp, mid, samp + k);
  return *mid;
}

}  // namespace gq
