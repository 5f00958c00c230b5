#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/failure_model.hpp"
#include "sim/key.hpp"
#include "sim/key_intern.hpp"
#include "sim/network.hpp"
#include "sim/trace.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

TEST(Key, OrderingIsLexicographic) {
  const Key a{1.0, 0, 0};
  const Key b{1.0, 1, 0};
  const Key c{1.0, 1, 5};
  const Key d{2.0, 0, 0};
  EXPECT_LT(a, b);
  EXPECT_LT(b, c);
  EXPECT_LT(c, d);
  EXPECT_TRUE(b.same_value(c));
  EXPECT_FALSE(a.same_value(b));
}

TEST(Key, InfiniteSentinelsBracketEverything) {
  const Key mid{1e300, 4000000000u, 9};
  EXPECT_LT(mid, Key::infinite());
  EXPECT_LT(Key::neg_infinite(), mid);
  // Genuine +/-inf inputs are values, not sentinels: +inf keys sort below
  // the valueless marker, and only node 0's -inf key meets the low sentinel.
  const std::vector<Key> keys = make_keys(std::vector<double>{
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()});
  EXPECT_EQ(keys[0], Key::neg_infinite());
  EXPECT_LT(keys[1], Key::infinite());
  EXPECT_LT(Key::neg_infinite(), keys[2]);
}

TEST(KeyBits, GrowsLogarithmically) {
  EXPECT_EQ(key_bits(2), 64u + 2u);
  EXPECT_EQ(key_bits(1024), 64u + 20u);
  EXPECT_LT(key_bits(1u << 20), 64u + 2 * 21u + 1);
}

TEST(Network, RejectsTrivialSizes) {
  EXPECT_THROW(Network(0, 1), std::invalid_argument);
  EXPECT_THROW(Network(1, 1), std::invalid_argument);
  EXPECT_NO_THROW(Network(2, 1));
}

TEST(Network, RoundCounterAdvances) {
  Network net(8, 1);
  EXPECT_EQ(net.round(), 0u);
  EXPECT_EQ(net.begin_round(), 1u);
  EXPECT_EQ(net.begin_round(), 2u);
  EXPECT_EQ(net.metrics().rounds, 2u);
}

TEST(Network, SamplePeerNeverReturnsSelf) {
  Network net(16, 99);
  for (int r = 0; r < 50; ++r) {
    net.begin_round();
    for (std::uint32_t v = 0; v < net.size(); ++v) {
      SplitMix64 s = net.node_stream(v);
      for (int i = 0; i < 4; ++i) {
        const std::uint32_t p = net.sample_peer(v, s);
        EXPECT_NE(p, v);
        EXPECT_LT(p, net.size());
      }
    }
  }
}

TEST(Network, PeerSamplingIsUniformOverOthers) {
  constexpr std::uint32_t kN = 8;
  Network net(kN, 5);
  std::vector<int> counts(kN, 0);
  constexpr int kRounds = 40000;
  for (int r = 0; r < kRounds; ++r) {
    net.begin_round();
    SplitMix64 s = net.node_stream(0);
    ++counts[net.sample_peer(0, s)];
  }
  EXPECT_EQ(counts[0], 0);  // never self
  const double expected = static_cast<double>(kRounds) / (kN - 1);
  for (std::uint32_t v = 1; v < kN; ++v) {
    EXPECT_NEAR(counts[v], expected, 5.0 * std::sqrt(expected));
  }
}

TEST(Network, SameSeedSameTranscript) {
  const auto transcript = [](std::uint64_t seed) {
    Network net(32, seed);
    std::vector<std::uint32_t> t;
    for (int r = 0; r < 20; ++r) {
      auto peers = net.pull_round(16);
      t.insert(t.end(), peers.begin(), peers.end());
    }
    return t;
  };
  EXPECT_EQ(transcript(7), transcript(7));
  EXPECT_NE(transcript(7), transcript(8));
}

TEST(Network, NodeRandomnessIndependentOfQueryOrder) {
  Network a(16, 3), b(16, 3);
  a.begin_round();
  b.begin_round();
  // Query in opposite orders; per-node draws must agree.
  std::vector<std::uint32_t> fwd(16), bwd(16);
  for (std::uint32_t v = 0; v < 16; ++v) {
    SplitMix64 s = a.node_stream(v);
    fwd[v] = a.sample_peer(v, s);
  }
  for (int v = 15; v >= 0; --v) {
    SplitMix64 s = b.node_stream(static_cast<std::uint32_t>(v));
    bwd[v] = b.sample_peer(static_cast<std::uint32_t>(v), s);
  }
  EXPECT_EQ(fwd, bwd);
}

TEST(Network, PullRoundAccountsMessages) {
  Network net(10, 2);
  const auto peers = net.pull_round(24);
  EXPECT_EQ(peers.size(), 10u);
  EXPECT_EQ(net.metrics().messages, 10u);
  EXPECT_EQ(net.metrics().message_bits, 240u);
  EXPECT_EQ(net.metrics().max_message_bits, 24u);
  EXPECT_EQ(net.metrics().failed_operations, 0u);
}

TEST(Network, DefaultMessageBitsIsLogarithmic) {
  Network small(16, 1), big(1 << 20, 1);
  EXPECT_EQ(small.default_message_bits(), 2 * 4u);
  EXPECT_EQ(big.default_message_bits(), 2 * 20u);
}

TEST(FailureModel, NeverFailsByDefault) {
  const FailureModel fm;
  EXPECT_TRUE(fm.never_fails());
  EXPECT_EQ(fm.probability(3, 17), 0.0);
  EXPECT_EQ(fm.max_probability(), 0.0);
}

TEST(FailureModel, UniformRateIsObserved) {
  Network net(64, 77, FailureModel::uniform(0.3));
  std::uint64_t failures = 0, total = 0;
  for (int r = 0; r < 300; ++r) {
    const auto peers = net.pull_round(16);
    for (auto p : peers) {
      ++total;
      failures += (p == Network::kNoPeer) ? 1 : 0;
    }
  }
  const double rate = static_cast<double>(failures) / total;
  EXPECT_NEAR(rate, 0.3, 0.02);
  EXPECT_EQ(net.metrics().failed_operations, failures);
}

TEST(FailureModel, PerNodeProbabilities) {
  FailureModel fm = FailureModel::per_node({0.0, 0.9});
  EXPECT_DOUBLE_EQ(fm.probability(0, 5), 0.0);
  EXPECT_DOUBLE_EQ(fm.probability(1, 5), 0.9);
  EXPECT_DOUBLE_EQ(fm.probability(2, 5), 0.0);  // out of range: safe
  EXPECT_DOUBLE_EQ(fm.max_probability(), 0.9);
}

TEST(FailureModel, CustomSchedule) {
  FailureModel fm = FailureModel::custom(
      [](std::uint32_t v, std::uint64_t r) {
        return (v == 0 && r < 10) ? 0.5 : 0.0;
      },
      0.5);
  EXPECT_DOUBLE_EQ(fm.probability(0, 3), 0.5);
  EXPECT_DOUBLE_EQ(fm.probability(0, 10), 0.0);
  EXPECT_DOUBLE_EQ(fm.probability(1, 3), 0.0);
}

TEST(FailureModel, RejectsInvalidProbabilities) {
  EXPECT_THROW((void)FailureModel::uniform(1.0), std::invalid_argument);
  EXPECT_THROW((void)FailureModel::uniform(-0.1), std::invalid_argument);
  EXPECT_THROW((void)FailureModel::per_node({0.2, 1.5}),
               std::invalid_argument);
}

TEST(Metrics, SinceReportsPhaseLocalMaximum) {
  // A phase whose largest message is smaller than the run-global maximum
  // must report its own maximum, not the global one.
  Metrics m;
  m.record_messages(5, 64);
  const Metrics snapshot = m;
  m.record_messages(3, 16);
  const Metrics d = m.since(snapshot);
  EXPECT_EQ(d.messages, 3u);
  EXPECT_EQ(d.message_bits, 48u);
  EXPECT_EQ(d.max_message_bits, 16u);  // not the global 64
  EXPECT_EQ(m.max_message_bits, 64u);
  // An empty phase has no largest message.
  EXPECT_EQ(m.since(m).max_message_bits, 0u);
}

TEST(Metrics, BulkRecordMatchesRepeatedSingles) {
  Metrics bulk, singles;
  bulk.record_messages(1000, 24);
  bulk.record_messages(7, 80);
  for (int i = 0; i < 1000; ++i) singles.record_message(24);
  for (int i = 0; i < 7; ++i) singles.record_message(80);
  EXPECT_EQ(bulk, singles);
}

TEST(Metrics, MergeCombinesShardAccumulators) {
  Metrics a, b;
  a.record_messages(10, 32);
  a.failed_operations = 2;
  b.record_messages(5, 32);
  b.record_messages(4, 128);
  b.failed_operations = 1;

  Metrics combined;
  combined.record_messages(15, 32);
  combined.record_messages(4, 128);
  combined.failed_operations = 3;

  Metrics merged = a;
  merged.merge(b);
  EXPECT_EQ(merged, combined);

  // Merge order must not matter (the engine merges in shard order, but the
  // totals are order-independent sums and maxes).
  Metrics reversed = b;
  reversed.merge(a);
  EXPECT_EQ(reversed, combined);
}

TEST(Network, BulkRecordMessagesAccountsAllTraffic) {
  Network net(8, 3);
  net.begin_round();
  net.record_messages(1000000, 16);  // O(#sizes), not O(count)
  EXPECT_EQ(net.metrics().messages, 1000000u);
  EXPECT_EQ(net.metrics().message_bits, 16000000u);
  EXPECT_EQ(net.metrics().max_message_bits, 16u);
}

TEST(TraceRecorder, CsvQuotesRfc4180) {
  TraceRecorder trace;
  trace.record("plain", 1, 0.5);
  trace.record("comma,series", 2, 1.0);
  trace.record("say \"what\"", 3, 2.0);
  trace.record("line\nbreak", 4, 3.0);
  const std::string csv = trace.to_csv();
  // Plain names pass through unquoted; anything holding a comma, quote, or
  // newline is wrapped in quotes with internal quotes doubled (RFC 4180),
  // so a naive split-on-comma consumer fails loudly instead of silently
  // mis-parsing shifted columns.
  EXPECT_NE(csv.find("plain,1,"), std::string::npos);
  EXPECT_NE(csv.find("\"comma,series\",2,"), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"what\"\"\",3,"), std::string::npos);
  EXPECT_NE(csv.find("\"line\nbreak\",4,"), std::string::npos);
  EXPECT_EQ(csv.find("comma,series,2"), std::string::npos);
}

TEST(Metrics, SinceComputesDeltas) {
  Metrics a;
  a.rounds = 10;
  a.messages = 100;
  a.message_bits = 1600;
  Metrics b = a;
  b.rounds = 25;
  b.messages = 180;
  b.message_bits = 2800;
  const Metrics d = b.since(a);
  EXPECT_EQ(d.rounds, 15u);
  EXPECT_EQ(d.messages, 80u);
  EXPECT_EQ(d.message_bits, 1200u);
}

// ---- KeyInterner: the radix intern == a comparison-sort reference --------

// What intern() promised before it was a radix sort: the sorted distinct
// keys, and every key's index in them.
struct InternReference {
  std::vector<Key> table;
  std::vector<std::uint32_t> ranks;
};

InternReference sort_reference(const std::vector<Key>& keys) {
  InternReference ref;
  ref.table = keys;
  std::sort(ref.table.begin(), ref.table.end());
  ref.table.erase(std::unique(ref.table.begin(), ref.table.end()),
                  ref.table.end());
  for (const Key& k : keys) {
    ref.ranks.push_back(static_cast<std::uint32_t>(
        std::lower_bound(ref.table.begin(), ref.table.end(), k) -
        ref.table.begin()));
  }
  return ref;
}

// Bitwise, not Key's ==: -0.0 == +0.0 in Key's order, but the table must
// hold the very keys the reference holds.
bool same_bits(const Key& a, const Key& b) {
  return std::bit_cast<std::uint64_t>(a.value) ==
             std::bit_cast<std::uint64_t>(b.value) &&
         a.id == b.id && a.tag == b.tag;
}

void expect_matches_reference(const KeyInterner& interner,
                              const std::vector<Key>& keys,
                              std::span<const std::uint32_t> ranks) {
  const InternReference ref = sort_reference(keys);
  ASSERT_EQ(interner.table().size(), ref.table.size());
  for (std::size_t i = 0; i < ref.table.size(); ++i) {
    EXPECT_TRUE(same_bits(interner.table()[i], ref.table[i]))
        << "table slot " << i;
  }
  for (std::size_t v = 0; v < keys.size(); ++v) {
    EXPECT_EQ(ranks[v], ref.ranks[v]) << "node " << v;
  }
}

// The inputs the order image and the equal-value fix-up must get right.
std::vector<std::pair<std::string, std::vector<Key>>> intern_cases() {
  std::mt19937_64 rng(7);
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  std::vector<std::pair<std::string, std::vector<Key>>> cases;

  std::vector<Key> uniform;
  std::uniform_real_distribution<double> spread(-1e6, 1e6);
  for (std::uint32_t i = 0; i < 4096; ++i) {
    uniform.push_back(Key{spread(rng), i, 0});
  }
  cases.emplace_back("distinct uniform", uniform);

  // Every byte of the image decides some pair: fully random bit patterns
  // order on the high bytes, and half the keys share one of a few high
  // words (both signs), so only their low bytes order them.
  std::vector<Key> patterns;
  const std::uint64_t high_words[] = {0x3FF0'0000'0000'0000,
                                      0xC010'0000'0000'0000,
                                      0x0000'0000'0000'0000};
  for (std::uint32_t i = 0; patterns.size() < 4096; ++i) {
    std::uint64_t bits = rng();
    if (i % 2 == 1) bits = high_words[i % 3] | (bits & 0xFFFF'FFFF);
    const double x = std::bit_cast<double>(bits);
    if (!std::isnan(x)) patterns.push_back(Key{x, i, 0});
  }
  cases.emplace_back("random bit patterns", patterns);

  // Equal values, so only the ids order the zeros; the tiny neighbours
  // check that the fold puts both zeros between -tiny and +tiny.
  std::vector<Key> zeros;
  for (std::uint32_t i = 0; i < 600; ++i) {
    const double values[] = {-0.0, 0.0, tiny, -tiny};
    zeros.push_back(Key{values[i % 4], i, 0});
  }
  std::shuffle(zeros.begin(), zeros.end(), rng);
  cases.emplace_back("signed zeros", zeros);

  std::vector<Key> infinities;
  for (std::uint32_t i = 0; i < 300; ++i) {
    infinities.push_back(Key{inf, i, 0});
    infinities.push_back(Key{-inf, i, 0});
    infinities.push_back(Key{static_cast<double>(i) - 150.0, i, 0});
    if (i % 7 == 0) infinities.push_back(Key::infinite());
    if (i % 11 == 0) infinities.push_back(Key::neg_infinite());
  }
  std::shuffle(infinities.begin(), infinities.end(), rng);
  cases.emplace_back("infinities and sentinels", infinities);

  // The exact pipeline's duplicated instances: one (value, id) token split
  // into many tags, some tags held twice.
  std::vector<Key> tokens;
  for (std::uint32_t t = 0; t < 64; ++t) {
    const double value = static_cast<double>(t % 8) * 0.5;
    for (std::uint64_t tag = 0; tag < 16; ++tag) {
      tokens.push_back(Key{value, t, tag});
      if (tag % 5 == 0) tokens.push_back(Key{value, t, tag});
    }
  }
  std::shuffle(tokens.begin(), tokens.end(), rng);
  cases.emplace_back("duplicated tokens", tokens);

  std::vector<Key> extremes;
  const double special[] = {tiny,
                            -tiny,
                            3 * tiny,
                            -3 * tiny,
                            std::numeric_limits<double>::min(),
                            -std::numeric_limits<double>::min(),
                            std::numeric_limits<double>::max(),
                            std::numeric_limits<double>::lowest(),
                            -1.5,
                            -1e-310};
  std::uniform_int_distribution<std::uint64_t> subnormal(1, 1u << 20);
  for (std::uint32_t i = 0; i < 2000; ++i) {
    const double x =
        i < std::size(special)
            ? special[i]
            : static_cast<double>(subnormal(rng)) * tiny * (i % 2 ? -1 : 1);
    extremes.push_back(Key{x, i, 0});
  }
  std::shuffle(extremes.begin(), extremes.end(), rng);
  cases.emplace_back("negative and subnormal", extremes);

  // Every radix pass is skipped; the ids alone order the keys.
  std::vector<Key> equal;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    equal.push_back(Key{42.5, 999 - i, 0});
  }
  cases.emplace_back("all equal values", equal);

  cases.emplace_back("one key", std::vector<Key>{Key{3.0, 0, 0}});
  return cases;
}

TEST(KeyInterner, RadixInternMatchesSortReference) {
  KeyInterner interner;  // one interner, so the pooled buffers are reused
  for (const auto& [name, keys] : intern_cases()) {
    SCOPED_TRACE(name);
    std::vector<std::uint32_t> ranks(keys.size());
    interner.intern(keys, ranks);
    expect_matches_reference(interner, keys, ranks);

    // extend() merges into the radix-built table exactly as a full intern
    // of the grown state would build it.
    const std::vector<Key> added = {Key{0.5, 70000, 3}, keys.front(),
                                    Key::infinite(), Key{-2.0, 70001, 0}};
    std::vector<Key> all = keys;
    all.insert(all.end(), added.begin(), added.end());
    ranks.resize(all.size());
    interner.extend(added, all, ranks);
    expect_matches_reference(interner, all, ranks);
  }
}

// extend_remap() re-ranks lanes through the merge's old -> new rank map
// instead of searching; it must leave exactly extend()'s table and ranks,
// whatever `added` holds.
TEST(KeyInterner, ExtendRemapMatchesExtend) {
  std::mt19937_64 rng(31);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int trial = 0; trial < 40; ++trial) {
    SCOPED_TRACE(trial);
    // Coarse values and few ids, so the table holds duplicates of the state.
    std::vector<Key> keys(1 + rng() % 300);
    for (Key& k : keys) {
      k = Key{std::floor(unit(rng) * 64.0), static_cast<std::uint32_t>(rng() % 4),
              0};
    }
    KeyInterner by_search;
    KeyInterner by_remap;
    std::vector<std::uint32_t> search_ranks(keys.size());
    std::vector<std::uint32_t> remap_ranks(keys.size());
    by_search.intern(keys, search_ranks);
    by_remap.intern(keys, remap_ranks);

    std::vector<Key> added;  // every fifth trial: an empty added list
    if (trial % 5 != 0) {
      for (std::uint64_t i = rng() % 20; i > 0; --i) {
        added.push_back(Key{unit(rng) * 64.0, 7, i});  // new, inside the range
      }
      added.push_back(keys[rng() % keys.size()]);  // already in the table
      added.push_back(added.front());              // duplicated in `added`
      added.push_back(Key{-1.0 - trial, 0, 0});    // below every table key
      added.push_back(Key{100.0 + trial, 0, 0});   // above every table key
      std::shuffle(added.begin(), added.end(), rng);
    }
    by_search.extend(added, keys, search_ranks);
    by_remap.extend_remap(added, remap_ranks);
    EXPECT_TRUE(std::ranges::equal(by_remap.table(), by_search.table()));
    EXPECT_EQ(remap_ranks, search_ranks);
  }
}

TEST(KeyInterner, RejectsNaNAndKeepsThePreviousTable) {
  KeyInterner interner;
  const std::vector<Key> keys = {Key{2.0, 0, 0}, Key{1.0, 1, 0}};
  std::vector<std::uint32_t> ranks(keys.size());
  interner.intern(keys, ranks);

  std::vector<Key> bad = keys;
  bad[1].value = std::nan("");
  std::vector<std::uint32_t> bad_ranks = ranks;
  EXPECT_THROW(interner.intern(bad, bad_ranks), std::invalid_argument);
  EXPECT_EQ(bad_ranks, ranks);
  expect_matches_reference(interner, keys, ranks);
}

// ---- rank_median == nth_element -------------------------------------------

// Every k in [1, 65] — odd, as the kernels force, and even — spans both
// network widths (16 and 32 wires) and the nth_element fallback above 32.
TEST(RankMedian, MatchesNthElementForEveryK) {
  std::mt19937_64 rng(11);
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  std::uniform_int_distribution<int> domain(0, 2);
  for (std::uint32_t k = 1; k <= 65; ++k) {
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<std::uint32_t> samp(k);
      if (trial % 2 == 0) {
        // Distinct: an odd stride is a bijection mod 2^32.
        const auto base = static_cast<std::uint32_t>(rng());
        const auto stride = static_cast<std::uint32_t>(rng()) | 1u;
        for (std::uint32_t i = 0; i < k; ++i) samp[i] = base + i * stride;
        std::shuffle(samp.begin(), samp.end(), rng);
      } else {
        // Duplicate-heavy, on the networks' own pad values 0 and kMax.
        const std::uint32_t values[] = {0, 1, kMax};
        for (std::uint32_t& x : samp) x = values[domain(rng)];
      }
      std::vector<std::uint32_t> ref = samp;
      std::nth_element(ref.begin(), ref.begin() + k / 2, ref.end());
      EXPECT_EQ(rank_median(samp.data(), k), ref[k / 2])
          << "k=" << k << " trial=" << trial;
    }
  }
}

// By the 0-1 principle, a comparator network that selects the median of
// every 0/1 input selects it for every input: this proves the 16-wire
// network (every k <= 16, the default K = 15 included) exhaustively.
TEST(RankMedian, SixteenWireNetworkIsExactOnEveryZeroOneInput) {
  for (std::uint32_t k = 1; k <= 16; ++k) {
    for (std::uint32_t bits = 0; bits < (1u << k); ++bits) {
      std::uint32_t samp[16];
      for (std::uint32_t i = 0; i < k; ++i) samp[i] = (bits >> i) & 1u;
      const std::uint32_t ones = static_cast<std::uint32_t>(
          std::popcount(bits));
      // The k / 2-th smallest is 1 iff fewer than k / 2 + 1 zeros.
      const std::uint32_t expected = k - ones <= k / 2 ? 1u : 0u;
      ASSERT_EQ(rank_median(samp, k), expected)
          << "k=" << k << " bits=" << bits;
    }
  }
}

}  // namespace
}  // namespace gq
