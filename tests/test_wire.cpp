#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "sim/key.hpp"
#include "util/rng.hpp"
#include "wire/bits.hpp"
#include "wire/codec.hpp"

namespace gq {
namespace {

TEST(Bits, FieldWidthMatchesLog2) {
  EXPECT_EQ(field_width(2), 1u);
  EXPECT_EQ(field_width(3), 2u);
  EXPECT_EQ(field_width(4), 2u);
  EXPECT_EQ(field_width(1024), 10u);
  EXPECT_EQ(field_width(1025), 11u);
}

TEST(Bits, WriteReadRoundTrip) {
  BitWriter w;
  w.write_bits(0b101, 3);
  w.write_bits(0xdeadbeefcafe, 48);
  w.write_bits(1, 1);
  BitReader r(w.bytes());
  EXPECT_EQ(r.read_bits(3), 0b101u);
  EXPECT_EQ(r.read_bits(48), 0xdeadbeefcafeull);
  EXPECT_EQ(r.read_bits(1), 1u);
  EXPECT_EQ(w.bit_count(), 52u);
}

TEST(Bits, DoubleRoundTripIncludingSpecials) {
  BitWriter w;
  const std::vector<double> values = {0.0, -0.0, 1.5, -3.25e300, 5e-324,
                                      std::numeric_limits<double>::infinity()};
  for (double v : values) w.write_double(v);
  BitReader r(w.bytes());
  for (double v : values) {
    const double back = r.read_double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof(v)), 0);
  }
}

TEST(Bits, UnalignedPatternsSurviveFuzz) {
  Rng rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    BitWriter w;
    std::vector<std::pair<std::uint64_t, unsigned>> fields;
    for (int f = 0; f < 16; ++f) {
      const unsigned bits = 1 + static_cast<unsigned>(rand_index(rng, 64));
      const std::uint64_t value =
          rng() & (bits == 64 ? ~0ull : ((1ull << bits) - 1));
      fields.emplace_back(value, bits);
      w.write_bits(value, bits);
    }
    BitReader r(w.bytes());
    for (const auto& [value, bits] : fields) {
      EXPECT_EQ(r.read_bits(bits), value);
    }
  }
}

TEST(Bits, ReadPastEndThrows) {
  BitWriter w;
  w.write_bits(0xff, 8);
  BitReader r(w.bytes());
  (void)r.read_bits(8);
  EXPECT_THROW((void)r.read_bits(1), std::invalid_argument);
}

TEST(KeyCodecTest, RoundTripsFiniteKeys) {
  const std::uint32_t n = 1 << 14;
  const KeyCodec codec(n);
  Rng rng(7);
  for (int trial = 0; trial < 500; ++trial) {
    Key k;
    k.value = rand_double(rng) * 1e6 - 5e5;
    k.id = static_cast<std::uint32_t>(rand_index(rng, n));
    const std::uint64_t iter = rand_index(rng, 64);
    const std::uint64_t node = rand_index(rng, n);
    k.tag = trial % 3 == 0 ? 0 : ((iter << 32) | node);
    BitWriter w;
    codec.encode(k, w);
    BitReader r(w.bytes());
    EXPECT_EQ(codec.decode(r), k);
  }
}

TEST(KeyCodecTest, RoundTripsSentinels) {
  const KeyCodec codec(256);
  BitWriter w;
  codec.encode(Key::infinite(), w);
  codec.encode(Key::neg_infinite(), w);
  BitReader r(w.bytes());
  EXPECT_EQ(codec.decode(r), Key::infinite());
  EXPECT_EQ(codec.decode(r), Key::neg_infinite());
}

// Only the two sentinels travel as short kinds: a genuine +/-inf input is a
// value and keeps its id and tag across the wire.  (Node 0's -inf key is
// the low sentinel itself, so either encoding decodes to the same key.)
TEST(KeyCodecTest, RoundTripsInfiniteValuedKeys) {
  constexpr std::uint32_t kN = 1024;
  const KeyCodec codec(kN);
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<Key> keys = {
      {inf, 0, 0},   {inf, 17, 0},   {inf, kN - 1, (5ull << 32) | 700},
      {-inf, 0, 0},  {-inf, 3, 0},   {-inf, 512, (2ull << 32) | 9},
      Key::infinite(), Key::neg_infinite()};
  BitWriter w;
  for (const Key& k : keys) codec.encode(k, w);
  BitReader r(w.bytes());
  for (const Key& k : keys) EXPECT_EQ(codec.decode(r), k);
}

TEST(KeyCodecTest, EncodedSizeIsLogarithmicAndWithinAccounting) {
  for (std::uint32_t n : {16u, 1024u, 1u << 20}) {
    const KeyCodec codec(n);
    // The wire key must fit the simulator's accounted key size plus the
    // (iteration, kind) overhead the accounting rolls into its constant.
    EXPECT_LE(codec.encoded_bits(), key_bits(n) + 10) << "n=" << n;
    // And it must actually grow logarithmically.
    EXPECT_LE(codec.encoded_bits(), 2 + 64 + 2 * field_width(n) + 8);
  }
}

TEST(KeyCodecTest, EncodeUsesExactlyDeclaredBits) {
  const std::uint32_t n = 4096;
  const KeyCodec codec(n);
  Key k{3.25, 17, (5ull << 32) | 99};
  BitWriter w;
  codec.encode(k, w);
  EXPECT_EQ(w.bit_count(), codec.encoded_bits());
}

TEST(KeyCodecTest, RejectsOutOfRangeIds) {
  const KeyCodec codec(64);
  Key k{1.0, 64, 0};  // id == n is out of range
  BitWriter w;
  EXPECT_THROW(codec.encode(k, w), std::invalid_argument);
}

TEST(PushSumCodecTest, RoundTrip) {
  const PushSumMessage m{123.456, 0.0078125};
  BitWriter w;
  PushSumCodec::encode(m, w);
  EXPECT_EQ(w.bit_count(), PushSumCodec::encoded_bits());
  BitReader r(w.bytes());
  const PushSumMessage back = PushSumCodec::decode(r);
  EXPECT_EQ(back.s, m.s);
  EXPECT_EQ(back.w, m.w);
}

TEST(TokenCodecTest, RoundTripAndSize) {
  const std::uint32_t n = 1 << 12;
  const TokenCodec codec(n);
  for (std::uint64_t weight : {1ull, 2ull, 64ull, 1ull << 40}) {
    TokenMessage t;
    t.key = Key{-7.5, 11, (2ull << 32) | 30};
    t.weight = weight;
    BitWriter w;
    codec.encode(t, w);
    EXPECT_EQ(w.bit_count(), codec.encoded_bits());
    BitReader r(w.bytes());
    const TokenMessage back = codec.decode(r);
    EXPECT_EQ(back.key, t.key);
    EXPECT_EQ(back.weight, t.weight);
  }
  // The wire token (key wire bits + a 6-bit weight exponent) fits a key
  // plus one 64-bit weight word.
  EXPECT_LE(codec.encoded_bits(), key_bits(n) + 64);
}

TEST(TokenCodecTest, RejectsNonPowerOfTwoWeights) {
  const TokenCodec codec(256);
  TokenMessage t;
  t.key = Key{1.0, 0, 0};
  t.weight = 3;
  BitWriter w;
  EXPECT_THROW(codec.encode(t, w), std::invalid_argument);
}

TEST(PriorityCodecTest, RoundTripAndBudget) {
  const std::uint32_t n = 1 << 16;
  const PriorityCodec codec(n);
  PriorityMessage m;
  m.priority = 0x123456789abcdef1ull;
  m.key = Key{2.5, 1000, 0};
  BitWriter w;
  codec.encode(m, w);
  EXPECT_EQ(w.bit_count(), codec.encoded_bits());
  BitReader r(w.bytes());
  const PriorityMessage back = codec.decode(r);
  EXPECT_EQ(back.priority, m.priority);
  EXPECT_EQ(back.key, m.key);
  // Pivot accounting: 64 + key_bits.
  EXPECT_LE(codec.encoded_bits(), 64 + key_bits(n) + 10);
}

}  // namespace
}  // namespace gq
