// Message codecs for every payload the protocols exchange.  Each codec's
// encoded_bits() is the exact wire size.  No execution path encodes
// through them: Metrics bill message sizes analytically, and the two
// accountings differ.
//   * Keys encode to key_bits(n) + 10 bits: the 2-bit kind tag and the
//     8-bit iteration field of the duplication tag are not billed.  So
//     Metrics bill every key message 10 bits short of its encoding (about
//     11% at n = 2^14, where key_bits is 92), and every pivot message,
//     which carries a key, by the same 10 bits.
//   * Tokens encode to key_bits(n) + 16 bits and are billed
//     key_bits(n) + bit_width(multiplier), so they are billed short too
//     unless the multiplier reaches 2^15.
//   * Push-sum messages encode to exactly what they are billed.
// The round/bit tables in the benches are therefore the model's analytic
// costs, not upper bounds on this wire format.
#pragma once

#include <cstdint>

#include "sim/key.hpp"
#include "wire/bits.hpp"

namespace gq {

// Keys: 2-bit kind tag (value / Key::infinite() / Key::neg_infinite()),
// 64-bit value, ceil(lg n)-bit node id, and a duplication tag encoded as
// (iteration, node) with 8 bits of iteration — everything the exact
// algorithm ever generates, in O(log n) bits total.  Only the two sentinels
// get kinds: a genuine +/-inf input is a value and travels as one.
class KeyCodec {
 public:
  explicit KeyCodec(std::uint32_t n) : n_(n), id_bits_(field_width(n)) {
    GQ_REQUIRE(n >= 2, "codec needs a network of at least two nodes");
  }

  [[nodiscard]] std::uint64_t encoded_bits() const noexcept {
    return 2 + 64 + id_bits_ + (kIterBits + id_bits_);
  }

  void encode(const Key& k, BitWriter& w) const {
    if (k == Key::infinite() || k == Key::neg_infinite()) {
      w.write_bits(k == Key::infinite() ? 1 : 2, 2);
      return;
    }
    w.write_bits(0, 2);
    w.write_double(k.value);
    GQ_REQUIRE(k.id < n_, "key id out of range for this network");
    w.write_bits(k.id, id_bits_);
    const std::uint64_t iter = k.tag >> 32;
    const std::uint64_t node = k.tag & 0xffffffffull;
    GQ_REQUIRE(iter < (1ull << kIterBits),
               "duplication tag iteration exceeds the wire budget");
    GQ_REQUIRE(node < n_ || k.tag == 0, "duplication tag node out of range");
    w.write_bits(iter, kIterBits);
    w.write_bits(node, id_bits_);
  }

  [[nodiscard]] Key decode(BitReader& r) const {
    const std::uint64_t kind = r.read_bits(2);
    if (kind == 1) return Key::infinite();
    if (kind == 2) return Key::neg_infinite();
    Key k;
    k.value = r.read_double();
    k.id = static_cast<std::uint32_t>(r.read_bits(id_bits_));
    const std::uint64_t iter = r.read_bits(kIterBits);
    const std::uint64_t node = r.read_bits(id_bits_);
    k.tag = (iter << 32) | node;
    return k;
  }

 private:
  static constexpr unsigned kIterBits = 8;
  std::uint32_t n_;
  unsigned id_bits_;
};

// Push-sum messages: two IEEE doubles (value mass, weight mass).
struct PushSumMessage {
  double s = 0.0;
  double w = 0.0;
};

class PushSumCodec {
 public:
  [[nodiscard]] static constexpr std::uint64_t encoded_bits() noexcept {
    return 128;
  }
  static void encode(const PushSumMessage& m, BitWriter& w) {
    w.write_double(m.s);
    w.write_double(m.w);
  }
  [[nodiscard]] static PushSumMessage decode(BitReader& r) {
    PushSumMessage m;
    m.s = r.read_double();
    m.w = r.read_double();
    return m;
  }
};

// Token messages (Algorithm 3 Step 7): a key plus a power-of-two weight,
// shipped as its exponent in 6 bits (weights never exceed 2^63).
struct TokenMessage {
  Key key;
  std::uint64_t weight = 1;
};

class TokenCodec {
 public:
  explicit TokenCodec(std::uint32_t n) : key_codec_(n) {}

  [[nodiscard]] std::uint64_t encoded_bits() const noexcept {
    return key_codec_.encoded_bits() + 6;
  }

  void encode(const TokenMessage& t, BitWriter& w) const {
    GQ_REQUIRE(t.weight >= 1 && (t.weight & (t.weight - 1)) == 0,
               "token weight must be a power of two");
    key_codec_.encode(t.key, w);
    unsigned exponent = 0;
    while ((1ull << exponent) < t.weight) ++exponent;
    w.write_bits(exponent, 6);
  }

  [[nodiscard]] TokenMessage decode(BitReader& r) const {
    TokenMessage t;
    t.key = key_codec_.decode(r);
    t.weight = 1ull << r.read_bits(6);
    return t;
  }

 private:
  KeyCodec key_codec_;
};

// Pivot-sampling messages: a 64-bit priority plus a key.
struct PriorityMessage {
  std::uint64_t priority = 0;
  Key key;
};

class PriorityCodec {
 public:
  explicit PriorityCodec(std::uint32_t n) : key_codec_(n) {}

  [[nodiscard]] std::uint64_t encoded_bits() const noexcept {
    return 64 + key_codec_.encoded_bits();
  }

  void encode(const PriorityMessage& m, BitWriter& w) const {
    w.write_bits(m.priority, 64);
    key_codec_.encode(m.key, w);
  }

  [[nodiscard]] PriorityMessage decode(BitReader& r) const {
    PriorityMessage m;
    m.priority = r.read_bits(64);
    m.key = key_codec_.decode(r);
    return m;
  }

 private:
  KeyCodec key_codec_;
};

}  // namespace gq
