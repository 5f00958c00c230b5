// Deterministic, fast random number generation for gossip simulation.
//
// Two generators are provided:
//   * SplitMix64 — a tiny 64-bit mixer used for seeding, for deriving
//     independent sub-streams from a master seed, and as the per-(node,round)
//     stream inside the simulator (one multiply-xorshift step per draw).
//   * Xoshiro256StarStar — a general-purpose generator (passes BigCrush) for
//     workload generation and offline sampling.
//
// Both satisfy std::uniform_random_bit_generator.  The sampling helpers
// (rand_index, rand_double, rand_bernoulli) are free templates so they work
// with either generator; they avoid libstdc++ distribution overhead, which
// dominates gossip-round costs at n >= 10^5.
#pragma once

#include <array>
#include <concepts>
#include <cstdint>
#include <limits>
#include <random>

#include "util/require.hpp"

namespace gq {

// SplitMix64: public-domain mixer by Sebastiano Vigna. Good avalanche
// behaviour; the canonical way to expand one 64-bit seed into many.
class SplitMix64 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t operator()() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: public-domain generator by Blackman & Vigna.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256StarStar(std::uint64_t seed) noexcept
      : state_{} {
    SplitMix64 sm(seed);
    for (auto& word : state_) word = sm();
  }

  constexpr std::uint64_t operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_;
};

using Rng = Xoshiro256StarStar;

template <typename G>
concept RandomGenerator = std::uniform_random_bit_generator<G> &&
                          std::same_as<typename G::result_type, std::uint64_t>;

namespace rng_detail {

__extension__ using u128 = unsigned __int128;

// Lemire's rejection loop, entered with probability < bound / 2^64: redraws
// while the product's low half falls below 2^64 mod bound.  Kept out of
// line so the fast path inlines into the kernels' per-node draw loops.
template <RandomGenerator G>
[[gnu::cold, gnu::noinline]] std::uint64_t rand_index_reject(
    G& gen, std::uint64_t bound, u128 m) noexcept {
  const std::uint64_t threshold = -bound % bound;
  while (static_cast<std::uint64_t>(m) < threshold) {
    m = static_cast<u128>(gen()) * bound;
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace rng_detail

// Uniform integer in [0, bound) without modulo bias (Lemire's method): one
// draw, one 64x64->128 multiply and one compare, unless that compare sends
// the draw to the rejection loop.
template <RandomGenerator G>
[[gnu::always_inline]] inline std::uint64_t rand_index(
    G& gen, std::uint64_t bound) noexcept {
  GQ_ASSERT(bound > 0);
  const rng_detail::u128 m = static_cast<rng_detail::u128>(gen()) * bound;
  if (static_cast<std::uint64_t>(m) < bound) [[unlikely]] {
    return rng_detail::rand_index_reject(gen, bound, m);
  }
  return static_cast<std::uint64_t>(m >> 64);
}

// Uniform double in [0, 1) with 53 bits of randomness.
template <RandomGenerator G>
double rand_double(G& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

template <RandomGenerator G>
bool rand_bernoulli(G& gen, double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return rand_double(gen) < p;
}

// Derives a statistically independent child seed from (master, stream_id).
// Used so that every node / protocol phase gets its own stream and results
// do not depend on evaluation order.
constexpr std::uint64_t derive_seed(std::uint64_t master,
                                    std::uint64_t stream_id) noexcept {
  SplitMix64 sm(master ^
                (0x9e3779b97f4a7c15ULL + stream_id * 0xd1342543de82ef95ULL));
  sm();  // discard one output to decorrelate adjacent stream ids further
  return sm();
}

}  // namespace gq
