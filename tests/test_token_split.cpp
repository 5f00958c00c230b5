#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "core/token_split.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

// Builds an instance where the first `valued` nodes hold distinct keys and
// the rest are valueless.
std::vector<Key> partial_instance(std::uint32_t n, std::uint32_t valued) {
  std::vector<Key> inst(n, Key::infinite());
  for (std::uint32_t v = 0; v < valued; ++v) {
    inst[v] = Key{static_cast<double>(v + 1), v, 0};
  }
  return inst;
}

TEST(TokenSplit, EveryValueGetsExactlyMultiplierCopies) {
  constexpr std::uint32_t kN = 1024;
  constexpr std::uint32_t kValued = 100;
  constexpr std::uint64_t kMult = 4;
  Network net(kN, 11);
  const auto inst = partial_instance(kN, kValued);
  const TokenSplitResult r = token_split_distribute(net, inst, kMult, 1u << 20);

  EXPECT_EQ(r.token_count, kMult * kValued);
  std::map<std::pair<double, std::uint32_t>, std::size_t> copies;
  std::size_t holders = 0;
  for (const Key& k : r.instance) {
    if (k == Key::infinite()) continue;
    ++holders;
    ++copies[{k.value, k.id}];
  }
  // Every node holds at most one token, so holders == token count.
  EXPECT_EQ(holders, kMult * kValued);
  ASSERT_EQ(copies.size(), kValued);
  for (const auto& [vid, cnt] : copies) EXPECT_EQ(cnt, kMult);
}

TEST(TokenSplit, TagsAreFreshAndDistinct) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 3);
  const auto inst = partial_instance(kN, 50);
  const std::uint64_t base = 7ull << 32;
  const TokenSplitResult r = token_split_distribute(net, inst, 2, base);
  std::vector<std::uint64_t> tags;
  for (const Key& k : r.instance) {
    if (k != Key::infinite()) tags.push_back(k.tag);
  }
  std::sort(tags.begin(), tags.end());
  EXPECT_TRUE(std::adjacent_find(tags.begin(), tags.end()) == tags.end());
  for (auto t : tags) EXPECT_GE(t, base);
}

TEST(TokenSplit, MultiplierOneOnlyRedistributes) {
  constexpr std::uint32_t kN = 256;
  Network net(kN, 5);
  const auto inst = partial_instance(kN, 40);
  const TokenSplitResult r = token_split_distribute(net, inst, 1, 1u << 16);
  std::size_t holders = 0;
  for (const Key& k : r.instance) holders += k != Key::infinite() ? 1 : 0;
  EXPECT_EQ(holders, 40u);
}

TEST(TokenSplit, RoundsAreLogarithmic) {
  constexpr std::uint32_t kN = 1 << 13;
  Network net(kN, 7);
  const auto inst = partial_instance(kN, kN / 16);
  const TokenSplitResult r = token_split_distribute(net, inst, 8, 1u << 16);
  EXPECT_EQ(r.token_count, kN / 2);
  // lg(multiplier) split generations + scattering, all O(log n).
  EXPECT_LE(r.rounds, 60u);
}

TEST(TokenSplit, WorksUnderFailures) {
  constexpr std::uint32_t kN = 1024;
  Network net(kN, 13, FailureModel::uniform(0.4));
  const auto inst = partial_instance(kN, 64);
  const TokenSplitResult r = token_split_distribute(net, inst, 4, 1u << 16);
  std::map<std::pair<double, std::uint32_t>, std::size_t> copies;
  for (const Key& k : r.instance) {
    if (k != Key::infinite()) ++copies[{k.value, k.id}];
  }
  ASSERT_EQ(copies.size(), 64u);
  for (const auto& [vid, cnt] : copies) EXPECT_EQ(cnt, 4u);
}

TEST(TokenSplit, RejectsBadArguments) {
  constexpr std::uint32_t kN = 128;
  Network net(kN, 1);
  const auto inst = partial_instance(kN, 16);
  // Not a power of two.
  EXPECT_THROW((void)token_split_distribute(net, inst, 3, 0),
               std::invalid_argument);
  // Token count over the scattering capacity.
  EXPECT_THROW((void)token_split_distribute(net, inst, 16, 0),
               std::invalid_argument);
  // No valued nodes at all.
  const std::vector<Key> empty(kN, Key::infinite());
  EXPECT_THROW((void)token_split_distribute(net, empty, 2, 0),
               std::invalid_argument);
}

TEST(TokenSplit, ScatteringCapacityBoundaryIsExact) {
  // multiplier * finite <= 4n/5 + 1 is the admission rule: the largest
  // token count that fits must run, one more valued node must throw.
  constexpr std::uint32_t kN = 640;  // 4n/5 + 1 = 513
  constexpr std::uint64_t kMult = 8;
  Network ok_net(kN, 31);
  const auto ok_inst = partial_instance(kN, 64);  // 512 tokens
  const TokenSplitResult r = token_split_distribute(ok_net, ok_inst, kMult, 0);
  EXPECT_EQ(r.token_count, 512u);

  Network bad_net(kN, 31);
  const auto bad_inst = partial_instance(kN, 65);  // 520 tokens
  EXPECT_THROW((void)token_split_distribute(bad_net, bad_inst, kMult, 0),
               std::invalid_argument);
}

TEST(TokenSplit, SplittingConvergenceCapThrows) {
  // A failure probability this close to one stalls phase A past its
  // 64*log2(n) + 512 round cap; the run must fail loudly, not spin.
  constexpr std::uint32_t kN = 128;
  Network net(kN, 17, FailureModel::uniform(1.0 - 1e-9));
  const auto inst = partial_instance(kN, 8);
  EXPECT_THROW((void)token_split_distribute(net, inst, 4, 0),
               std::runtime_error);
}

TEST(TokenSplit, ScatteringConvergenceCapThrows) {
  // With multiplier 2, phase A is exactly one (failure-free) round; the 80
  // pushed halves then crowd some nodes, and failures switching on from
  // round 2 stall phase B against its 4x round cap.
  constexpr std::uint32_t kN = 128;
  const FailureModel fm = FailureModel::custom(
      [](std::uint32_t, std::uint64_t round) {
        return round >= 2 ? 1.0 - 1e-9 : 0.0;
      },
      1.0 - 1e-9);
  Network net(kN, 19, fm);
  const auto inst = partial_instance(kN, 40);
  EXPECT_THROW((void)token_split_distribute(net, inst, 2, 0),
               std::runtime_error);
}

TEST(TokenSplit, MessageBitsBillWeightAtMultiplierWidth) {
  // The weight field is billed at bit_width(multiplier), not a flat word:
  // key_bits(512) = 64 + 2*9 = 82, multiplier 4 adds 3 bits.
  constexpr std::uint32_t kN = 512;
  EXPECT_EQ(token_message_bits(kN, 4), key_bits(kN) + 3);
  EXPECT_EQ(token_message_bits(kN, 1), key_bits(kN) + 1);

  Network net(kN, 23);
  const auto inst = partial_instance(kN, 32);
  const Metrics before = net.metrics();
  const TokenSplitResult r = token_split_distribute(net, inst, 4, 0);
  const Metrics delta = net.metrics().since(before);
  EXPECT_EQ(delta.max_message_bits, token_message_bits(kN, 4));
  EXPECT_EQ(delta.message_bits, delta.messages * token_message_bits(kN, 4));
  EXPECT_GT(r.rounds, 0u);
}

TEST(TokenSplit, AccountsRoundsAndMessages) {
  constexpr std::uint32_t kN = 512;
  Network net(kN, 21);
  const auto inst = partial_instance(kN, 32);
  const Metrics before = net.metrics();
  const TokenSplitResult r = token_split_distribute(net, inst, 4, 0);
  const Metrics delta = net.metrics().since(before);
  EXPECT_EQ(delta.rounds, r.rounds);
  EXPECT_GT(delta.messages, 0u);
  // Splitting 32 tokens of weight 4 moves at least 32*(4-1) half-tokens...
  // actually exactly token_count - valued pushes in phase A plus scatter
  // pushes; at minimum the phase-A pushes happen.
  EXPECT_GE(delta.messages, r.token_count - 32);
}

}  // namespace
}  // namespace gq
