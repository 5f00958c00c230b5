#include "core/token_split.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>

#include "util/require.hpp"

namespace gq {

TokenSplitResult token_split_distribute(Network& net,
                                        std::span<const Key> inst,
                                        std::uint64_t multiplier,
                                        std::uint64_t tag_base) {
  const std::uint32_t n = net.size();
  GQ_REQUIRE(inst.size() == n, "one key per node required");
  GQ_REQUIRE(multiplier >= 1 && std::has_single_bit(multiplier),
             "multiplier must be a power of two");

  std::uint64_t finite = 0;
  for (const Key& k : inst) finite += k != Key::infinite() ? 1 : 0;
  GQ_REQUIRE(finite >= 1, "token split needs at least one valued node");
  GQ_REQUIRE(multiplier * finite <= 4ull * n / 5 + 1,
             "token count must leave >= n/5 nodes free for scattering");

  std::vector<std::vector<Token>> held(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    if (inst[v] != Key::infinite()) {
      held[v].push_back(Token{inst[v], multiplier});
    }
  }

  TokenSplitResult out;
  out.token_count = multiplier * finite;
  const std::uint64_t bits = token_message_bits(n, multiplier);
  const auto log2n = static_cast<std::uint64_t>(
      std::bit_width(static_cast<std::uint64_t>(n)));
  const std::uint64_t round_cap = 64 * log2n + 512;

  std::vector<std::vector<Token>> incoming(n);

  // Phase A: halve weights.  Each round a node splits at most one of its
  // weight>1 tokens; the pushed half travels to a uniform node.  A failed
  // operation leaves the token whole (the Section-5.2 merge-back).
  while (true) {
    bool any_heavy = false;
    for (const auto& ts : held) {
      for (const Token& t : ts) {
        if (t.weight > 1) {
          any_heavy = true;
          break;
        }
      }
      if (any_heavy) break;
    }
    if (!any_heavy) break;
    if (out.rounds > round_cap) {
      throw std::runtime_error("token splitting did not converge");
    }

    net.begin_round();
    ++out.rounds;
    for (auto& in : incoming) in.clear();
    for (std::uint32_t v = 0; v < n; ++v) {
      auto heavy = std::find_if(held[v].begin(), held[v].end(),
                                [](const Token& t) { return t.weight > 1; });
      if (heavy == held[v].end()) continue;
      if (net.node_fails(v)) {
        net.record_failed_operation();
        continue;
      }
      SplitMix64 stream = net.node_stream(v);
      const std::uint32_t dest = net.sample_peer(v, stream);
      heavy->weight /= 2;
      incoming[dest].push_back(Token{heavy->key, heavy->weight});
      net.record_message(bits);
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      held[v].insert(held[v].end(), incoming[v].begin(), incoming[v].end());
    }
  }

  // Phase B: scatter weight-1 tokens until every node holds at most one.
  while (true) {
    bool any_crowded = false;
    for (const auto& ts : held) {
      if (ts.size() > 1) {
        any_crowded = true;
        break;
      }
    }
    if (!any_crowded) break;
    if (out.rounds > 4 * round_cap) {
      throw std::runtime_error("token scattering did not converge");
    }

    net.begin_round();
    ++out.rounds;
    for (auto& in : incoming) in.clear();
    for (std::uint32_t v = 0; v < n; ++v) {
      if (held[v].size() < 2) continue;
      if (net.node_fails(v)) {
        net.record_failed_operation();
        continue;
      }
      SplitMix64 stream = net.node_stream(v);
      const std::uint32_t dest = net.sample_peer(v, stream);
      incoming[dest].push_back(held[v].back());
      held[v].pop_back();
      net.record_message(bits);
    }
    for (std::uint32_t v = 0; v < n; ++v) {
      held[v].insert(held[v].end(), incoming[v].begin(), incoming[v].end());
    }
  }

  out.instance.assign(n, Key::infinite());
  for (std::uint32_t v = 0; v < n; ++v) {
    if (held[v].empty()) continue;
    const Token& t = held[v].front();
    out.instance[v] = Key{t.key.value, t.key.id, tag_base + v};
  }
  return out;
}

}  // namespace gq
