// Pooled flat per-node token storage for the engine's batched token split.
//
// The sequential token split keeps a std::vector<std::vector<Token>> —
// n vector headers plus one small heap block per occupied node, rebuilt
// from scratch on every call.  Algorithm 3 calls the split once per
// duplication iteration, so at n = 10^6 that is millions of constructions
// and small allocations per exact_quantile run.  TokenStore replaces it
// with one flat slab of kInlineCap slots per node plus a rarely-touched
// per-node overflow vector, and the whole structure is pooled on the
// Engine (via Engine::scratch), so a later call finds all capacity warm:
// steady-state rounds allocate nothing.
//
// Node lists keep exact std::vector semantics — push_back appends, the
// iteration order is insertion order, back()/pop_back() touch the newest
// token — because the batched split must stay bit-identical to the
// sequential one, and which token is split (the first heavy) or scattered
// (the last) is observable in the result.
//
// The inline slab is sized for the common case: random scattering keeps
// per-node load at O(log n / log log n) w.h.p. and the split caps total
// tokens at 4n/5, so nodes holding more than kInlineCap tokens are rare.
// EngineSteadyState.TokenSplitAllocatesOnlyItsResult
// (tests/test_engine_alloc.cpp) pins that a warm rerun of the split
// allocates nothing but its result.
//
// Concurrency contract: a node's list is mutated by at most one task per
// parallel section (its shard's kernel while sending, its destination
// partition's task while delivering), same as every other node-indexed
// slot in the engine.
#pragma once

#include <cstdint>
#include <vector>

#include "core/token_split.hpp"
#include "util/prefetch.hpp"

namespace gq {

class TokenStore {
 public:
  // Inline token slots per node; chosen so Phase-B steady state (at most a
  // couple of tokens per node) never touches the overflow vectors.
  static constexpr std::uint32_t kInlineCap = 4;

  // Prepares storage for n nodes, keeping capacity from previous calls.
  // Per-node state is NOT cleared here: the caller's minting kernel calls
  // clear_node(v) for every node from its owning shard, which both resets
  // the list and first-touches the node's slots on that worker.
  void ensure(std::uint32_t n) {
    if (inline_slots_.size() < static_cast<std::size_t>(n) * kInlineCap) {
      inline_slots_.resize(static_cast<std::size_t>(n) * kInlineCap);
    }
    if (count_.size() < n) count_.resize(n);
    if (overflow_.size() < n) overflow_.resize(n);
  }

  void clear_node(std::uint32_t v) {
    count_[v] = 0;
    overflow_[v].clear();  // keeps the rare warmed-up overflow capacity
  }

  [[nodiscard]] std::uint32_t size(std::uint32_t v) const {
    return count_[v];
  }

  [[nodiscard]] Token& at(std::uint32_t v, std::uint32_t i) {
    return i < kInlineCap
               ? inline_slots_[static_cast<std::size_t>(v) * kInlineCap + i]
               : overflow_[v][i - kInlineCap];
  }
  [[nodiscard]] const Token& at(std::uint32_t v, std::uint32_t i) const {
    return i < kInlineCap
               ? inline_slots_[static_cast<std::size_t>(v) * kInlineCap + i]
               : overflow_[v][i - kInlineCap];
  }

  [[nodiscard]] const Token& front(std::uint32_t v) const { return at(v, 0); }
  [[nodiscard]] Token& back(std::uint32_t v) {
    return at(v, count_[v] - 1);
  }

  void push_back(std::uint32_t v, const Token& t) {
    const std::uint32_t i = count_[v]++;
    if (i < kInlineCap) {
      inline_slots_[static_cast<std::size_t>(v) * kInlineCap + i] = t;
      return;
    }
    // Invariant: overflow_[v].size() == count_[v] - 1 - kInlineCap.
    overflow_[v].push_back(t);
  }

  void pop_back(std::uint32_t v) {
    const std::uint32_t i = --count_[v];
    if (i >= kInlineCap) overflow_[v].pop_back();
  }

  // Prefetch hint for the scatter delivery fold: warms the two lines an
  // imminent push_back(v, ...) will touch (the node's count and its inline
  // slots).  Advisory only — no observable effect.
  void prefetch_node(std::uint32_t v) const {
    prefetch_read(&count_[v]);
    prefetch_read(&inline_slots_[static_cast<std::size_t>(v) * kInlineCap]);
  }

 private:
  std::vector<Token> inline_slots_;       // n * kInlineCap flat slots
  std::vector<std::uint32_t> count_;      // tokens held per node
  std::vector<std::vector<Token>> overflow_;  // slots beyond kInlineCap
};

}  // namespace gq
