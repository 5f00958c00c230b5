// The executor core: the paper's execution model, written out once for both
// executors.
//
// Model (Section 1 of the paper): computation proceeds in synchronized
// rounds.  In each round every node performs one push (deliver a message to
// a uniformly random other node) or one pull (receive a message from a
// uniformly random other node).  Messages are O(log n) bits; executors
// account sizes instead of serializing bytes.  Under the Section-5 failure
// model, node v's operation in round i is lost with probability p_{v,i};
// an installed AdversaryStrategy (sim/adversary.hpp, arXiv 2502.15320)
// widens that coin to a per-message adversary.
//
// Determinism: all randomness of node v in round r is a pure function of
// (master seed, r, v) — see sim/streams.hpp.  Two runs with the same seed
// produce identical transcripts, and a node's draws do not depend on the
// order in which other nodes are processed.
//
// ExecutorCore owns n, the seed, the round counter, the run's Metrics, the
// FailureModel, the borrowed adversary and the pooled collective scratch,
// and defines every primitive a protocol draws on (begin_round /
// advance_rounds / node_stream / sample_peer / node_fails / op_fails /
// faultless ...).  The sequential Network (sim/network.hpp) and the sharded
// Engine (engine/engine.hpp) derive from it and add only their round loops
// (pull_round, and for_each_node: a plain loop on the Network, shards on
// the Engine), so their bit-identity contract rests on one copy of each
// primitive.  The pipeline templates in core/*_pipeline.hpp take either
// executor and call these members and the per-executor free functions
// directly.  Nothing here is virtual, but the failure coin is still a call
// per node: node_fails reads the FailureModel's std::function and the
// adversary's virtual fault().  In a round loop that call makes the
// compiler reload the loop's state around every node, even when the branch
// is never taken, so a run-time guard on faultless() does not pay.  The hot
// engine round loops therefore take the coin through with_fault_coin, which
// compiles it out of failure-free runs.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <typeindex>
#include <typeinfo>
#include <utility>
#include <vector>

#include "sim/adversary.hpp"
#include "sim/failure_model.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "sim/streams.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {

class ExecutorCore {
 public:
  // Sentinel peer index meaning "this node's operation failed this round".
  static constexpr std::uint32_t kNoPeer = 0xffffffffu;

  [[nodiscard]] std::uint32_t size() const noexcept { return n_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] std::uint64_t round() const noexcept { return round_; }
  [[nodiscard]] const Metrics& metrics() const noexcept { return metrics_; }
  [[nodiscard]] const FailureModel& failures() const noexcept {
    return failures_;
  }

  // ---- fault sources -----------------------------------------------------

  // Installs a message-level adversary (sim/adversary.hpp).  The strategy is
  // borrowed, not owned — it must outlive the executor — and is bound to
  // (seed, n) here.  An oblivious strategy's drop model is absorbed into
  // this executor's failure model (when none is installed yet), which is
  // what makes FailureModel the exact special case: fan-out sizing, failure
  // coins, and transcripts match a model-constructed executor bit for bit.
  // Pass nullptr to uninstall.
  void set_adversary(AdversaryStrategy* adversary) {
    adversary_ = adversary;
    if (adversary_ != nullptr) {
      adversary_->bind(seed_, n_);
      if (const FailureModel* fm = adversary_->oblivious_model();
          fm != nullptr && failures_.never_fails()) {
        failures_ = *fm;
      }
    }
  }
  [[nodiscard]] AdversaryStrategy* adversary() const noexcept {
    return adversary_;
  }

  // True iff no fault source is installed at all — no failure model and no
  // adversary.  The failure-free pipeline variants key off this.
  [[nodiscard]] bool faultless() const noexcept {
    return failures_.never_fails() && adversary_ == nullptr;
  }

  // Calls fn(std::false_type{}) when faultless() holds and
  // fn(std::true_type{}) otherwise, so a round loop written once as
  // `if (coin && node_fails(v))` drops the coin and its two opaque calls
  // from failure-free runs and keeps the full coin on every other run.
  // Both are the same transcript: with no fault source node_fails is false
  // for every node and round and draws no random number.
  template <typename Fn>
  decltype(auto) with_fault_coin(Fn&& fn) const {
    if (faultless()) return fn(std::false_type{});
    return fn(std::true_type{});
  }

  // Rebases this executor onto a fresh randomness stream: new master seed,
  // round counter back to zero, installed adversary re-bound (bind may
  // allocate, hence no noexcept).  A run after reset_stream(s) is
  // transcript-identical to one on an executor constructed with seed s and
  // the same adversary — the supervisor's retry attempts
  // (core/supervisor.hpp) and warm service queries (src/service/) rely on
  // this.  Metrics keep accumulating; callers snapshot/`since` around each
  // run.
  void reset_stream(std::uint64_t seed) {
    seed_ = seed;
    round_ = 0;
    if (adversary_ != nullptr) adversary_->bind(seed_, n_);
  }

  // ---- per-round primitives ----------------------------------------------

  // Starts the next synchronous round and returns its index.
  std::uint64_t begin_round() noexcept {
    ++round_;
    ++metrics_.rounds;
    return round_;
  }

  // Starts the next k rounds at once: the same round counter and Metrics
  // as k begin_round() calls.  Fused multi-round kernels advance a whole
  // pull block up front and draw each round's streams by explicit round.
  void advance_rounds(std::uint64_t k) noexcept {
    round_ += k;
    metrics_.rounds += k;
  }

  // Independent random stream for node v in the current round.  Protocols
  // must draw from it in a fixed program order to stay deterministic.
  [[nodiscard]] SplitMix64 node_stream(std::uint32_t v) const noexcept {
    return streams::node_stream(seed_, round_, v);
  }

  // Samples whether node v's operation fails in the current round.  Uses a
  // dedicated stream so the failure coin does not perturb peer choices.
  // With an adversary installed, a kDrop, kDelay, or kCrash fault on v also
  // reads as a failed operation here (legacy pipelines have no payload layer
  // to corrupt or mailbox to delay into, and no lifecycle notion — a down
  // node simply loses its rounds; kCorrupt is a no-op at this level — only
  // the adversarial pipelines apply it).  The body inlines into the caller
  // but holds two calls it cannot see through (the model's std::function,
  // the adversary's virtual fault()); hot round loops reach it behind
  // with_fault_coin so failure-free runs do not pay for them.
  [[nodiscard]] bool node_fails(std::uint32_t v) const {
    return op_fails(v, round_);
  }

  // Explicit-round variant for fused multi-round kernels that advance the
  // round counter up front (see engine/kernels.cpp).
  [[nodiscard]] bool op_fails(std::uint32_t v, std::uint64_t round) const {
    if (streams::node_fails(seed_, round, v, failures_)) return true;
    if (adversary_ == nullptr) return false;
    const Fault f = adversary_->fault(v, round);
    return f.kind == FaultKind::kDrop || f.kind == FaultKind::kDelay ||
           f.kind == FaultKind::kCrash;
  }

  // Uniformly random node other than v, drawn from `stream`.
  [[nodiscard]] std::uint32_t sample_peer(std::uint32_t v,
                                          SplitMix64& stream) const noexcept {
    return streams::sample_peer(v, n_, stream);
  }

  // Default message budget of the model: Theta(log n) bits, computed as
  // 2*ceil(log2 n) — one value plus one tag word.
  [[nodiscard]] std::uint64_t default_message_bits() const noexcept {
    return gq::default_message_bits(n_);
  }

  // ---- pooled scratch ----------------------------------------------------

  // Executor-pooled working storage for collectives: one default-constructed
  // T per (executor, type), created on first use and reused afterwards so a
  // collective's scratch (e.g. the token split's per-node token store, the
  // multi-quantile lane state) keeps its capacity across calls.  Call from
  // the orchestrating thread only, never from inside a parallel section;
  // reentrancy discipline is the caller's (collectives on one executor run
  // sequentially), and every user re-initialises what it reads.
  template <typename T>
  [[nodiscard]] T& scratch() {
    const std::type_index key(typeid(T));
    for (auto& [type, ptr] : scratch_) {
      if (type == key) return *static_cast<T*>(ptr.get());
    }
    scratch_.emplace_back(
        key, std::unique_ptr<void, void (*)(void*)>(
                 new T(), [](void* p) { delete static_cast<T*>(p); }));
    return *static_cast<T*>(scratch_.back().second.get());
  }

 protected:
  ExecutorCore(std::uint32_t n, std::uint64_t seed, FailureModel failures)
      : n_(n), seed_(seed), failures_(std::move(failures)) {
    GQ_REQUIRE(n >= 2, "a gossip network needs at least two nodes");
  }

  // The run accounting, for the derived executors' round loops.
  [[nodiscard]] Metrics& mutable_metrics() noexcept { return metrics_; }

 private:
  std::uint32_t n_;
  std::uint64_t seed_;
  FailureModel failures_;
  AdversaryStrategy* adversary_ = nullptr;  // borrowed; see set_adversary
  std::uint64_t round_ = 0;
  Metrics metrics_;
  std::vector<std::pair<std::type_index, std::unique_ptr<void, void (*)(void*)>>>
      scratch_;  // per-type pooled collective storage
};

}  // namespace gq
