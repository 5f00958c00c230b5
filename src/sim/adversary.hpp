// Message-level adversarial fault injection (the 2502.15320 model).
//
// The paper's Section-5 FailureModel is *oblivious*: whether node v's
// operation in round r is lost is a coin fixed before the protocol starts.
// The authors' follow-up (arXiv 2502.15320, Haeupler-Kaufmann-Ravi,
// "Adversarially-Robust Gossip Algorithms for Approximate Quantile and Mean
// Computations") strengthens the model to an *adaptive* adversary that
// watches the execution and, under a per-round budget, corrupts, drops, or
// delays messages of its choosing.
//
// AdversaryStrategy is that adversary as an interface:
//
//   * observe(RoundWindow)  — called once per fused round block on the
//     orchestrating thread, before the block's rounds execute.  The window
//     carries the upcoming rounds plus a read-only snapshot of the state the
//     adversary may inspect (adaptive strategies pick targets here).
//   * fault(node, round)    — pure and thread-safe: the fault (if any) the
//     adversary applies to `node`'s message in `round`.  Both executors
//     query it — the sequential Network from its single thread, the Engine
//     from parallel shards — so implementations must not mutate state here.
//
// Determinism contract: fault() must be a pure function of (bind seed, all
// windows observed so far, node, round).  Both executors observe identical
// windows at identical points (the shared pipeline templates guarantee it),
// so transcripts stay bit-identical between Network and Engine at any
// thread count — the same discipline every kernel in this repo obeys.
//
// The oblivious special case: ObliviousAdversary wraps a FailureModel and
// reports it through oblivious_model().  Executors absorb that model into
// their own failure model at set_adversary() time, so an executor with an
// oblivious adversary is *exactly* an executor constructed with the
// FailureModel — same fan-out sizing, same failure coins, same transcript.
//
// Fault semantics by execution layer:
//   * kDrop     — the message is destroyed in transit.  Legacy pipelines see
//     it as a failed operation (node_fails() returns true); the adversarial
//     pipelines tally it separately (Metrics::adversary_dropped).
//   * kCorrupt  — the payload is replaced by `Fault::value`.  Only the
//     adversarial pipelines model payloads at the fault layer; legacy
//     pipelines cannot apply a corruption and treat it as kNone.
//   * kDelay    — delivery is postponed by `Fault::delay` rounds (dropped if
//     the block ends first).  Legacy pipelines conservatively treat a
//     delayed message as lost for the round it was sent.
//   * kCrash    — node-lifecycle fault: the node is *down* this round.  A
//     crashed node sends nothing, receives nothing (pulls of its state find
//     nobody home, deliveries addressed to it are lost), and is excluded
//     from served sets while down.  The adversarial pipelines implement the
//     full semantics in their shared fold; legacy pipelines see the crashed
//     node's own rounds as failed operations (op_fails), the same
//     conservative reading they give kDrop/kDelay.
//   * kRecover  — returned exactly on the first round a crashed node is back
//     up.  Message semantics are kNone (the node operates normally); it
//     exists so executors can tally recovery events.  Strategies must emit
//     kCrash for every down round and kRecover only on the round after the
//     last down round.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/failure_model.hpp"
#include "sim/key.hpp"

namespace gq {

enum class FaultKind : std::uint8_t {
  kNone,
  kDrop,
  kCorrupt,
  kDelay,
  kCrash,
  kRecover,
};

struct Fault {
  FaultKind kind = FaultKind::kNone;
  double value = 0.0;       // replacement payload for kCorrupt
  std::uint32_t delay = 1;  // postponement in rounds for kDelay
};

// Read-only view of an upcoming fused round block handed to observe().
// Exactly one of `keys` / `values` is non-empty depending on whether the
// pipeline's state is Key-valued or double-valued.
struct RoundWindow {
  std::uint64_t first_round = 0;  // first round index of the block
  std::uint32_t rounds = 0;       // number of rounds in the block
  std::uint32_t n = 0;            // network size
  std::uint64_t seed = 0;         // executor master seed
  std::span<const Key> keys;      // per-node state snapshot (Key pipelines)
  std::span<const double> values;  // per-node state snapshot (mean pipeline)
};

class AdversaryStrategy {
 public:
  virtual ~AdversaryStrategy() = default;

  [[nodiscard]] virtual const char* name() const noexcept = 0;

  // Maximum number of node-messages this strategy touches per round.  Purely
  // informational (benches sweep it); the strategies below enforce it
  // structurally.
  [[nodiscard]] virtual std::uint64_t budget_per_round() const noexcept = 0;

  // Non-null iff this strategy is equivalent to an oblivious FailureModel.
  // Executors absorb the returned model into their own failure model when
  // the adversary is installed (see ExecutorCore::set_adversary), which is
  // what makes FailureModel the exact special case: fan-out sizing and
  // failure coins become indistinguishable from constructing with the model.
  [[nodiscard]] virtual const FailureModel* oblivious_model() const noexcept {
    return nullptr;
  }

  // Whether fault() can ever return kCrash/kRecover.  A property of the
  // strategy, not an option: only strategies that can crash pay the
  // node-lifecycle probes of the adversarial pipelines (the node's own
  // probe ahead of the failure coin, the pulled peer's down check, and the
  // end-of-block served check).  fault() is pure, so skipping the probes
  // for a strategy that never crashes cannot change a transcript.
  [[nodiscard]] virtual bool may_crash() const noexcept { return false; }

  // Called by the executor when the adversary is installed (and again on
  // reset_stream).  Strategies derive all their randomness from this
  // seed so transcripts are reproducible.
  virtual void bind(std::uint64_t seed, std::uint32_t n) {
    seed_ = seed;
    n_ = n;
  }

  // Orchestrating-thread-only hook: inspect the state snapshot for the
  // upcoming block.  Strategies must tolerate fault() queries for rounds
  // they never observed (legacy pipelines do not publish windows) by
  // falling back to a deterministic default.
  virtual void observe(const RoundWindow& window) { (void)window; }

  // The fault applied to `node`'s outgoing message in `round`.  Pure and
  // thread-safe; queried concurrently from engine shards.
  [[nodiscard]] virtual Fault fault(std::uint32_t node,
                                    std::uint64_t round) const = 0;

 protected:
  std::uint64_t seed_ = 0;
  std::uint32_t n_ = 0;
};

// The Section-5 model as an adversary: drops node v's round-r message with
// the wrapped FailureModel's coin — the *same* coin the executors flip
// (streams::node_fails), so installing it on a failure-free executor is
// transcript-identical to constructing the executor with the model.
class ObliviousAdversary final : public AdversaryStrategy {
 public:
  explicit ObliviousAdversary(FailureModel model);

  [[nodiscard]] const char* name() const noexcept override {
    return "oblivious";
  }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override;
  [[nodiscard]] const FailureModel* oblivious_model() const noexcept override {
    return &model_;
  }
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

 private:
  FailureModel model_;
};

// Adaptive corruption: each observed window, targets the `budget` nodes
// whose current state is smallest (dragging the low tail — the worst case
// for a low quantile) and replaces the payloads they receive with
// `inject_value`.  Before the first observation it deterministically
// targets nodes [0, budget).
class GreedyTargetedAdversary final : public AdversaryStrategy {
 public:
  GreedyTargetedAdversary(std::uint32_t budget, double inject_value);

  [[nodiscard]] const char* name() const noexcept override { return "greedy"; }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override {
    return budget_;
  }
  void bind(std::uint64_t seed, std::uint32_t n) override;
  void observe(const RoundWindow& window) override;
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

 private:
  std::uint32_t budget_;
  double inject_value_;
  std::vector<std::uint32_t> targets_;  // sorted node ids, size <= budget_
};

// Eclipse attack: silences every message of the contiguous node range
// [first_target, first_target + budget).  The strongest targeted-drop
// adversary — eclipsed nodes receive nothing and their pushes vanish —
// and the canonical graceful-degradation scenario: everyone else must
// still be served.
class EclipseAdversary final : public AdversaryStrategy {
 public:
  EclipseAdversary(std::uint32_t first_target, std::uint32_t budget);

  [[nodiscard]] const char* name() const noexcept override { return "eclipse"; }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override {
    return budget_;
  }
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

 private:
  std::uint32_t first_target_;
  std::uint32_t budget_;
};

// Scattered corruption: each round, corrupts the messages of a pseudorandom
// `budget`-sized window of nodes (re-drawn per round from the bind seed), so
// any single node's channel is corrupted only in a budget/n fraction of
// rounds.  The regime sample filtering is built for: to move one filtered
// sample the adversary must corrupt a majority of its pull group, which for
// scattered corruption is quadratically rarer than corrupting one pull.
// Contrast with GreedyTargetedAdversary, which parks its whole budget on
// the same nodes and defeats their filters outright (but touches no one
// else).  examples/adversarial_lower_bound.cpp measures the difference.
class ScatterCorruptAdversary final : public AdversaryStrategy {
 public:
  ScatterCorruptAdversary(std::uint32_t budget, double inject_value,
                          std::uint64_t strategy_seed = 0);

  [[nodiscard]] const char* name() const noexcept override {
    return "scatter_corrupt";
  }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override {
    return budget_;
  }
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

 private:
  std::uint32_t budget_;
  double inject_value_;
  std::uint64_t strategy_seed_;
};

// One node-lifecycle episode: `node` is down for rounds
// [crash_round, recover_round) and reports kRecover exactly at
// recover_round.  recover_round == kNoRecovery means the node never comes
// back.
struct CrashEvent {
  std::uint32_t node = 0;
  std::uint64_t crash_round = 0;
  std::uint64_t recover_round = 0;

  friend bool operator==(const CrashEvent&, const CrashEvent&) = default;
};

inline constexpr std::uint64_t kNoRecovery = ~std::uint64_t{0};

// Crash-churn: whole nodes die mid-run and (optionally) come back.  Two
// modes:
//   * randomized — bind() draws `Config::crashes` distinct victims with
//     pseudorandom crash rounds in [first_round, first_round + crash_window)
//     and a fixed downtime, all a pure function of (bind seed, strategy
//     seed, n), so both executors regenerate the identical schedule;
//   * pinned — an explicit CrashEvent schedule, immune to bind() (tests and
//     forced-failure scenarios use this to crash a named node forever).
// fault() is a read-only schedule lookup: pure and thread-safe.
class CrashChurnAdversary final : public AdversaryStrategy {
 public:
  struct Config {
    std::uint32_t crashes = 1;        // distinct victims per run
    std::uint64_t first_round = 1;    // earliest crash round
    std::uint64_t crash_window = 64;  // crash rounds drawn from this span
    std::uint64_t down_rounds = 16;   // downtime; 0 = never recovers
    std::uint64_t strategy_seed = 0;
  };

  explicit CrashChurnAdversary(Config config);
  explicit CrashChurnAdversary(std::vector<CrashEvent> schedule);

  [[nodiscard]] const char* name() const noexcept override {
    return "crash_churn";
  }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override;
  [[nodiscard]] bool may_crash() const noexcept override { return true; }
  void bind(std::uint64_t seed, std::uint32_t n) override;
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

  // The full lifecycle schedule, sorted by (node, crash_round).
  [[nodiscard]] std::span<const CrashEvent> schedule() const noexcept {
    return schedule_;
  }

 private:
  Config config_{};
  bool pinned_ = false;  // explicit schedule: bind() must not regenerate
  std::vector<CrashEvent> schedule_;
};

// Bursty delays: for `burst_rounds` out of every `period` rounds, delays the
// messages of a contiguous window of `budget` nodes by `delay` rounds.  The
// window start is re-drawn pseudorandomly every round from (bind seed,
// strategy seed, round), so the pressure moves around but never exceeds the
// budget.  Exercises the kDelay fault kind end-to-end.
class BudgetBurstAdversary final : public AdversaryStrategy {
 public:
  BudgetBurstAdversary(std::uint32_t budget, std::uint32_t period,
                       std::uint32_t burst_rounds, std::uint32_t delay = 2,
                       std::uint64_t strategy_seed = 0);

  [[nodiscard]] const char* name() const noexcept override {
    return "budget_burst";
  }
  [[nodiscard]] std::uint64_t budget_per_round() const noexcept override {
    return budget_;
  }
  [[nodiscard]] Fault fault(std::uint32_t node,
                            std::uint64_t round) const override;

 private:
  std::uint32_t budget_;
  std::uint32_t period_;
  std::uint32_t burst_rounds_;
  std::uint32_t delay_;
  std::uint64_t strategy_seed_;
};

}  // namespace gq
