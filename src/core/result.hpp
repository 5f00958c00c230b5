// Result structs and typed errors for the quantile protocols.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/key.hpp"
#include "sim/metrics.hpp"

namespace gq {

// A run of the exact pipeline (Algorithm 3) aborted: under heavy failure
// noise at small n the count-based machinery can mis-count — a pivot's
// measured rank contradicts the bracketing state, the candidate set runs
// dry, or the final verification disagrees — and the w.h.p. analysis no
// longer applies.  This is thrown instead of returning a wrong answer.
//
// The error is *recoverable*: the executor (Network or Engine) remains
// fully usable — rounds already consumed stay billed in Metrics, and the
// caller can rerun with a fresh seed, a larger n, or a lighter failure
// model.  Both executors share one copy of the pipeline control flow
// (core/exact_pipeline.hpp), so for the same (input, seed, failure model)
// they throw the same kind at the same point; tests/test_engine_robust.cpp
// pins that.  Derives from std::runtime_error so pre-existing catch sites
// keep working.
class ExactPipelineError : public std::runtime_error {
 public:
  enum class Kind {
    // The selection endgame found no remaining candidate between its
    // brackets: an exact count must have been wrong.
    kEndgameNoCandidates,
    // The selection endgame exhausted kMaxEndgamePhases
    // (core/exact_pipeline.hpp) without landing on rank k.
    kEndgameStalled,
    // Bracketing discarded every candidate (rank counts inconsistent).
    kBracketingEmptied,
    // The final answer's measured rank disagreed with the target on every
    // verification attempt.
    kVerificationFailed,
  };

  // Structured context captured at the throw site, so supervisor RunReports
  // and logs can say *which* run aborted *where* without parsing what().
  // Both executors fill it from the shared control flow, so the context —
  // like the kind — is part of the bit-identical differential contract.
  struct Context {
    std::uint64_t seed = 0;   // executor master seed of the aborted run
    std::uint64_t round = 0;  // round counter when the abort fired
    std::uint32_t n = 0;      // network size
    const char* phase = "";   // static phase label, e.g. "selection_endgame"

    friend bool operator==(const Context&, const Context&) = default;
  };

  ExactPipelineError(Kind kind, const char* what, const Context& context)
      : std::runtime_error(format(kind, what, context)),
        kind_(kind),
        context_(context) {}

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] const Context& context() const noexcept { return context_; }

 private:
  static const char* kind_name(Kind kind) noexcept {
    switch (kind) {
      case Kind::kEndgameNoCandidates: return "endgame-no-candidates";
      case Kind::kEndgameStalled: return "endgame-stalled";
      case Kind::kBracketingEmptied: return "bracketing-emptied";
      case Kind::kVerificationFailed: return "verification-failed";
    }
    return "unknown";
  }

  static std::string format(Kind kind, const char* what,
                            const Context& context) {
    std::string s = "exact pipeline abort [";
    s += kind_name(kind);
    s += "] phase=";
    s += context.phase;
    s += " round=" + std::to_string(context.round);
    s += " n=" + std::to_string(context.n);
    s += " seed=" + std::to_string(context.seed);
    s += ": ";
    s += what;
    return s;
  }

  Kind kind_;
  Context context_;
};

struct ApproxQuantileResult {
  // outputs[v]: the key node v settles on.  Under the failure model a node
  // can end the protocol without an answer; valid[v] marks served nodes
  // (always all-true in the failure-free model).
  std::vector<Key> outputs;
  std::vector<bool> valid;

  std::size_t phase1_iterations = 0;  // 2-TOURNAMENT iterations executed
  std::size_t phase2_iterations = 0;  // 3-TOURNAMENT iterations executed
  std::uint64_t rounds = 0;           // total gossip rounds consumed
  bool used_exact_fallback = false;   // eps below floor: exact pipeline ran

  [[nodiscard]] std::size_t served_nodes() const {
    std::size_t c = 0;
    for (bool b : valid) c += b ? 1 : 0;
    return c;
  }
};

// Where an exact run's rounds went, by gossip substrate of Algorithm 3.
// Measured as Metrics::rounds deltas around each substrate call over every
// verification attempt, so the fields sum to ExactQuantileResult::rounds.
struct ExactRoundBreakdown {
  std::uint64_t brackets = 0;      // inner approx runs: Steps 3-4 and 10
  std::uint64_t spreads = 0;       // bracket extremes and answer broadcasts
  std::uint64_t counts = 0;        // Step 5 triple counts
  std::uint64_t token_split = 0;   // Steps 7-8 duplication
  std::uint64_t endgame = 0;       // selection phases: pivots and ranks
  std::uint64_t verification = 0;  // the answer's rank check per attempt

  [[nodiscard]] std::uint64_t total() const {
    return brackets + spreads + counts + token_split + endgame +
           verification;
  }
  friend bool operator==(const ExactRoundBreakdown&,
                         const ExactRoundBreakdown&) = default;
};

struct ExactQuantileResult {
  Key answer;                 // the exact phi-quantile of the input
  std::vector<Key> outputs;   // per-node copy of the answer
  std::vector<bool> valid;    // nodes that learned the answer
  std::uint64_t rounds = 0;   // total gossip rounds consumed
  std::size_t iterations = 0; // bracketing iterations executed
  std::size_t endgame_phases = 0;  // selection phases after bracketing
  ExactRoundBreakdown round_breakdown;  // `rounds` by substrate
};

struct OwnRankResult {
  // estimates[v]: node v's estimate of its own quantile rank(x_v)/n.
  std::vector<double> estimates;
  std::vector<bool> valid;
  std::uint64_t rounds = 0;
  std::size_t quantile_runs = 0;  // number of approx-quantile invocations
};

}  // namespace gq
