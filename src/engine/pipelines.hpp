// Engine-native quantile pipelines: the headline algorithms of the paper —
// approx_quantile (Theorem 2.1 / 1.2) and exact_quantile (Theorem 1.1) —
// running end-to-end on the sharded parallel Engine, plus the batched
// gossip collectives they are built from.
//
// Every function here is an overload of its sequential namesake taking
// Engine& instead of Network&, returns the same result struct, and is
// **bit-identical** to the sequential path — same outputs, same round
// counts, same Metrics — at every thread count and shard size (pinned by
// tests/test_engine.cpp).  Porting a caller is a one-line change of the
// executor type; see examples/quickstart.cpp.
//
// How bit-identity survives the push patterns: the pull-shaped collectives
// (spreads, tournaments) parallelise with per-node output slots as before,
// while the push-shaped ones — push-sum counting and the Step-7 token
// split — route their traffic through engine/scatter.hpp, which applies
// payloads to each destination in ascending sender order, exactly the
// order the sequential for-loop produces.  On a one-shard engine push-sum
// skips the scatter: its single send task already produces that order, so
// it folds each message into the destination as it is sent.  The exact pipeline's control
// flow itself is not duplicated: both executors instantiate the shared
// template in core/exact_pipeline.hpp.
//
// Scope: both the failure-free and the Section-5 failure model.  The
// batched collectives below (spread, count, pivot, token split) honour
// FailureModel directly, and under a failure model the pipelines route
// through the engine-native robust kernels (engine/kernels.hpp:
// robust_two_tournament / robust_three_tournament / robust_coverage, which
// share the schedule control flow with core/robust.cpp via
// core/robust_pipeline.hpp) — so adversarial sweeps run at n = 10^7 with
// the same bit-identity guarantee, pinned by tests/test_engine_robust.cpp.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "agg/rank_count.hpp"
#include "agg/spread.hpp"
#include "core/adversarial_pipeline.hpp"
#include "core/multi_quantile.hpp"
#include "core/params.hpp"
#include "core/pivot.hpp"
#include "core/result.hpp"
#include "core/token_split.hpp"
#include "engine/engine.hpp"
#include "sim/key.hpp"

namespace gq {

// ---- batched collectives --------------------------------------------------

// Min-/max-broadcast over uniform gossip; see agg/spread.hpp.
[[nodiscard]] SpreadResult spread_min(Engine& engine,
                                      std::span<const Key> init,
                                      std::uint64_t max_rounds = 0);
[[nodiscard]] SpreadResult spread_max(Engine& engine,
                                      std::span<const Key> init,
                                      std::uint64_t max_rounds = 0);
[[nodiscard]] GenericSpreadResult<MinMaxKeys> spread_min_max(
    Engine& engine, std::vector<Key> min_init, std::vector<Key> max_init,
    std::uint64_t max_rounds = 0);

// Exact push-sum counting; see agg/rank_count.hpp.
[[nodiscard]] CountResult gossip_count(Engine& engine,
                                       const std::vector<bool>& indicator,
                                       std::uint64_t rounds = 0);
[[nodiscard]] CountResult gossip_rank(Engine& engine,
                                      std::span<const Key> keys,
                                      const Key& threshold,
                                      std::uint64_t rounds = 0);
[[nodiscard]] TripleCountResult gossip_count3(
    Engine& engine, const std::vector<bool>& ind_a,
    const std::vector<bool>& ind_b, const std::vector<bool>& ind_c,
    std::uint64_t rounds = 0);

// Uniform pivot sampling; see core/pivot.hpp.
[[nodiscard]] PivotSample sample_uniform_candidate(
    Engine& engine, std::span<const Key> inst,
    const std::vector<bool>& candidate);

// Token split-and-distribute (Algorithm 3 Step 7) on the scatter
// primitive; see core/token_split.hpp.
[[nodiscard]] TokenSplitResult token_split_distribute(
    Engine& engine, std::span<const Key> inst, std::uint64_t multiplier,
    std::uint64_t tag_base);

// ---- pipelines ------------------------------------------------------------

// The eps-approximate phi-quantile pipeline; see core/approx_quantile.hpp.
// Under a FailureModel the robust Section-5 variants run, and the result's
// `valid` mask reports which nodes were served.
[[nodiscard]] ApproxQuantileResult approx_quantile(
    Engine& engine, std::span<const double> values,
    const ApproxQuantileParams& params);
[[nodiscard]] ApproxQuantileResult approx_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const ApproxQuantileParams& params);

// Corollary 1.5, all q targets in ONE shared tournament schedule; see
// core/multi_quantile.hpp and core/multi_pipeline.hpp.  Bit-identical to
// the sequential multi_quantile at every thread count
// (tests/test_engine_multi.cpp).
[[nodiscard]] MultiQuantileResult multi_quantile(
    Engine& engine, std::span<const double> values,
    const MultiQuantileParams& params);
[[nodiscard]] MultiQuantileResult multi_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const MultiQuantileParams& params);

// Algorithm 3, exact phi-quantile; see core/exact_quantile.hpp.
[[nodiscard]] ExactQuantileResult exact_quantile(
    Engine& engine, std::span<const double> values,
    const ExactQuantileParams& params);
[[nodiscard]] ExactQuantileResult exact_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const ExactQuantileParams& params);

// Corollary 1.5, own-rank estimation; see core/own_rank.hpp.
[[nodiscard]] OwnRankResult own_rank(Engine& engine,
                                     std::span<const double> values,
                                     const OwnRankParams& params);

// The adversarially-robust pipelines (arXiv 2502.15320); see
// core/adversarial.hpp for the model and core/adversarial_pipeline.hpp for
// the shared control flow.  Install a strategy with Engine::set_adversary.
// These kernels run on plain pooled Key buffers, never the interned rank
// lanes — corrupt payloads are values the intern table has never seen.
[[nodiscard]] AdversarialQuantileResult adversarial_quantile(
    Engine& engine, std::span<const double> values,
    const AdversarialQuantileParams& params = {});
[[nodiscard]] AdversarialQuantileResult adversarial_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const AdversarialQuantileParams& params = {});
[[nodiscard]] AdversarialMeanResult adversarial_mean(
    Engine& engine, std::span<const double> values,
    const AdversarialMeanParams& params = {});

}  // namespace gq
