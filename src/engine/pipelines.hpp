// Engine-native quantile pipelines: the headline algorithms of the paper —
// approx_quantile (Theorem 2.1 / 1.2) and exact_quantile (Theorem 1.1) —
// running end-to-end on the sharded parallel Engine, plus the round kernels
// of the gossip collectives they are built from.
//
// Every pipeline here is an overload of its sequential namesake taking
// Engine& instead of Network&, returns the same result struct, and is
// **bit-identical** to the sequential path — same outputs, same round
// counts, same Metrics — at every thread count and shard size (pinned by
// tests/test_engine.cpp).  Porting a caller is a one-line change of the
// executor type; see examples/quickstart.cpp.
//
// The collectives themselves (spread_min / spread_max / spread_min_max in
// agg/spread.hpp, gossip_count / gossip_rank / gossip_count3 in
// agg/rank_count.hpp, sample_uniform_candidate in core/pivot.hpp) are one
// template each over the executor; the Engine contributes only their two
// round kernels, push_sum_average_multi and spread_best, declared below and
// found by argument-dependent lookup.  The exact pipeline's control flow is
// not duplicated either: both executors instantiate the shared template in
// core/exact_pipeline.hpp.
//
// How bit-identity survives the push patterns: the pull-shaped kernels
// (spreads, tournaments) parallelise with per-node output slots, while the
// push-shaped ones — push-sum counting and the Step-7 token split — route
// their traffic through engine/scatter.hpp, which applies payloads to each
// destination in ascending sender order, exactly the order the sequential
// for-loop produces.  On a one-shard engine push-sum skips the scatter: its
// single send task already produces that order, so it folds each message
// into the destination as it is sent.
//
// Scope: both the failure-free and the Section-5 failure model.  The round
// kernels below (spread, push-sum, token split) honour FailureModel
// directly, and under a failure model the pipelines route through the
// engine-native robust kernels (engine/kernels.hpp: robust_two_tournament /
// robust_three_tournament / robust_coverage, which share the schedule
// control flow with core/robust.cpp via core/robust_pipeline.hpp) — so
// adversarial sweeps run at n = 10^7 with the same bit-identity guarantee,
// pinned by tests/test_engine_robust.cpp.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "agg/push_sum.hpp"
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

// ---- round kernels and the token split ------------------------------------

// The round kernels and the token split are defined in
// engine/collectives.cpp, the pipelines in engine/pipelines.cpp.

// The Engine's push-sum round kernel, bit-identical to the Network's in
// agg/push_sum.hpp; the counting templates of agg/rank_count.hpp call it.
// Instantiated for D = 1 and D = 3.
template <std::size_t D>
[[nodiscard]] MultiPushSumResult<D> push_sum_average_multi(
    Engine& engine, std::span<const std::array<double, D>> x,
    std::uint64_t rounds = 0);

// The Engine's spread round kernel, bit-identical to the Network's in
// agg/spread.hpp; the spreads there and core/pivot.hpp's pivot sampling
// call it.  On a one-shard engine Key and MinMaxKeys payloads run on
// interned ranks: one KeyInterner table over every payload lane
// (sim/key_intern.hpp), a 4-byte rank per lane and node in the rounds,
// table[rank] written back into the result.  On multi-shard engines, where
// that serial intern outweighs the parallel rank rounds, and for the
// pivot's PriorityKey payloads, the payloads run as they are.
// Instantiated for the payloads those use: KeepBetter over std::less<Key>
// and std::greater<Key>, MinMaxJoin, and KeepBetter over
// pivot_detail::PriorityLess.
template <typename T, typename Join>
[[nodiscard]] GenericSpreadResult<T> spread_best(
    Engine& engine, std::vector<T> cur, Join join,
    std::uint64_t bits_per_message, std::uint64_t max_rounds = 0);

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
