// Batched whole-algorithm kernels on the parallel Engine.
//
// These run the core/ algorithms as sharded round kernels over contiguous
// engine-pooled state: no virtual dispatch, no per-node allocation, one to
// three parallel sections per gossip round.  State lives in 32-bit
// *interned key ranks* (sim/key_intern.hpp): the state's distinct keys are
// interned into a sorted table once per pipeline — reused across
// consecutive kernels via an exactly-verified session — and commits read
// the live buffer and write its ping-pong partner, so the live buffer
// doubles as the iteration-start snapshot with no copy.  Rank order is key
// order, so min/max/median commits decide identically while a random peer
// gather touches a 4-byte entry (16 per cache line) instead of a Key
// record.
//
// Hot loops are *blocked*: for each block of EngineConfig::gather_block
// nodes a round first materialises the block's peer picks into pooled
// index lanes (per-node draw order unchanged), issues software prefetches
// over the peer lane lines, then runs the compute pass against warm lines
// — turning the latency-bound random gather into a prefetchable stream.
// Round accounting stays O(shards): messages are counted in per-shard
// register accumulators and flushed once per parallel section via
// Metrics::record_messages.
//
// Each kernel is **bit-identical** to its sequential counterpart — same
// per-node draw order from the counter-based streams, same commit rule,
// same Metrics, at every gather_block value — which the engine test suite
// pins at 1, 2, and 8 threads:
//
//   * median_rule_keys        == baselines/median_rule ([DGM+11])
//   * multi_* lane kernels    == core/multi_quantile.cpp (Algorithms 1-2,
//                                one lane or q lanes of the shared schedule)
//   * robust_two_tournament   == core/robust.cpp (Section 5.1)
//   * robust_three_tournament == core/robust.cpp (Section 5.1)
//   * robust_coverage         == core/robust.cpp (Theorem 1.4 tail)
//
// two_tournament and three_tournament are one lane of the lane kernels
// (core/multi_pipeline.hpp: two_tournament_impl / three_tournament_impl),
// with the same pre-/post-conditions and outcome structs as the Network
// overloads.  The per-iteration observer hook is not offered here: it
// would force materialising the AoS state every iteration, defeating the
// batching — use the sequential path for instrumented runs.  The robust
// kernels share the schedule-level control flow with the sequential path
// via core/robust_pipeline.hpp and accept any FailureModel.
//
// The robust kernels batch the k-fold fan-out pulls of Section 5.1 by
// advancing the round counter for a whole pull block up front and letting
// each node fold its own good samples directly from the immutable
// block-start snapshot — one parallel section per iteration instead of
// k round sweeps, with the n x k sample matrix of the sequential path
// replaced by three pooled per-node sample slots (per-shard slices for the
// final K-sample step).  A node records the peers of its successful pulls
// first — prefetching the first few peers' good-flag and rank-lane lines
// while the remaining draws' ALU work runs — then folds them in pull-round
// order, which collects exactly the sequential path's samples.  Good
// flags, rank lanes, and pick slices live in Engine::scratch, so
// steady-state robust rounds allocate nothing (tests/test_engine_alloc.cpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "baselines/median_rule.hpp"
#include "core/multi_pipeline.hpp"
#include "core/robust_pipeline.hpp"
#include "core/three_tournament.hpp"
#include "core/two_tournament.hpp"
#include "engine/engine.hpp"
#include "sim/key.hpp"

namespace gq {

// The [DGM+11] median rule on the engine; see baselines/median_rule.hpp.
// Each iteration is two pull rounds billed key_bits(n) per message; a node
// commits median(own, a, b) when both samples arrived, and a node whose
// first pull failed skips its second.  Accepts any FailureModel or
// adversary.
[[nodiscard]] MedianRuleResult median_rule_keys(Engine& engine,
                                                std::span<const Key> keys,
                                                const MedianRuleParams& params);

// Algorithm 1 (2-TOURNAMENT) on the engine, as one lane of the shared
// kernels below; see core/two_tournament.hpp.
TwoTournamentOutcome two_tournament(Engine& engine, std::vector<Key>& state,
                                    double phi, double eps,
                                    bool truncate_last = true);

// Algorithm 2 (3-TOURNAMENT) on the engine, as one lane of the shared
// kernels below; see core/three_tournament.hpp.
ThreeTournamentOutcome three_tournament(Engine& engine,
                                        std::vector<Key>& state, double eps,
                                        std::uint32_t final_sample_size = 15);

// Robust Algorithm 1 on the engine; see core/robust.hpp.  `good` is the
// per-node good flag, carried across phases (pass all-true initially).
RobustTwoTournamentOutcome robust_two_tournament(Engine& engine,
                                                 std::vector<Key>& state,
                                                 std::vector<bool>& good,
                                                 double phi, double eps,
                                                 bool truncate_last = true);

// Robust Algorithm 2 on the engine, including the robust final sampling
// step; see core/robust.hpp.
RobustThreeTournamentOutcome robust_three_tournament(
    Engine& engine, std::vector<Key>& state, std::vector<bool>& good,
    double eps, std::uint32_t final_sample_size = 15);

// Coverage tail on the engine: for `t` rounds every unserved node pulls
// and adopts the output of any served node it reaches.  Returns rounds
// consumed; see core/robust.hpp.
std::uint64_t robust_coverage(Engine& engine, std::vector<Key>& outputs,
                              std::vector<bool>& valid, std::uint32_t t);

// ---- shared-schedule lane kernels (core/multi_pipeline.hpp) ---------------
//
// Per-node state is a node-major q-lane matrix of interned ranks (q lanes
// x 4 bytes: q = 16 lanes fit one cache line), ping-ponged between two
// pooled matrices; one peer draw per node per round serves every lane, and
// the blocked gather prefetches whole peer *rows*.  The key multiset is
// interned ONCE in multi_tournament_begin, and the one radix sort is
// amortised over q lanes of gather rounds.  Each kernel is compiled for
// one lane — the single-target pipeline, with no per-lane loop, stride or
// tournament bitmask left — and for a run-time lane count; the count
// passed to multi_tournament_begin picks the instance.  The intern
// session's rank lane is left untouched until multi_lane_export, so a
// service session's adopted encoding stays valid across multi runs, and an
// export leaves the session claiming the exported state.
//
// Failure-free only: the shared control flow routes robust runs through
// per-target robust pipelines (see core/multi_pipeline.hpp).  Driven by
// engine/pipelines.cpp and by two_tournament / three_tournament above
// through the shared templates; bit-identity against the sequential
// core/multi_quantile.cpp instantiation is pinned by
// tests/test_engine_multi.cpp and tests/test_engine.cpp at 1/2/8 threads.
void multi_tournament_begin(Engine& engine, std::span<const Key> keys,
                            std::uint32_t lanes);
void multi_two_iteration(Engine& engine,
                         std::span<const MultiLaneStep> steps);
void multi_three_iteration(Engine& engine);
void multi_final_sample(Engine& engine, std::uint32_t k_samples,
                        std::vector<std::vector<Key>>& outputs);
void multi_lane_export(Engine& engine, std::uint32_t lane,
                       std::span<Key> state);

// Session reuse hook for long-lived callers (src/service/): seeds the
// kernels' interned session with an externally maintained encoding of the
// state the caller is about to run a pipeline on — `table` sorted distinct
// (a superset of the state's distinct keys is fine), `lanes[v]` the table
// rank of node v's key.  The next kernel's existing exact verify pass
// (state[v] == table[lanes[v]]) then hits and the intern's radix sort is
// skipped; a caller handing over a stale or wrong encoding just fails the
// verify and pays a fresh intern, never a wrong answer.  Every tournament
// kernel consults the session (median dynamics only on runs long enough to
// intern), and a kernel that mutates the key multiset mid-pipeline (the
// exact pipeline's duplication step) re-interns exactly as it would cold.
void adopt_intern_session(Engine& engine, std::span<const Key> table,
                          std::span<const std::uint32_t> lanes);

}  // namespace gq
