// Configuration for the streaming quantile service (see quantile_service.hpp
// for the subsystem overview).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/params.hpp"
#include "core/supervisor.hpp"
#include "engine/engine_config.hpp"
#include "sim/failure_model.hpp"

namespace gq {

class AdversaryStrategy;

// Per-QueryKind circuit breaker (see quantile_service.hpp "Resilience").
// State advances on *query counts of that kind*, never on wall time, so the
// breaker's behaviour is part of the service's deterministic call-log
// contract.
struct CircuitBreakerConfig {
  // Consecutive supervisor-exhausted queries of one kind that trip the
  // breaker open.  0 disables the breaker entirely (every query runs the
  // full attempt budget).
  std::uint32_t open_after = 3;

  // While open, this many queries of the kind are served degraded without
  // touching the engine; the next one after the cooldown is the half-open
  // probe (full supervised run — success closes the breaker, failure
  // re-opens it for another cooldown).
  std::uint64_t cooldown_queries = 8;
};

// How a sealed epoch turns the live per-node stream summaries into the
// one-key-per-node gossip instance the engine pipelines run on.
enum class InstancePolicy {
  // Node v contributes its own stream's median.  Fully local — in a real
  // deployment every node derives its key from its own summary with no
  // coordination — so queries answer *fleet* questions: "the p99 across
  // servers of per-server median latency".
  kLocalQuantile,
  // The epoch instance is the m-point equi-depth resample of the merged
  // global summary (all node sketches merged in ascending node order under
  // a fixed seed).  Queries then track the quantiles of the *union* of all
  // ingested values, within the summary's rank-error bound plus the 1/(2m)
  // resample granularity.  The merge is performed by the epoch seal — the
  // simulation-harness counterpart of a summary-aggregation pre-pass — and
  // its cost is O(live_nodes * k).
  kGlobalResample,
};

struct ServiceConfig {
  // Master seed: per-node summary seeds, per-query engine streams, and the
  // global-resample merge accumulator all derive from it, so a service's
  // entire life is a pure function of (config, ingest/churn/query log).
  std::uint64_t seed = 1;

  // Per-node summary accuracy knob (KLL top-level capacity): per-node state
  // is O(sketch_k) items regardless of how many values the node ingests.
  std::size_t sketch_k = 256;

  InstancePolicy instance_policy = InstancePolicy::kLocalQuantile;

  // Defaults for quantile queries; per-request fields override (see
  // query.hpp).
  ApproxQuantileParams approx;
  ExactQuantileParams exact;

  // The gossip executor the queries run on.  Results are bit-identical at
  // every threads/shard_size/gather_block setting, like every other layer.
  EngineConfig engine;

  // Failure model applied to query-time gossip: queries route through the
  // robust Section-5 pipelines and replies report the served-node count.
  FailureModel failures;

  // Optional adversary installed on the query engine at every seal
  // (borrowed, not owned; must outlive the service).  Crash-churn and
  // adaptive strategies from sim/adversary.hpp attack warm queries exactly
  // as they attack cold one-shot runs — the warm == cold reply pins hold
  // under an installed adversary too.
  AdversaryStrategy* adversary = nullptr;

  // Retry/escalation budget every query runs under (supervise() in
  // core/supervisor.hpp; max_attempts must be at least 1).  A clean first
  // attempt is transcript-identical to the unsupervised pipeline, so
  // zero-fault services never see the supervisor.  An exhausted budget
  // serves a kDegraded answer from the epoch's summary sketch.
  SupervisorPolicy supervisor;

  CircuitBreakerConfig breaker;

  // A session table more than this many times larger than the current
  // instance's node count is compacted by a full re-intern on the next
  // seal.  Stale keys (retired representatives, departed nodes) are
  // correctness-neutral but cost table memory and binary-search depth.
  std::uint32_t session_compact_factor = 4;
};

}  // namespace gq
