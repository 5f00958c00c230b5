// QuantileService: the long-lived streaming serving layer over the gossip
// engine.
//
// Every pipeline below this layer is one-shot — keys in, one answer out,
// state discarded.  The service turns that into continuous serving:
//
//   ingest --------> per-node NodeStream (bounded KLL summary, O(k) items)
//   seal (epoch) --> one-key-per-node instance (InstancePolicy)
//                      -> EpochSession (persistent interned table + lanes,
//                         extended incrementally, engine hand-off)
//   query ---------> Engine pipelines re-run on demand over the sealed
//                    instance (approx/exact tournaments, exact gossip
//                    counting for rank/CDF), warm across queries
//
// ## Epoch barrier
//
// Ingest and churn accumulate against the *open* epoch; queries only ever
// observe a *sealed* one.  The first query after any mutation seals
// implicitly (or call seal() for an explicit barrier); all queries of one
// query_batch observe the same epoch.  Within an epoch, queries are
// repeatable: the instance, session, and membership are frozen.  A
// zero-length ingest batch is not a mutation and opens no epoch.
//
// What a seal costs.  ingest() records each node it touches, once per
// epoch.  Under kLocalQuantile a node's key depends on its own stream alone,
// so while the contributor set stands (no join, no leave, no first ingest
// into an empty stream) a seal recomputes only the touched nodes' slots —
// contributors are ascending, so a node's slot is a binary search away —
// and hands the session just the slots whose key moved (EpochSession's
// slot-targeted update): O(touched) summary quantiles plus O(touched log d)
// searches and linear passes over the session table (d keys) and lanes
// (m).  A membership change renumbers the slots and every kGlobalResample
// slot depends on every stream, so those seals recompute all m slots and
// pay the full-scan session update.  Either way the sealed instance,
// session and replies are exactly those of a full rebuild;
// ServiceStats::seal_recomputed_slots counts the slots seals recomputed.
//
// ## Determinism and warm == cold
//
// A service's entire life is a pure function of (config, call log).  Each
// query runs the engine on its own derived stream seed after
// Engine::reset_stream, so a warm-session query is **bit-identical** to a
// cold one-shot run of the same pipeline on a fresh Engine(m, seed) over
// the same instance — at 1, 2, and 8 threads and any shard/block size —
// which tests/test_service.cpp pins via reply fingerprints.  What the warm
// session reuses (thread pool, scatter arena, pooled kernel scratch, the
// adopted intern session) is exactly the observationally-neutral state.
//
// ## Churn
//
// join()/leave() change membership between epochs; the next seal re-shards
// the session: contributors are renumbered 0..m-1 in ascending node-id
// order, the instance is rebuilt over them, and the engine is reconstructed
// when m changed (shard geometry is fixed per Engine).  A join/leave
// sequence converging to the same per-node streams answers pinned-seed
// queries identically to a fresh service built on that membership.
//
// ## Resilience
//
// Every gossip-backed query runs through the deterministic supervisor,
// supervise() in core/supervisor.hpp: a failed attempt — pipeline abort,
// served fraction below policy, round deadline — retries with a reseeded
// stream and escalated parameters (approximate quantiles move to the
// filtered robust pipeline), up to the configured budget.  Attempt 0 uses
// the query's own seed with untouched parameters, so a query whose first
// attempt succeeds is bit-identical to a cold one-shot run.  When the
// budget is exhausted the service *degrades instead of throwing*: the reply
// is answered from the sealed epoch's merged summary sketch (rank error <=
// the sketch's bound), tagged AnswerQuality::kDegraded with the bound in
// error_bound.  Under kLocalQuantile that sketch is built from the frozen
// instance on the epoch's first degraded reply; under kGlobalResample it
// merges the live streams, which keep changing after the seal, so the seal
// builds it.
//
// A per-QueryKind circuit breaker sits in front of the supervisor: after
// `breaker.open_after` consecutive exhausted queries of one kind the
// breaker opens and subsequent queries of that kind serve the degraded
// answer immediately (no gossip, no attempt budget burned) for
// `breaker.cooldown_queries` queries of that kind; the next query is the
// half-open probe that either closes the breaker or re-opens it.  All
// transitions advance on query counts, never wall time, so the whole
// resilience layer is as deterministic and replayable as the pipelines.
//
// ## Errors
//
// Gossip faults never throw: a pipeline abort (a typed ExactPipelineError,
// see core/result.hpp) or a convergence failure is a failed attempt, and an
// exhausted budget degrades.  Structural misuse (unknown node ids, ingest
// into departed nodes, NaN values, malformed requests, queries with fewer
// than two contributing nodes, a zero attempt budget) throws
// std::invalid_argument via GQ_REQUIRE regardless — misuse is a bug, not a
// fault to absorb.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "engine/engine.hpp"
#include "service/node_stream.hpp"
#include "service/query.hpp"
#include "service/service_config.hpp"
#include "service/session.hpp"
#include "sketch/kll.hpp"
#include "util/histogram.hpp"

namespace gq {

// Service-lifetime counters (cheap snapshot, see QuantileService::stats).
struct ServiceStats {
  std::uint64_t epoch = 0;             // sealed epochs so far
  std::uint64_t queries = 0;           // queries answered
  std::uint64_t ingested = 0;          // values ingested service-wide
  std::uint32_t live_nodes = 0;        // joined minus departed
  std::uint32_t contributing_nodes = 0;  // live with data (last seal)
  std::size_t max_node_items = 0;      // max per-node summary space
  std::size_t session_table_keys = 0;  // interned table size
  std::uint64_t session_rebuilds = 0;  // full intern sorts paid
  std::uint64_t session_extends = 0;   // incremental table merges paid
  std::uint64_t session_reuse_hits = 0;  // seals with zero new keys
  std::uint64_t engine_rebuilds = 0;   // membership-change reconstructions
  std::uint64_t gossip_rounds = 0;     // rounds of every engine so far
  // Instance slots recomputed by seals: a trickle seal adds its touched
  // nodes, a membership change or kGlobalResample seal adds m.
  std::uint64_t seal_recomputed_slots = 0;

  // Resilience counters (see "Resilience" below).
  std::uint64_t retry_attempts = 0;    // supervised attempts beyond the first
  std::uint64_t degraded_answers = 0;  // replies served from the summary
  std::uint64_t breaker_opens = 0;     // closed/half-open -> open transitions
};

class QuantileService {
 public:
  using Stream = NodeStream<KllSketch>;

  explicit QuantileService(std::uint32_t initial_nodes,
                           ServiceConfig config = ServiceConfig{});
  ~QuantileService();

  // ---- membership and ingest (mutations against the open epoch) ---------

  // Adds a node and returns its id (ids are stable handles, never reused).
  std::uint32_t join();
  void leave(std::uint32_t node);

  void ingest(std::uint32_t node, double value);
  void ingest(std::uint32_t node, std::span<const double> values);

  // ---- epoch barrier -----------------------------------------------------

  // Seals the open epoch (no-op when nothing changed): freezes membership,
  // recomputes the instance slots that may have changed (see "What a seal
  // costs"), updates the interned session, re-shards the engine if
  // membership size changed.  Returns the sealed epoch number.
  std::uint64_t seal();

  // ---- queries (always observe the latest sealed epoch) ------------------

  [[nodiscard]] QueryReply query(const QueryRequest& request);
  [[nodiscard]] std::vector<QueryReply> query_batch(
      std::span<const QueryRequest> requests);

  // ---- observability -----------------------------------------------------

  // The sealed instance (key i belongs to contributor slot i).  Valid until
  // the next seal; requires at least one seal.
  [[nodiscard]] std::span<const Key> epoch_keys() const;

  // The interned session encoding the sealed instance.
  [[nodiscard]] const EpochSession& session() const noexcept {
    return session_;
  }

  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }
  [[nodiscard]] std::uint32_t live_nodes() const noexcept { return live_; }
  [[nodiscard]] const ServiceConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] ServiceStats stats() const;

  // Per-kind end-to-end query latency (ns), recorded only while
  // gq::telemetry is enabled — with telemetry off the query path reads no
  // clocks.  The histograms are log-bucketed (12.5% max relative error);
  // use quantile(0.5/0.9/0.99/0.999) for percentiles.
  [[nodiscard]] const LogHistogram& query_latency(QueryKind kind) const;

  // Human-readable per-kind latency percentiles (one line per kind with
  // recorded samples), and a Prometheus-style exposition of the same plus
  // the ServiceStats counters.
  [[nodiscard]] std::string latency_summary() const;
  [[nodiscard]] std::string prometheus_text() const;

  // Current circuit-breaker state of a query kind (observability; the
  // breaker itself is driven entirely by query()).
  enum class BreakerState : std::uint8_t { kClosed, kOpen, kHalfOpen };
  [[nodiscard]] BreakerState breaker_state(QueryKind kind) const noexcept;

 private:
  // Circuit breaker state of one query kind; see the Resilience overview.
  // All fields advance on queries of that kind only.
  struct Breaker {
    BreakerState state = BreakerState::kClosed;
    std::uint32_t consecutive_failures = 0;
    std::uint64_t kind_queries = 0;  // queries of this kind so far
    std::uint64_t opened_at = 0;     // kind_queries when last opened
  };

  [[nodiscard]] Stream& live_stream(std::uint32_t node);
  [[nodiscard]] Stream& ingest_target(std::uint32_t node);
  void build_instance(bool every_slot);
  void build_degraded_summary();
  [[nodiscard]] std::uint64_t next_query_seed(const QueryRequest& request);
  void prepare_engine(std::uint64_t seed);

  // One supervised query: request validation, breaker consultation, the
  // supervise() attempt loop dispatching on the query kind, and the degraded
  // fallback on exhaustion.
  QueryReply run_resilient(const QueryRequest& request, std::uint64_t seed);
  QueryReply degraded_reply(const QueryRequest& request, std::uint64_t seed,
                            std::uint32_t attempts_spent);
  void record_outcome(Breaker& breaker, bool exhausted);

  // One attempt's pipeline body per kind, on the engine prepare_engine
  // rebased onto the attempt's seed.
  QueryReply run_quantile(const QueryRequest& request, const AttemptPlan& plan);
  QueryReply run_exact(const QueryRequest& request);
  QueryReply run_rank(const QueryRequest& request);
  QueryReply run_cdf(const QueryRequest& request);
  QueryReply run_multi_quantile(const QueryRequest& request,
                                const AttemptPlan& plan);

  ServiceConfig cfg_;
  // Index = node id; departed nodes leave a null slot (ids stay stable).
  std::vector<std::unique_ptr<Stream>> streams_;
  std::uint32_t live_ = 0;
  std::vector<std::uint32_t> contributors_;  // node ids, last seal
  std::vector<Key> instance_;                // one key per contributor
  EpochSession session_;
  std::unique_ptr<Engine> engine_;
  // Open-epoch mutations: a contributor-set change, and the nodes ingested
  // into (each once; touched_mark_ is indexed by node id).
  bool membership_changed_ = true;
  std::vector<std::uint32_t> touched_;
  std::vector<bool> touched_mark_;
  std::vector<std::uint32_t> changed_slots_;  // seal scratch: moved keys
  std::uint64_t seal_recomputed_slots_ = 0;
  std::uint64_t epoch_ = 0;  // sealed epoch counter
  std::uint64_t query_seq_ = 0;
  std::uint64_t queries_ = 0;
  std::uint64_t ingested_ = 0;
  std::uint64_t engine_rebuilds_ = 0;
  std::uint64_t retired_rounds_ = 0;  // rounds of engines replaced by a seal
  std::vector<bool> indicator_a_, indicator_b_, indicator_c_;  // rank scratch
  std::array<LogHistogram, 5> query_latency_ns_;  // indexed by QueryKind

  // Resilience state: the epoch's merged summary (degraded answers), the
  // per-kind breakers, and the lifetime counters surfaced via stats().
  std::unique_ptr<KllSketch> degraded_summary_;  // null until built
  std::array<Breaker, 5> breakers_;              // indexed by QueryKind
  std::uint64_t retry_attempts_ = 0;
  std::uint64_t degraded_answers_ = 0;
  std::uint64_t breaker_opens_ = 0;
};

}  // namespace gq
