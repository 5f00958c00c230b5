#include "service/quantile_service.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <sstream>
#include <utility>

#include "core/adversarial_pipeline.hpp"
#include "core/supervisor.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"
#include "util/rng.hpp"

namespace gq {
namespace {

constexpr const char* kQueryKindNames[] = {"quantile", "exact_quantile",
                                           "rank", "cdf", "multi_quantile"};

// Disjoint sub-seed spaces off the master seed, so node summaries, query
// streams, and the resample merge can never collide.
constexpr std::uint64_t kSummaryStream = 0x5eed0001;
constexpr std::uint64_t kQueryStream = 0x5eed0002;
constexpr std::uint64_t kMergeStream = 0x5eed0003;
constexpr std::uint64_t kDegradedStream = 0x5eed0004;

// The quantile of its own stream each node contributes under
// kLocalQuantile: the local median.
constexpr double kLocalPhi = 0.5;

// A probe value's threshold key: compares >= every instance key holding the
// same value, so count_le counts exactly the keys with key.value <= probe.
constexpr Key probe_key(double value) {
  return Key{value, std::numeric_limits<std::uint32_t>::max(),
             std::numeric_limits<std::uint64_t>::max()};
}

// The nodes that serve a count: those not down at the engine's current
// round, i.e. the query's last, by the node_down rule the adversarial
// pipelines serve by.  Crashed nodes keep absorbing pushed mass, so the
// survivors' counts drift; counting only live nodes is what lets the
// supervisor's served-fraction check reject such an attempt.  Without a
// crashing adversary every node serves.
std::uint32_t count_served(const Engine& engine) {
  std::uint32_t served = 0;
  for (std::uint32_t v = 0; v < engine.size(); ++v) {
    if (!adversary_detail::node_down(engine.adversary(), v, engine.round())) {
      ++served;
    }
  }
  return served;
}

}  // namespace

QuantileService::QuantileService(std::uint32_t initial_nodes,
                                 ServiceConfig config)
    : cfg_(std::move(config)) {
  GQ_REQUIRE(cfg_.session_compact_factor >= 1,
             "session_compact_factor must be at least 1");
  GQ_REQUIRE(cfg_.supervisor.max_attempts >= 1,
             "supervisor needs at least one attempt");
  streams_.reserve(initial_nodes);
  for (std::uint32_t i = 0; i < initial_nodes; ++i) (void)join();
}

QuantileService::~QuantileService() = default;

std::uint32_t QuantileService::join() {
  const auto id = static_cast<std::uint32_t>(streams_.size());
  streams_.push_back(std::make_unique<Stream>(
      cfg_.sketch_k, derive_seed(derive_seed(cfg_.seed, kSummaryStream), id)));
  touched_mark_.push_back(false);
  ++live_;
  membership_changed_ = true;
  return id;
}

void QuantileService::leave(std::uint32_t node) {
  (void)live_stream(node);  // validates live
  streams_[node].reset();
  --live_;
  membership_changed_ = true;
}

QuantileService::Stream& QuantileService::live_stream(std::uint32_t node) {
  GQ_REQUIRE(node < streams_.size() && streams_[node] != nullptr,
             "unknown or departed node id");
  return *streams_[node];
}

// The live stream about to take `node`'s next values, recorded against the
// open epoch: a first value makes the node a new contributor, a later one
// marks it touched (once per epoch).
QuantileService::Stream& QuantileService::ingest_target(std::uint32_t node) {
  Stream& stream = live_stream(node);
  if (stream.empty()) {
    membership_changed_ = true;
  } else if (!touched_mark_[node]) {
    touched_mark_[node] = true;
    touched_.push_back(node);
  }
  return stream;
}

void QuantileService::ingest(std::uint32_t node, double value) {
  GQ_REQUIRE(!std::isnan(value), "ingested values must not be NaN");
  ingest_target(node).ingest(value);
  ++ingested_;
}

void QuantileService::ingest(std::uint32_t node,
                             std::span<const double> values) {
  // Checked before anything is ingested, so a rejected batch leaves the
  // node's stream untouched.
  GQ_REQUIRE(std::none_of(values.begin(), values.end(),
                          [](double x) { return std::isnan(x); }),
             "ingested values must not be NaN");
  if (values.empty()) {
    (void)live_stream(node);  // validates the id; nothing to seal
    return;
  }
  ingest_target(node).ingest(values);
  ingested_ += values.size();
}

void QuantileService::build_instance(bool every_slot) {
  GQ_SPAN("service/build_instance");
  // Under kLocalQuantile every contributor derives its representative from
  // its own summary; re-id by contributor slot restores cross-node
  // distinctness.
  const auto representative = [&](std::uint32_t slot) {
    const Key local =
        streams_[contributors_[slot]]->local_quantile(kLocalPhi);
    return Key{local.value, slot, 0};
  };
  changed_slots_.clear();
  if (!every_slot) {
    // kLocalQuantile over an unchanged contributor set: only the touched
    // nodes' keys can move, and only moved keys reach the session.
    for (const std::uint32_t node : touched_) {
      const auto slot = static_cast<std::uint32_t>(
          std::lower_bound(contributors_.begin(), contributors_.end(), node) -
          contributors_.begin());
      const Key key = representative(slot);
      if (key != instance_[slot]) {
        instance_[slot] = key;
        changed_slots_.push_back(slot);
      }
    }
    return;
  }
  const auto m = static_cast<std::uint32_t>(contributors_.size());
  instance_.resize(m);
  changed_slots_.resize(m);
  std::iota(changed_slots_.begin(), changed_slots_.end(), 0u);
  switch (cfg_.instance_policy) {
    case InstancePolicy::kLocalQuantile:
      for (std::uint32_t i = 0; i < m; ++i) instance_[i] = representative(i);
      return;
    case InstancePolicy::kGlobalResample: {
      // Merge all summaries (ascending contributor order, fixed seed — a
      // pure function of the stream states) and deal the instance as the
      // merged distribution's m-point equi-depth resample.
      KllSketch merged(cfg_.sketch_k, derive_seed(cfg_.seed, kMergeStream));
      for (const std::uint32_t id : contributors_) {
        merged.merge(streams_[id]->summary());
      }
      for (std::uint32_t i = 0; i < m; ++i) {
        const double phi = (static_cast<double>(i) + 0.5) / m;
        instance_[i] = Key{merged.quantile(phi).value, i, 0};
      }
      return;
    }
  }
  GQ_REQUIRE(false, "unknown instance policy");
}

std::uint64_t QuantileService::seal() {
  if (!membership_changed_ && touched_.empty()) return epoch_;
  GQ_SPAN("service/seal");
  // A membership change renumbers the slots, and a kGlobalResample slot
  // depends on every stream: both recompute every slot.  Otherwise only
  // the touched nodes' slots can have moved.
  const bool every_slot =
      membership_changed_ ||
      cfg_.instance_policy == InstancePolicy::kGlobalResample;
  if (every_slot) {
    contributors_.clear();
    for (std::uint32_t id = 0; id < streams_.size(); ++id) {
      if (streams_[id] != nullptr && !streams_[id]->empty()) {
        contributors_.push_back(id);
      }
    }
    GQ_REQUIRE(contributors_.size() >= 2,
               "sealing an epoch needs >= 2 nodes holding data");
  }
  const auto m = static_cast<std::uint32_t>(contributors_.size());
  build_instance(every_slot);
  // Membership-size changes re-shard: shard geometry is fixed per Engine,
  // so a new m gets a new engine (thread pool and arenas respawn once per
  // churn event, not per query).
  if (engine_ == nullptr || engine_->size() != m) {
    // The retiring engine's rounds stay in the lifetime counter.
    if (engine_ != nullptr) retired_rounds_ += engine_->metrics().rounds;
    engine_ = std::make_unique<Engine>(m, cfg_.seed, cfg_.failures,
                                       cfg_.engine);
    ++engine_rebuilds_;
  }
  // (Re-)install the configured adversary every seal: a rebuilt engine
  // starts bare, and per-query reset_stream rebinds the strategy onto each
  // query's stream seed.
  if (cfg_.adversary != nullptr) engine_->set_adversary(cfg_.adversary);
  session_.update(instance_, changed_slots_, cfg_.session_compact_factor);
  seal_recomputed_slots_ += every_slot ? m : touched_.size();
  for (const std::uint32_t node : touched_) touched_mark_[node] = false;
  touched_.clear();
  membership_changed_ = false;
  // kGlobalResample's summary merges the live streams, which change after
  // the seal, so it is built now; kLocalQuantile's is built from the frozen
  // instance by the epoch's first degraded reply.
  degraded_summary_.reset();
  if (cfg_.instance_policy == InstancePolicy::kGlobalResample) {
    build_degraded_summary();
  }
  return ++epoch_;
}

void QuantileService::build_degraded_summary() {
  // The degraded-answer summary approximates the same distribution the
  // sealed *instance* exposes to queries, so a degraded reply answers the
  // question the caller actually asked: under kLocalQuantile that is the
  // instance keys themselves (m items — near-exact below sketch_k), under
  // kGlobalResample the merged per-node summaries (same merge the instance
  // was resampled from, without the 1/(2m) resample granularity).
  degraded_summary_ = std::make_unique<KllSketch>(
      cfg_.sketch_k, derive_seed(cfg_.seed, kDegradedStream));
  switch (cfg_.instance_policy) {
    case InstancePolicy::kLocalQuantile:
      for (const Key& key : instance_) degraded_summary_->insert(key);
      return;
    case InstancePolicy::kGlobalResample:
      for (const std::uint32_t id : contributors_) {
        degraded_summary_->merge(streams_[id]->summary());
      }
      return;
  }
  GQ_REQUIRE(false, "unknown instance policy");
}

std::uint64_t QuantileService::next_query_seed(const QueryRequest& request) {
  if (request.seed != 0) return request.seed;
  return derive_seed(derive_seed(cfg_.seed, kQueryStream), ++query_seq_);
}

void QuantileService::prepare_engine(std::uint64_t seed) {
  // Rebase the stream so this query is bit-identical to a cold
  // Engine(m, seed) run, then hand the kernels the session encoding so
  // their verify pass skips the per-query intern sort.
  engine_->reset_stream(seed);
  adopt_intern_session(*engine_, session_.table(), session_.lanes());
}

QueryReply QuantileService::query(const QueryRequest& request) {
  (void)seal();  // implicit ingest->query barrier; no-op when clean
  GQ_SPAN("service/query");
  const std::uint64_t seed = next_query_seed(request);
  // Latency is end-to-end over the resilient dispatch (post-seal, retries
  // and degraded fallback included), read only while telemetry is enabled
  // so the disabled query path stays clock-free.
  const std::uint64_t t0 =
      telemetry::enabled() ? telemetry::now_ns() : 0;
  QueryReply reply = run_resilient(request, seed);
  if (t0 != 0) {
    query_latency_ns_[static_cast<std::size_t>(request.kind)].add(
        telemetry::now_ns() - t0);
  }
  reply.epoch = epoch_;
  reply.nodes = static_cast<std::uint32_t>(instance_.size());
  ++queries_;
  return reply;
}

QueryReply QuantileService::run_resilient(const QueryRequest& request,
                                          std::uint64_t seed) {
  // Structural misuse stays loud no matter what the resilience layer would
  // absorb: a malformed request is a caller bug, not a gossip fault.
  const bool quantile_kind = request.kind == QueryKind::kQuantile ||
                             request.kind == QueryKind::kExactQuantile;
  GQ_REQUIRE(!quantile_kind || (request.phi >= 0.0 && request.phi <= 1.0),
             "phi must lie in [0,1]");
  GQ_REQUIRE(request.kind != QueryKind::kCdf || !request.cdf_points.empty(),
             "kCdf needs at least one probe point");
  GQ_REQUIRE(
      request.kind != QueryKind::kMultiQuantile || !request.phis.empty(),
      "kMultiQuantile needs at least one target");

  Breaker& breaker = breakers_[static_cast<std::size_t>(request.kind)];
  ++breaker.kind_queries;
  const bool breaker_enabled = cfg_.breaker.open_after > 0;
  if (breaker_enabled && breaker.state == BreakerState::kOpen) {
    if (breaker.kind_queries - breaker.opened_at <=
        cfg_.breaker.cooldown_queries) {
      // Cooling down: serve from the summary without touching the engine.
      return degraded_reply(request, seed, /*attempts_spent=*/0);
    }
    breaker.state = BreakerState::kHalfOpen;  // this query is the probe
  }
  const auto m = static_cast<double>(instance_.size());
  SupervisedRun<QueryReply> run = supervise<QueryReply>(
      cfg_.supervisor, seed, [&](const AttemptPlan& plan) {
        prepare_engine(plan.seed);
        QueryReply reply;
        switch (request.kind) {
          case QueryKind::kQuantile: reply = run_quantile(request, plan); break;
          case QueryKind::kExactQuantile: reply = run_exact(request); break;
          case QueryKind::kRank: reply = run_rank(request); break;
          case QueryKind::kCdf: reply = run_cdf(request); break;
          case QueryKind::kMultiQuantile:
            reply = run_multi_quantile(request, plan);
            break;
        }
        reply.seed = plan.seed;
        reply.attempts = plan.attempt + 1;
        AttemptVerdict verdict;
        verdict.served_fraction = static_cast<double>(reply.served) / m;
        verdict.rounds = reply.rounds;
        return std::pair(std::move(reply), verdict);
      });
  retry_attempts_ += run.report.retries();
  record_outcome(breaker, !run.report.ok);
  if (run.report.ok) return std::move(*run.result);
  return degraded_reply(request, seed, cfg_.supervisor.max_attempts);
}

void QuantileService::record_outcome(Breaker& breaker, bool exhausted) {
  if (cfg_.breaker.open_after == 0) return;
  if (!exhausted) {
    breaker.consecutive_failures = 0;
    breaker.state = BreakerState::kClosed;
    return;
  }
  ++breaker.consecutive_failures;
  if (breaker.state == BreakerState::kHalfOpen ||
      breaker.consecutive_failures >= cfg_.breaker.open_after) {
    breaker.state = BreakerState::kOpen;
    breaker.opened_at = breaker.kind_queries;
    ++breaker_opens_;
  }
}

QueryReply QuantileService::degraded_reply(const QueryRequest& request,
                                           std::uint64_t seed,
                                           std::uint32_t attempts_spent) {
  GQ_SPAN("service/degraded");
  if (degraded_summary_ == nullptr) build_degraded_summary();
  GQ_REQUIRE(!degraded_summary_->empty(),
             "degraded path needs a sealed epoch summary");
  ++degraded_answers_;
  const KllSketch& summary = *degraded_summary_;
  const auto m = static_cast<double>(instance_.size());
  QueryReply reply;
  reply.kind = request.kind;
  reply.quality = AnswerQuality::kDegraded;
  reply.error_bound = summary.rank_error_bound();
  reply.attempts = attempts_spent;
  reply.seed = seed;  // the base seed; no attempt ran to completion
  reply.served = 0;   // no node served an answer — the service did
  switch (request.kind) {
    case QueryKind::kQuantile:
    case QueryKind::kExactQuantile:
      reply.phi = request.phi;
      reply.answer = summary.quantile(request.phi);
      reply.value = reply.answer.value;
      break;
    case QueryKind::kRank: {
      const double fraction = static_cast<double>(summary.rank(
                                  probe_key(request.value))) /
                              static_cast<double>(summary.count());
      reply.fraction = fraction;
      reply.count = static_cast<std::uint64_t>(std::llround(fraction * m));
      break;
    }
    case QueryKind::kCdf:
      reply.cdf_counts.reserve(request.cdf_points.size());
      reply.cdf.reserve(request.cdf_points.size());
      for (const double point : request.cdf_points) {
        const double fraction =
            static_cast<double>(summary.rank(probe_key(point))) /
            static_cast<double>(summary.count());
        reply.cdf.push_back(fraction);
        reply.cdf_counts.push_back(
            static_cast<std::uint64_t>(std::llround(fraction * m)));
      }
      break;
    case QueryKind::kMultiQuantile:
      reply.multi_answers.reserve(request.phis.size());
      reply.multi_values.reserve(request.phis.size());
      for (const double phi : request.phis) {
        const Key answer = summary.quantile(phi);
        reply.multi_answers.push_back(answer);
        reply.multi_values.push_back(answer.value);
      }
      break;
  }
  return reply;
}

QuantileService::BreakerState QuantileService::breaker_state(
    QueryKind kind) const noexcept {
  return breakers_[static_cast<std::size_t>(kind)].state;
}

std::vector<QueryReply> QuantileService::query_batch(
    std::span<const QueryRequest> requests) {
  // One barrier for the whole batch: every reply observes the same epoch,
  // and the warm session/engine serve all of them back to back.
  (void)seal();
  std::vector<QueryReply> replies;
  replies.reserve(requests.size());
  for (const QueryRequest& request : requests) {
    replies.push_back(query(request));
  }
  return replies;
}

QueryReply QuantileService::run_quantile(const QueryRequest& request,
                                         const AttemptPlan& plan) {
  GQ_SPAN("service/query_quantile");
  QueryReply reply;
  reply.kind = QueryKind::kQuantile;
  reply.phi = request.phi;
  if (plan.robust_promoted) {
    // Escalated retries route through the filtered adversarial pipeline:
    // whatever broke the plain tournament (adversarial corruption, heavy
    // loss) is exactly what the majority-filter branch is built for.
    AdversarialQuantileParams params;
    params.phi = request.phi;
    params.eps = request.eps > 0.0 ? request.eps : cfg_.approx.eps;
    params = escalated(params, plan);
    const AdversarialQuantileResult res =
        adversarial_quantile_keys(*engine_, instance_, params);
    for (std::size_t v = 0; v < res.valid.size(); ++v) {
      if (res.valid[v]) {
        reply.answer = res.outputs[v];
        break;
      }
    }
    reply.value = reply.answer.value;
    reply.rounds = res.rounds;
    reply.served = static_cast<std::uint32_t>(res.served_nodes());
    reply.transcript_hash = transcript_hash(res.outputs, res.valid);
    return reply;
  }
  ApproxQuantileParams params = cfg_.approx;
  params.phi = request.phi;
  if (request.eps > 0.0) params.eps = request.eps;
  params = escalated(params, plan);  // attempt 0: returns params unchanged
  const ApproxQuantileResult res =
      approx_quantile_keys(*engine_, instance_, params);
  for (std::size_t v = 0; v < res.valid.size(); ++v) {
    if (res.valid[v]) {
      reply.answer = res.outputs[v];
      break;
    }
  }
  reply.value = reply.answer.value;
  reply.rounds = res.rounds;
  reply.served = static_cast<std::uint32_t>(res.served_nodes());
  reply.used_exact_fallback = res.used_exact_fallback;
  reply.transcript_hash = transcript_hash(res.outputs, res.valid);
  return reply;
}

QueryReply QuantileService::run_multi_quantile(const QueryRequest& request,
                                               const AttemptPlan& plan) {
  GQ_SPAN("service/query_multi_quantile");
  ApproxQuantileParams approx = cfg_.approx;
  if (request.eps > 0.0) approx.eps = request.eps;
  approx = escalated(approx, plan);  // attempt 0: returns approx unchanged
  MultiQuantileParams params;
  params.phis = request.phis;
  params.eps = approx.eps;
  params.final_sample_size = approx.final_sample_size;
  params.robust_coverage_rounds = approx.robust_coverage_rounds;
  const MultiQuantileResult res =
      multi_quantile_keys(*engine_, instance_, params);
  QueryReply reply;
  reply.kind = QueryKind::kMultiQuantile;
  reply.multi_answers.reserve(res.per_phi.size());
  reply.multi_values.reserve(res.per_phi.size());
  std::vector<std::uint64_t> target_hashes;
  target_hashes.reserve(res.per_phi.size());
  std::uint32_t served_min =
      static_cast<std::uint32_t>(instance_.size());
  for (const ApproxQuantileResult& r : res.per_phi) {
    Key answer{};
    for (std::size_t v = 0; v < r.valid.size(); ++v) {
      if (r.valid[v]) {
        answer = r.outputs[v];
        break;
      }
    }
    reply.multi_answers.push_back(answer);
    reply.multi_values.push_back(answer.value);
    target_hashes.push_back(transcript_hash(r.outputs, r.valid));
    served_min = std::min(
        served_min, static_cast<std::uint32_t>(r.served_nodes()));
    reply.used_exact_fallback |= r.used_exact_fallback;
  }
  reply.rounds = res.rounds;
  reply.served = served_min;
  // FNV-chain the per-target transcript hashes (not XOR: duplicated
  // targets have identical transcripts and would cancel).
  reply.transcript_hash = transcript_hash_counts(
      {target_hashes.data(), target_hashes.size()});
  return reply;
}

QueryReply QuantileService::run_exact(const QueryRequest& request) {
  GQ_SPAN("service/query_exact_quantile");
  ExactQuantileParams params = cfg_.exact;
  params.phi = request.phi;
  const ExactQuantileResult res =
      exact_quantile_keys(*engine_, instance_, params);
  QueryReply reply;
  reply.kind = QueryKind::kExactQuantile;
  reply.phi = request.phi;
  reply.answer = res.answer;
  reply.value = res.answer.value;
  reply.rounds = res.rounds;
  std::uint32_t served = 0;
  for (const bool b : res.valid) served += b ? 1 : 0;
  reply.served = served;
  reply.transcript_hash = transcript_hash(res.outputs, res.valid);
  return reply;
}

QueryReply QuantileService::run_rank(const QueryRequest& request) {
  GQ_SPAN("service/query_rank");
  session_.indicator_le(probe_key(request.value), indicator_a_);
  const CountResult res = gossip_count(*engine_, indicator_a_);
  QueryReply reply;
  reply.kind = QueryKind::kRank;
  reply.count = res.counts[0];
  reply.fraction = static_cast<double>(reply.count) /
                   static_cast<double>(instance_.size());
  reply.rounds = res.rounds;
  reply.served = count_served(*engine_);
  reply.transcript_hash =
      transcript_hash_counts({res.counts.data(), res.counts.size()});
  return reply;
}

QueryReply QuantileService::run_cdf(const QueryRequest& request) {
  GQ_SPAN("service/query_cdf");
  const std::size_t points = request.cdf_points.size();
  QueryReply reply;
  reply.kind = QueryKind::kCdf;
  reply.cdf_counts.reserve(points);
  std::uint64_t hash_acc = 0;
  // Three probes share one diffusion (gossip_count3); a two-probe tail
  // duplicates its last indicator (the duplicate diffuses for free in the
  // same shared-weight run), a one-probe tail runs the plain count.
  for (std::size_t p = 0; p < points;) {
    const std::size_t left = points - p;
    if (left == 1) {
      session_.indicator_le(probe_key(request.cdf_points[p]), indicator_a_);
      const CountResult res = gossip_count(*engine_, indicator_a_);
      reply.cdf_counts.push_back(res.counts[0]);
      reply.rounds += res.rounds;
      hash_acc ^= transcript_hash_counts({res.counts.data(),
                                          res.counts.size()});
      p += 1;
      continue;
    }
    session_.indicator_le(probe_key(request.cdf_points[p]), indicator_a_);
    session_.indicator_le(probe_key(request.cdf_points[p + 1]), indicator_b_);
    const bool full = left >= 3;
    session_.indicator_le(probe_key(request.cdf_points[full ? p + 2 : p + 1]),
                          indicator_c_);
    const TripleCountResult res =
        gossip_count3(*engine_, indicator_a_, indicator_b_, indicator_c_);
    reply.cdf_counts.push_back(res.a[0]);
    reply.cdf_counts.push_back(res.b[0]);
    if (full) reply.cdf_counts.push_back(res.c[0]);
    reply.rounds += res.rounds;
    hash_acc ^= transcript_hash_counts({res.a.data(), res.a.size()});
    hash_acc ^= transcript_hash_counts({res.b.data(), res.b.size()});
    if (full) hash_acc ^= transcript_hash_counts({res.c.data(), res.c.size()});
    p += full ? 3 : 2;
  }
  const double m = static_cast<double>(instance_.size());
  reply.cdf.reserve(points);
  for (const std::uint64_t c : reply.cdf_counts) {
    reply.cdf.push_back(static_cast<double>(c) / m);
  }
  reply.served = count_served(*engine_);
  reply.transcript_hash = hash_acc;
  return reply;
}

std::span<const Key> QuantileService::epoch_keys() const {
  GQ_REQUIRE(epoch_ > 0, "no epoch sealed yet");
  return {instance_.data(), instance_.size()};
}

ServiceStats QuantileService::stats() const {
  ServiceStats s;
  s.epoch = epoch_;
  s.queries = queries_;
  s.ingested = ingested_;
  s.live_nodes = live_;
  s.contributing_nodes = static_cast<std::uint32_t>(contributors_.size());
  for (const auto& stream : streams_) {
    if (stream != nullptr) {
      s.max_node_items = std::max(s.max_node_items, stream->space());
    }
  }
  s.session_table_keys = session_.table().size();
  s.session_rebuilds = session_.rebuilds();
  s.session_extends = session_.extends();
  s.session_reuse_hits = session_.reuse_hits();
  s.engine_rebuilds = engine_rebuilds_;
  s.gossip_rounds =
      retired_rounds_ + (engine_ != nullptr ? engine_->metrics().rounds : 0);
  s.seal_recomputed_slots = seal_recomputed_slots_;
  s.retry_attempts = retry_attempts_;
  s.degraded_answers = degraded_answers_;
  s.breaker_opens = breaker_opens_;
  return s;
}

const LogHistogram& QuantileService::query_latency(QueryKind kind) const {
  return query_latency_ns_[static_cast<std::size_t>(kind)];
}

std::string QuantileService::latency_summary() const {
  std::ostringstream os;
  char buf[192];
  for (std::size_t k = 0; k < query_latency_ns_.size(); ++k) {
    const LogHistogram& h = query_latency_ns_[k];
    if (h.total() == 0) continue;
    std::snprintf(buf, sizeof(buf),
                  "query %-14s n=%-8llu p50=%.3fms p90=%.3fms p99=%.3fms "
                  "p999=%.3fms max=%.3fms\n",
                  kQueryKindNames[k],
                  static_cast<unsigned long long>(h.total()),
                  static_cast<double>(h.quantile(0.5)) / 1e6,
                  static_cast<double>(h.quantile(0.9)) / 1e6,
                  static_cast<double>(h.quantile(0.99)) / 1e6,
                  static_cast<double>(h.quantile(0.999)) / 1e6,
                  static_cast<double>(h.max()) / 1e6);
    os << buf;
  }
  return os.str();
}

std::string QuantileService::prometheus_text() const {
  const ServiceStats s = stats();
  std::ostringstream os;
  os << "# TYPE gq_service_queries_total counter\n"
     << "gq_service_queries_total " << s.queries << "\n"
     << "# TYPE gq_service_ingested_total counter\n"
     << "gq_service_ingested_total " << s.ingested << "\n"
     << "# TYPE gq_service_epoch gauge\n"
     << "gq_service_epoch " << s.epoch << "\n"
     << "# TYPE gq_service_live_nodes gauge\n"
     << "gq_service_live_nodes " << s.live_nodes << "\n"
     << "# TYPE gq_service_gossip_rounds_total counter\n"
     << "gq_service_gossip_rounds_total " << s.gossip_rounds << "\n"
     << "# TYPE gq_service_seal_recomputed_slots_total counter\n"
     << "gq_service_seal_recomputed_slots_total " << s.seal_recomputed_slots
     << "\n"
     << "# TYPE gq_service_retry_attempts_total counter\n"
     << "gq_service_retry_attempts_total " << s.retry_attempts << "\n"
     << "# TYPE gq_service_degraded_answers_total counter\n"
     << "gq_service_degraded_answers_total " << s.degraded_answers << "\n"
     << "# TYPE gq_service_breaker_opens_total counter\n"
     << "gq_service_breaker_opens_total " << s.breaker_opens << "\n";
  os << "# TYPE gq_service_breaker_state gauge\n";
  for (std::size_t k = 0; k < breakers_.size(); ++k) {
    // 0 = closed, 1 = open, 2 = half-open.
    os << "gq_service_breaker_state{kind=\"" << kQueryKindNames[k] << "\"} "
       << static_cast<int>(breakers_[k].state) << "\n";
  }
  os << "# TYPE gq_service_query_seconds summary\n";
  for (std::size_t k = 0; k < query_latency_ns_.size(); ++k) {
    const LogHistogram& h = query_latency_ns_[k];
    if (h.total() == 0) continue;
    for (const double q : {0.5, 0.9, 0.99, 0.999}) {
      os << "gq_service_query_seconds{kind=\"" << kQueryKindNames[k]
         << "\",quantile=\"" << q << "\"} "
         << static_cast<double>(h.quantile(q)) / 1e9 << "\n";
    }
    os << "gq_service_query_seconds_count{kind=\"" << kQueryKindNames[k]
       << "\"} " << h.total() << "\n";
  }
  return os.str();
}

}  // namespace gq
