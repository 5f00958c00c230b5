// The streaming quantile service layer (src/service/): epoch/session
// semantics, and the load-bearing guarantee that a *warm* session query is
// bit-identical to a *cold* one-shot engine run on the same snapshot — at
// 1, 2, and 8 threads, across churn, and for every query kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "sim/failure_model.hpp"
#include "sim/key_intern.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

ServiceConfig service_config(unsigned threads) {
  ServiceConfig cfg;
  cfg.seed = 2024;
  cfg.sketch_k = 64;
  cfg.engine.threads = threads;
  cfg.engine.shard_size = 96;  // several shards even at small test n
  return cfg;
}

// Deterministic per-node streams: node v's stream is a fixed slice of one
// generated value array.  Stream lengths stay below sketch_k so summaries
// are exact and independent of their compaction seeds — which is what lets
// churn tests compare against cold-started services (see node_stream.hpp).
void ingest_fixture(QuantileService& service, std::uint32_t nodes,
                    std::size_t per_node, std::uint64_t seed) {
  const auto values =
      generate_values(Distribution::kUniformReal, nodes * per_node, seed);
  for (std::uint32_t v = 0; v < nodes; ++v) {
    for (std::size_t i = 0; i < per_node; ++i) {
      service.ingest(v, values[v * per_node + i]);
    }
  }
}

// The cold comparator: a fresh engine + one-shot pipeline run over the
// service's sealed instance, with the reply's stream seed.  Everything a
// warm reply reports must match this bit for bit.
QueryReply cold_quantile_reply(const QuantileService& service,
                               const QueryReply& warm,
                               const QueryRequest& request) {
  const ServiceConfig& cfg = service.config();
  Engine engine(static_cast<std::uint32_t>(service.epoch_keys().size()),
                warm.seed, cfg.failures, cfg.engine);
  ApproxQuantileParams params = cfg.approx;
  params.phi = request.phi;
  if (request.eps > 0.0) params.eps = request.eps;
  const ApproxQuantileResult res =
      approx_quantile_keys(engine, service.epoch_keys(), params);
  QueryReply reply;
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


// Cold comparator for the batched multi-quantile query: one fresh-engine
// shared-schedule run over the sealed instance, fingerprinted exactly the
// way the service does (per-target transcript hashes, FNV-chained).
QueryReply cold_multi_quantile_reply(const QuantileService& service,
                                     const QueryReply& warm,
                                     const QueryRequest& request) {
  const ServiceConfig& cfg = service.config();
  Engine engine(static_cast<std::uint32_t>(service.epoch_keys().size()),
                warm.seed, cfg.failures, cfg.engine);
  MultiQuantileParams params;
  params.phis = request.phis;
  params.eps = request.eps > 0.0 ? request.eps : cfg.approx.eps;
  params.final_sample_size = cfg.approx.final_sample_size;
  params.robust_coverage_rounds = cfg.approx.robust_coverage_rounds;
  const MultiQuantileResult res =
      multi_quantile_keys(engine, service.epoch_keys(), params);
  QueryReply reply;
  reply.kind = QueryKind::kMultiQuantile;
  std::vector<std::uint64_t> hashes;
  auto served_min = static_cast<std::uint32_t>(service.epoch_keys().size());
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
    hashes.push_back(transcript_hash(r.outputs, r.valid));
    served_min =
        std::min(served_min, static_cast<std::uint32_t>(r.served_nodes()));
    reply.used_exact_fallback |= r.used_exact_fallback;
  }
  reply.rounds = res.rounds;
  reply.served = served_min;
  reply.transcript_hash =
      transcript_hash_counts({hashes.data(), hashes.size()});
  return reply;
}

void expect_same_answer(const QueryReply& a, const QueryReply& b) {
  EXPECT_EQ(a.answer, b.answer);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.cdf_counts, b.cdf_counts);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.served, b.served);
  EXPECT_EQ(a.used_exact_fallback, b.used_exact_fallback);
  EXPECT_EQ(a.transcript_hash, b.transcript_hash);
}

TEST(Service, WarmQueriesBitIdenticalToColdRunsAtEveryThreadCount) {
  constexpr std::uint32_t kNodes = 700;
  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.2;

  std::vector<QueryReply> reference;
  for (unsigned threads : kThreadCounts) {
    QuantileService service(kNodes, service_config(threads));
    ingest_fixture(service, kNodes, 24, 7);
    std::vector<QueryReply> replies;
    for (int q = 0; q < 3; ++q) replies.push_back(service.query(request));

    // Back-to-back warm queries rotate their stream seed, so each must
    // reproduce its own cold one-shot run exactly.
    for (const QueryReply& warm : replies) {
      const QueryReply cold = cold_quantile_reply(service, warm, request);
      expect_same_answer(warm, cold);
    }
    EXPECT_NE(replies[0].seed, replies[1].seed);
    EXPECT_EQ(replies[0].epoch, replies[2].epoch);

    // And the whole reply stream is thread-count invariant.
    if (reference.empty()) {
      reference = replies;
    } else {
      for (std::size_t i = 0; i < replies.size(); ++i) {
        expect_same_answer(replies[i], reference[i]);
        EXPECT_EQ(replies[i].seed, reference[i].seed);
        EXPECT_EQ(replies[i].epoch, reference[i].epoch);
      }
    }
  }
}


TEST(Service, MultiQuantileWarmMatchesColdSharedRunAtEveryThreadCount) {
  // The batched query kind: one warm kMultiQuantile reply must be
  // transcript-identical to a cold fresh-engine shared-schedule run over
  // the sealed instance — per target and as a whole — at every thread
  // count.  kNodes must keep request.eps above eps_tournament_floor or
  // the batch would route through the exact fallback instead.
  constexpr std::uint32_t kNodes = 1100;
  QueryRequest request;
  request.kind = QueryKind::kMultiQuantile;
  request.phis = {0.5, 0.9, 0.99, 0.9};  // one duplicated target
  request.eps = 0.2;

  std::vector<QueryReply> reference;
  for (unsigned threads : kThreadCounts) {
    QuantileService service(kNodes, service_config(threads));
    ingest_fixture(service, kNodes, 24, 7);
    const QueryReply warm = service.query(request);
    ASSERT_EQ(warm.multi_answers.size(), request.phis.size());
    EXPECT_EQ(warm.multi_answers[3], warm.multi_answers[1]);  // shared lane
    EXPECT_FALSE(warm.used_exact_fallback);

    const QueryReply cold = cold_multi_quantile_reply(service, warm, request);
    EXPECT_EQ(warm.multi_answers, cold.multi_answers);
    EXPECT_EQ(warm.multi_values, cold.multi_values);
    EXPECT_EQ(warm.rounds, cold.rounds);
    EXPECT_EQ(warm.served, cold.served);
    EXPECT_EQ(warm.used_exact_fallback, cold.used_exact_fallback);
    EXPECT_EQ(warm.transcript_hash, cold.transcript_hash);

    if (reference.empty()) {
      reference.push_back(warm);
    } else {
      EXPECT_EQ(warm.seed, reference[0].seed);
      EXPECT_EQ(warm.multi_answers, reference[0].multi_answers);
      EXPECT_EQ(warm.rounds, reference[0].rounds);
      EXPECT_EQ(warm.transcript_hash, reference[0].transcript_hash);
    }
  }
}

TEST(Service, ExactQuantileQueryMatchesCentralTruthAndColdRun) {
  constexpr std::uint32_t kNodes = 600;
  QuantileService service(kNodes, service_config(2));
  ingest_fixture(service, kNodes, 16, 11);

  QueryRequest request;
  request.kind = QueryKind::kExactQuantile;
  request.phi = 0.3;
  const QueryReply warm = service.query(request);

  // Central truth: the exact phi-quantile of the sealed instance.
  std::vector<Key> sorted(service.epoch_keys().begin(),
                          service.epoch_keys().end());
  std::sort(sorted.begin(), sorted.end());
  const auto target = static_cast<std::size_t>(
      std::ceil(request.phi * static_cast<double>(sorted.size())));
  EXPECT_EQ(warm.answer, sorted[target - 1]);

  // Cold comparator.
  const ServiceConfig& cfg = service.config();
  Engine engine(static_cast<std::uint32_t>(service.epoch_keys().size()),
                warm.seed, cfg.failures, cfg.engine);
  ExactQuantileParams params = cfg.exact;
  params.phi = request.phi;
  const ExactQuantileResult res =
      exact_quantile_keys(engine, service.epoch_keys(), params);
  EXPECT_EQ(warm.answer, res.answer);
  EXPECT_EQ(warm.rounds, res.rounds);
  EXPECT_EQ(warm.transcript_hash, transcript_hash(res.outputs, res.valid));
}

TEST(Service, RankAndCdfCountExactlyAndBatchThreePerDiffusion) {
  constexpr std::uint32_t kNodes = 500;
  ServiceConfig cfg = service_config(8);
  cfg.sketch_k = 256;  // tight resample: rank error a few / 256
  cfg.instance_policy = InstancePolicy::kGlobalResample;
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 20, 13);

  QueryRequest rank;
  rank.kind = QueryKind::kRank;
  rank.value = 0.35;
  rank.seed = 99;  // pinned: the cdf comparison below reuses it
  const QueryReply r = service.query(rank);

  // Exact gossip counting agrees with the central count over the instance.
  std::uint64_t truth = 0;
  for (const Key& k : service.epoch_keys()) truth += k.value <= 0.35 ? 1 : 0;
  EXPECT_EQ(r.count, truth);
  EXPECT_DOUBLE_EQ(r.fraction,
                   static_cast<double>(truth) / service.epoch_keys().size());

  // A 5-point CDF batches 3 + 2 probes into two diffusions; every count
  // must equal the matching single-rank query's.
  QueryRequest cdf;
  cdf.kind = QueryKind::kCdf;
  cdf.cdf_points = {0.1, 0.35, 0.5, 0.75, 0.9};
  cdf.seed = 99;
  const QueryReply c = service.query(cdf);
  ASSERT_EQ(c.cdf_counts.size(), cdf.cdf_points.size());
  EXPECT_EQ(c.cdf_counts[1], truth);
  EXPECT_TRUE(std::is_sorted(c.cdf_counts.begin(), c.cdf_counts.end()));
  for (std::size_t i = 0; i < cdf.cdf_points.size(); ++i) {
    std::uint64_t t = 0;
    for (const Key& k : service.epoch_keys()) {
      t += k.value <= cdf.cdf_points[i] ? 1 : 0;
    }
    EXPECT_EQ(c.cdf_counts[i], t) << "probe " << cdf.cdf_points[i];
  }

  // Under kGlobalResample the instance is the m-point resample of the
  // union stream, so the reported fractions track the true union CDF.
  const auto values = generate_values(Distribution::kUniformReal,
                                      kNodes * 20, 13);
  for (std::size_t i = 0; i < cdf.cdf_points.size(); ++i) {
    double union_cdf = 0;
    for (const double v : values) union_cdf += v <= cdf.cdf_points[i] ? 1 : 0;
    union_cdf /= static_cast<double>(values.size());
    EXPECT_NEAR(c.cdf[i], union_cdf, 0.05) << "probe " << cdf.cdf_points[i];
  }
}

TEST(Service, ChurnMatchesColdStartOnTheNewMembership) {
  constexpr std::uint32_t kNodes = 520;
  constexpr std::size_t kPerNode = 18;
  const auto values = generate_values(Distribution::kGaussian,
                                      (kNodes + 1) * kPerNode, 17);
  const auto stream = [&](std::uint32_t slot) {
    return std::span<const double>(values).subspan(slot * kPerNode, kPerNode);
  };

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.9;
  request.eps = 0.2;
  request.seed = 777;  // pinned: replies must not depend on query history

  // Warm service: full membership, a query, then churn — node 3 leaves and
  // a fresh node joins with its own stream.
  QuantileService warm(kNodes, service_config(2));
  for (std::uint32_t v = 0; v < kNodes; ++v) warm.ingest(v, stream(v));
  const QueryReply before = warm.query(request);
  warm.leave(3);
  const std::uint32_t joined = warm.join();
  EXPECT_EQ(joined, kNodes);  // ids are stable handles, never reused
  warm.ingest(joined, stream(kNodes));
  const QueryReply after = warm.query(request);
  EXPECT_EQ(after.epoch, 2u);
  EXPECT_EQ(after.nodes, kNodes);  // one left, one joined

  // Cold service: built directly on the post-churn membership — node ids
  // 0..kNodes with node 3 never contributing — fed the same streams.  Its
  // first-ever reply must equal the churned warm service's in everything
  // but the epoch stamp.
  QuantileService cold(kNodes + 1, service_config(2));
  cold.leave(3);
  for (std::uint32_t v = 0; v <= kNodes; ++v) {
    if (v == 3) continue;
    cold.ingest(v, stream(v));
  }
  const QueryReply fresh = cold.query(request);
  EXPECT_EQ(fresh.epoch, 1u);
  EXPECT_EQ(fresh.seed, after.seed);  // both pinned
  expect_same_answer(after, fresh);
  // ...and churn really changed the answer transcript vs the old epoch.
  EXPECT_NE(before.transcript_hash, after.transcript_hash);
}

TEST(Service, EpochBarrierExtendsSessionInsteadOfRebuilding) {
  constexpr std::uint32_t kNodes = 400;
  QuantileService service(kNodes, service_config(1));
  ingest_fixture(service, kNodes, 12, 23);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.2;

  (void)service.query(request);
  (void)service.query(request);
  ServiceStats s = service.stats();
  EXPECT_EQ(s.epoch, 1u);
  EXPECT_EQ(s.session_rebuilds, 1u);  // one cold intern, then reuse
  EXPECT_EQ(s.session_extends, 0u);

  // New ingest moves one node's representative: the next query seals a new
  // epoch and the session *extends* (merges the new key) instead of
  // re-sorting.
  service.ingest(7, 123.456);
  const QueryReply r = service.query(request);
  s = service.stats();
  EXPECT_EQ(r.epoch, 2u);
  EXPECT_EQ(s.epoch, 2u);
  EXPECT_EQ(s.session_rebuilds, 1u);
  EXPECT_EQ(s.session_extends + s.session_reuse_hits, 1u);
  EXPECT_EQ(s.engine_rebuilds, 1u);  // membership never changed
}

TEST(Service, PerNodeStateStaysBounded) {
  ServiceConfig cfg = service_config(1);
  cfg.sketch_k = 64;
  QuantileService service(4, cfg);
  const auto values =
      generate_values(Distribution::kExponential, 50000, 31);
  for (std::size_t i = 0; i < values.size(); ++i) {
    service.ingest(static_cast<std::uint32_t>(i % 4), values[i]);
  }
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.ingested, 50000u);
  // Same O(k)-across-levels bound the KLL unit tests pin.
  EXPECT_LE(s.max_node_items, 64u * 5);
}

// A NaN has no place in Key's order: ingest rejects it up front (a batch
// containing one is rejected whole), so it can never reach a seal and break
// the session's sorted table at query time.
TEST(Service, IngestRejectsNaNAndStaysQueryable) {
  constexpr std::uint32_t kNodes = 64;
  QuantileService service(kNodes, service_config(1));
  ingest_fixture(service, kNodes, 4, 17);
  const std::uint64_t ingested = service.stats().ingested;

  EXPECT_THROW(service.ingest(3, std::nan("")), std::invalid_argument);
  const std::vector<double> batch = {0.25, std::nan(""), 0.75};
  EXPECT_THROW(service.ingest(5, batch), std::invalid_argument);
  EXPECT_EQ(service.stats().ingested, ingested);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.2;
  const QueryReply reply = service.query(request);
  EXPECT_FALSE(std::isnan(reply.value));
  expect_same_answer(reply, cold_quantile_reply(service, reply, request));
}

TEST(Service, BatchedQueriesShareOneEpochAndMatchSingles) {
  constexpr std::uint32_t kNodes = 450;
  QuantileService service(kNodes, service_config(2));
  ingest_fixture(service, kNodes, 14, 37);

  std::vector<QueryRequest> batch(3);
  batch[0].kind = QueryKind::kQuantile;
  batch[0].phi = 0.25;
  batch[0].eps = 0.2;
  batch[0].seed = 41;
  batch[1].kind = QueryKind::kRank;
  batch[1].value = 0.6;
  batch[1].seed = 42;
  batch[2].kind = QueryKind::kCdf;
  batch[2].cdf_points = {0.2, 0.8};
  batch[2].seed = 43;

  const auto replies = service.query_batch(batch);
  ASSERT_EQ(replies.size(), 3u);
  for (const QueryReply& r : replies) EXPECT_EQ(r.epoch, 1u);

  // Each batched reply equals the same pinned-seed request served alone.
  QuantileService solo(kNodes, service_config(2));
  ingest_fixture(solo, kNodes, 14, 37);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    expect_same_answer(replies[i], solo.query(batch[i]));
  }
}

TEST(Service, FailureModelQueriesStayWarmColdIdentical) {
  constexpr std::uint32_t kNodes = 400;
  ServiceConfig cfg = service_config(8);
  cfg.failures = FailureModel::uniform(0.2);
  QuantileService service(kNodes, cfg);
  ingest_fixture(service, kNodes, 10, 43);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.25;
  (void)service.query(request);          // warm the session
  const QueryReply warm = service.query(request);
  EXPECT_LE(warm.served, warm.nodes);
  EXPECT_GE(warm.served, warm.nodes * 3 / 4);  // robust coverage serves most
  expect_same_answer(warm, cold_quantile_reply(service, warm, request));
}

TEST(Service, EmptyIngestBatchOpensNoEpoch) {
  constexpr std::uint32_t kNodes = 64;
  QuantileService service(kNodes, service_config(1));
  ingest_fixture(service, kNodes, 4, 19);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.2;
  request.seed = 5;
  const QueryReply first = service.query(request);
  service.ingest(3, std::span<const double>{});
  const QueryReply second = service.query(request);
  EXPECT_EQ(first.epoch, 1u);
  EXPECT_EQ(second.epoch, 1u);
  EXPECT_EQ(service.stats().epoch, 1u);
  expect_same_answer(second, first);

  // A zero-length batch still validates the node id.
  service.leave(5);
  EXPECT_THROW(service.ingest(5, std::span<const double>{}),
               std::invalid_argument);
  EXPECT_THROW(service.ingest(kNodes + 1, std::span<const double>{}),
               std::invalid_argument);
}

// ---- incremental seal == full rebuild --------------------------------------

// Every field of a reply except its epoch stamp.
void expect_same_reply(const QueryReply& a, const QueryReply& b) {
  expect_same_answer(a, b);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.fraction, b.fraction);
  EXPECT_EQ(a.cdf, b.cdf);
  EXPECT_EQ(a.multi_answers, b.multi_answers);
  EXPECT_EQ(a.multi_values, b.multi_values);
  EXPECT_EQ(a.seed, b.seed);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.quality, b.quality);
  EXPECT_EQ(a.error_bound, b.error_bound);
  EXPECT_EQ(a.attempts, b.attempts);
}

void expect_same_session(const EpochSession& a, const EpochSession& b) {
  EXPECT_TRUE(std::ranges::equal(a.table(), b.table()));
  EXPECT_TRUE(std::ranges::equal(a.lanes(), b.lanes()));
  EXPECT_EQ(a.rebuilds(), b.rebuilds());
  EXPECT_EQ(a.extends(), b.extends());
  EXPECT_EQ(a.reuse_hits(), b.reuse_hits());
}

// The five query kinds round-robin, each on a pinned seed.
QueryRequest call_log_request(std::size_t step) {
  QueryRequest r;
  r.kind = static_cast<QueryKind>(step % 5);
  r.seed = 1000 + step;
  r.phi = 0.15 + 0.1 * static_cast<double>(step % 8);
  r.eps = 0.25;
  r.value = 0.45;
  r.cdf_points = {0.25, 0.5, 0.75, 0.9};
  r.phis = {0.2, 0.5, 0.9};
  return r;
}

// A seeded call log against one live service: ingest batches of 1-300
// values on random nodes, a join, the joined node's first ingest, a leave,
// and quiet steps that ingest only an empty batch, each step followed by
// one query.  At every step the warm service must hold the instance a cold
// service replaying each node's whole stream seals, answer exactly as that
// cold service does, and hold the session a full-scan update of every
// sealed instance builds; seal_recomputed_slots must grow by the touched
// nodes on a kLocalQuantile trickle seal and by m on every other seal.
void check_call_log(InstancePolicy policy, unsigned threads) {
  constexpr std::uint32_t kNodes = 80;
  constexpr std::size_t kSteps = 60;
  constexpr std::uint32_t kLeaver = 7;
  ServiceConfig cfg = service_config(threads);
  cfg.instance_policy = policy;
  cfg.session_compact_factor = 2;
  QuantileService warm(kNodes, cfg);
  std::vector<std::vector<double>> streams(kNodes);  // by node id
  std::vector<bool> live(kNodes, true);
  std::mt19937_64 rng(4242);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const auto feed = [&](std::uint32_t node, std::size_t count) {
    std::vector<double> batch(count);
    for (double& x : batch) x = unit(rng);
    warm.ingest(node, batch);
    streams[node].insert(streams[node].end(), batch.begin(), batch.end());
  };
  for (std::uint32_t v = 0; v < kNodes; ++v) feed(v, 8);

  EpochSession reference;
  std::uint32_t joined = 0;
  for (std::size_t step = 0; step < kSteps; ++step) {
    SCOPED_TRACE(step);
    bool membership = step == 0;
    std::set<std::uint32_t> touched;
    if (step == 15) {
      joined = warm.join();
      streams.emplace_back();
      live.push_back(true);
      membership = true;
    } else if (step == 20) {
      feed(joined, 5);  // the first ingest into an empty stream
      membership = true;
    } else if (step == 30) {
      warm.leave(kLeaver);
      live[kLeaver] = false;
      membership = true;
    } else if (step % 11 == 10) {
      warm.ingest(3, std::span<const double>{});
    } else {
      for (std::uint64_t b = 1 + rng() % 6; b > 0; --b) {
        const auto node = static_cast<std::uint32_t>(rng() % kNodes);
        if (!live[node]) continue;
        feed(node, 1 + rng() % 300);
        touched.insert(node);
      }
    }

    const ServiceStats before = warm.stats();
    const QueryRequest request = call_log_request(step);
    const QueryReply reply = warm.query(request);
    const ServiceStats after = warm.stats();
    const bool sealed = membership || !touched.empty();
    ASSERT_EQ(after.epoch, before.epoch + (sealed ? 1 : 0));
    const std::uint64_t m = warm.epoch_keys().size();
    const bool every_slot =
        membership || policy == InstancePolicy::kGlobalResample;
    EXPECT_EQ(after.seal_recomputed_slots - before.seal_recomputed_slots,
              !sealed ? 0 : every_slot ? m : touched.size());

    QuantileService cold(static_cast<std::uint32_t>(streams.size()), cfg);
    for (std::uint32_t v = 0; v < streams.size(); ++v) {
      if (!live[v]) {
        cold.leave(v);
      } else {
        cold.ingest(v, streams[v]);
      }
    }
    const QueryReply fresh = cold.query(request);
    ASSERT_TRUE(std::ranges::equal(warm.epoch_keys(), cold.epoch_keys()));
    expect_same_reply(reply, fresh);

    if (sealed) reference.update(warm.epoch_keys(), cfg.session_compact_factor);
    expect_same_session(warm.session(), reference);
  }
  EXPECT_GE(warm.stats().session_rebuilds, 2u);  // crossed the compact factor
}

TEST(Service, IncrementalSealMatchesColdReplayAcrossACallLog) {
  for (const InstancePolicy policy :
       {InstancePolicy::kLocalQuantile, InstancePolicy::kGlobalResample}) {
    for (const unsigned threads : kThreadCounts) {
      SCOPED_TRACE(::testing::Message()
                   << "policy " << static_cast<int>(policy) << " threads "
                   << threads);
      check_call_log(policy, threads);
    }
  }
}

TEST(Service, PrometheusExportsSealRecomputedSlots) {
  constexpr std::uint32_t kNodes = 64;
  QuantileService service(kNodes, service_config(1));
  ingest_fixture(service, kNodes, 4, 19);
  (void)service.seal();
  const double batch[] = {0.1, 0.9};
  service.ingest(3, batch);
  service.ingest(9, batch);
  service.ingest(3, batch);  // a node counts once per epoch
  (void)service.seal();
  EXPECT_EQ(service.stats().seal_recomputed_slots, kNodes + 2u);
  EXPECT_NE(service.prometheus_text().find(
                "gq_service_seal_recomputed_slots_total 66\n"),
            std::string::npos);
}

// gossip_rounds is a lifetime counter: a seal that changes m replaces the
// engine, and the retired engine's rounds stay counted.  Failure-free, every
// query is served by its first attempt, so the counter is exactly the sum
// of the replies' rounds.
TEST(Service, GossipRoundsSurviveReshards) {
  constexpr std::uint32_t kNodes = 120;
  QuantileService service(kNodes, service_config(2));
  ingest_fixture(service, kNodes, 4, 37);
  std::uint64_t reply_rounds = 0;
  std::uint64_t last = 0;
  for (std::uint32_t step = 0; step < 15; ++step) {
    SCOPED_TRACE(step);
    if (step % 5 == 2) {
      service.ingest(service.join(), 0.3 + 0.01 * step);
    } else if (step % 5 == 4) {
      service.leave(step);
    }
    const QueryReply reply = service.query(call_log_request(step));
    EXPECT_EQ(reply.attempts, 1u);
    reply_rounds += reply.rounds;
    const std::uint64_t rounds = service.stats().gossip_rounds;
    EXPECT_GE(rounds, last);
    EXPECT_EQ(rounds, reply_rounds);
    last = rounds;
  }
  EXPECT_EQ(service.stats().engine_rebuilds, 7u);  // first seal + 6 re-shards
  EXPECT_NE(service.prometheus_text().find(
                "gq_service_gossip_rounds_total " +
                std::to_string(reply_rounds) + "\n"),
            std::string::npos);
}

TEST(Service, ZeroAttemptBudgetIsRejectedAtConstruction) {
  ServiceConfig cfg = service_config(1);
  cfg.supervisor.max_attempts = 0;
  EXPECT_THROW((void)QuantileService(8, cfg), std::invalid_argument);
}

// ---- degraded replies: golden values ---------------------------------------

// One service's degraded answers to golden_requests(), in request order.
struct DegradedGolden {
  Key quantile;
  Key exact;
  std::uint64_t rank_count;
  std::vector<std::uint64_t> cdf_counts;
  std::vector<Key> multi;
};

std::vector<QueryRequest> golden_requests() {
  std::vector<QueryRequest> r(5);
  r[0].kind = QueryKind::kQuantile;
  r[0].phi = 0.3;
  r[1].kind = QueryKind::kExactQuantile;
  r[1].phi = 0.7;
  r[2].kind = QueryKind::kRank;
  r[2].value = 0.45;
  r[3].kind = QueryKind::kCdf;
  r[3].cdf_points = {0.2, 0.5, 0.8};
  r[4].kind = QueryKind::kMultiQuantile;
  r[4].phis = {0.1, 0.5, 0.99};
  return r;
}

// Golden degraded replies of a forced-exhaustion service per
// InstancePolicy, after the first (full) seal and after a trickle seal that
// moves 43 of the 300 keys.  The values are those of a summary built at
// seal time; the kLocalQuantile summary is built from the frozen instance
// on the epoch's first degraded reply instead, with the same seed and
// inserts, so every answer must match bit for bit.
TEST(Service, DegradedRepliesKeepTheirGoldenValues) {
  constexpr std::uint32_t kNodes = 300;
  const struct {
    InstancePolicy policy;
    DegradedGolden epochs[2];
  } cases[] = {
      {InstancePolicy::kLocalQuantile,
       {{Key{0x1.bc34da91e347ep-2, 118, 0},
         Key{0x1.126126cc92162p-1, 108, 0},
         115,
         {4, 167, 301},
         {Key{0x1.70bd93b6ca138p-2, 199, 0}, Key{0x1.edb68050552e2p-2, 247, 0},
          Key{0x1.580b8d3274dbbp-1, 160, 0}}},
        {Key{0x1.c826983f97abap-2, 92, 0},
         Key{0x1.28b35df2014e9p-1, 51, 0},
         96,
         {0, 142, 261},
         {Key{0x1.7d5327d05ccfap-2, 64, 0}, Key{0x1.07a2abd85e11cp-1, 13, 0},
          Key{0x1.22f1a9fbe76c9p+1, 273, 0}}}}},
      {InstancePolicy::kGlobalResample,
       {{Key{0x1.4727c4ba3d17ap-2, 7, 0},
         Key{0x1.6bb181788d279p-1, 0, 0},
         133,
         {62, 145, 233},
         {Key{0x1.a600d577f98cp-4, 20, 0}, Key{0x1.08c60bd1cef63p-1, 9, 0},
          Key{0x1.fda0d22e91ecep-1, 23, 0}}},
        {Key{0x1.7041022256946p-2, 19, 0},
         Key{0x1.a72c7f41f23e6p-1, 15, 0},
         113,
         {48, 123, 197},
         {Key{0x1.1382bb6080794p-3, 14, 0}, Key{0x1.317f8710073cep-1, 0, 0},
          Key{0x1.23d70a3d70a3ep+1, 45, 0}}}}},
  };
  const std::vector<QueryRequest> requests = golden_requests();
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.policy));
    ServiceConfig cfg = service_config(2);
    cfg.instance_policy = c.policy;
    cfg.supervisor.max_attempts = 1;
    cfg.supervisor.min_served_fraction = 1.5;  // unattainable: always exhausts
    cfg.breaker.open_after = 0;
    QuantileService service(kNodes, cfg);
    ingest_fixture(service, kNodes, 24, 61);
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      SCOPED_TRACE(epoch);
      if (epoch == 1) {
        for (std::uint32_t node = 0; node < kNodes; node += 7) {
          service.ingest(node, std::vector<double>(30, 2.0 + node * 1e-3));
        }
      }
      std::vector<QueryReply> replies;
      for (const QueryRequest& request : requests) {
        replies.push_back(service.query(request));
        EXPECT_EQ(replies.back().quality, AnswerQuality::kDegraded);
        EXPECT_EQ(replies.back().error_bound, 0x1p-4);
        EXPECT_EQ(replies.back().epoch, epoch + 1);
      }
      const DegradedGolden& golden = c.epochs[epoch];
      EXPECT_EQ(replies[0].answer, golden.quantile);
      EXPECT_EQ(replies[1].answer, golden.exact);
      EXPECT_EQ(replies[2].count, golden.rank_count);
      EXPECT_EQ(replies[3].cdf_counts, golden.cdf_counts);
      EXPECT_EQ(replies[4].multi_answers, golden.multi);
    }
  }
}

// ---- slot-targeted session update == full scan -----------------------------

TEST(EpochSession, SlotTargetedUpdateMatchesFullScan) {
  constexpr std::uint32_t kSlots = 40;
  constexpr std::uint32_t kFactor = 2;
  std::vector<Key> instance(kSlots);
  for (std::uint32_t i = 0; i < kSlots; ++i) {
    instance[i] = Key{0.5 + 0.01 * i, i, 0};
  }
  const Key original3 = instance[3];

  EpochSession full;
  EpochSession targeted;
  std::vector<std::uint32_t> every(kSlots);
  std::iota(every.begin(), every.end(), 0u);
  full.update(instance, kFactor);
  targeted.update(instance, every, kFactor);
  expect_same_session(targeted, full);

  // Each epoch's changed slots (in no particular order) and their new keys.
  using Changes = std::vector<std::pair<std::uint32_t, Key>>;
  Changes many, more;
  for (std::uint32_t i = 0; i < 30; ++i) {
    many.emplace_back((i * 7) % kSlots, Key{2.0 + 0.01 * i, i, 1});
  }
  for (std::uint32_t i = 0; i < 20; ++i) {
    more.emplace_back((i * 11 + 5) % kSlots, Key{3.0 + 0.01 * i, i, 1});
  }
  const std::pair<const char*, Changes> epochs[] = {
      {"fresh keys below and above the table",
       {{17, Key{-1.0, 17, 0}}, {3, Key{9.0, 3, 0}}}},
      {"a new key already in the table", {{8, instance[9]}}},
      {"a slot reverts to an older key", {{3, original3}}},
      {"an empty change list", {}},
      {"30 fresh keys", many},
      {"20 more fresh keys", more},
      {"a compaction epoch", {{0, Key{-2.0, 0, 0}}}},
  };
  for (const auto& [what, changes] : epochs) {
    SCOPED_TRACE(what);
    std::vector<std::uint32_t> changed;
    for (const auto& [slot, key] : changes) {
      instance[slot] = key;
      changed.push_back(slot);
    }
    full.update(instance, kFactor);
    targeted.update(instance, changed, kFactor);
    expect_same_session(targeted, full);
  }
  // The cases hit the paths they name: three reuse hits, three merges, and
  // a compaction once the table outgrew kFactor * kSlots.
  EXPECT_EQ(full.reuse_hits(), 3u);
  EXPECT_EQ(full.extends(), 3u);
  EXPECT_EQ(full.rebuilds(), 2u);
}

// ---- interner session: incremental extend == full re-intern ---------------

TEST(KeyInterner, ExtendMatchesFullIntern) {
  const auto base_values =
      generate_values(Distribution::kUniformReal, 500, 51);
  const auto new_values = generate_values(Distribution::kGaussian, 300, 53);
  std::vector<Key> keys;
  for (std::size_t i = 0; i < base_values.size(); ++i) {
    keys.push_back(Key{base_values[i], static_cast<std::uint32_t>(i % 100), 0});
  }

  KeyInterner warm;
  std::vector<std::uint32_t> warm_ranks(keys.size());
  warm.intern(keys, warm_ranks);

  // Epoch advance: some new keys appear (with value duplicates against the
  // existing table mixed in), some existing keys repeat.
  std::vector<Key> added;
  for (std::size_t i = 0; i < new_values.size(); ++i) {
    added.push_back(Key{new_values[i], static_cast<std::uint32_t>(i % 50), 1});
  }
  added.push_back(added.front());  // duplicate inside `added`
  added.push_back(keys.front());   // already in the table
  std::vector<Key> all(keys);
  all.insert(all.end(), added.begin(), added.end());

  warm_ranks.resize(all.size());
  warm.extend(added, all, warm_ranks);

  KeyInterner cold;
  std::vector<std::uint32_t> cold_ranks(all.size());
  cold.intern(all, cold_ranks);

  ASSERT_EQ(warm.table().size(), cold.table().size());
  for (std::size_t i = 0; i < warm.table().size(); ++i) {
    EXPECT_EQ(warm.table()[i], cold.table()[i]);
  }
  for (std::size_t v = 0; v < all.size(); ++v) {
    EXPECT_EQ(warm_ranks[v], cold_ranks[v]) << "node " << v;
  }

  // rank_of / count_le agree with the table.
  for (const Key& k : all) {
    EXPECT_EQ(warm.table()[warm.rank_of(k)], k);
    EXPECT_EQ(warm.count_le(k), warm.rank_of(k) + 1);
  }
}

}  // namespace
}  // namespace gq
