// The streaming quantile service layer (src/service/): epoch/session
// semantics, and the load-bearing guarantee that a *warm* session query is
// bit-identical to a *cold* one-shot engine run on the same snapshot — at
// 1, 2, and 8 threads, across churn, and for every query kind.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
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
