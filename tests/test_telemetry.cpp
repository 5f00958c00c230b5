// The telemetry layer's two hard invariants (src/telemetry/telemetry.hpp):
//
//   * observational only — enabling telemetry changes no transcript, round
//     count, or reply bit, for approx/exact/robust pipelines and warm
//     service sessions, at 1, 2, and 8 threads;
//   * recording is sane — spans are balanced and name-resolvable, worker
//     counters populate exactly when enabled, full rings drop (and count)
//     new events instead of corrupting old ones, and the exporters emit
//     well-formed artifacts from whatever was recorded.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "sim/failure_model.hpp"
#include "telemetry/export.hpp"
#include "telemetry/telemetry.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadCounts[] = {1, 2, 8};

// Every test starts and ends with telemetry off and the rings empty, so
// test order cannot leak recorded state across cases (the registry itself
// is process-global by design).
class Telemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    telemetry::disable();
    telemetry::reset();
  }
  void TearDown() override {
    telemetry::disable();
    telemetry::reset();
  }
};

EngineConfig engine_config(unsigned threads) {
  return EngineConfig{.threads = threads, .shard_size = 96};
}

ServiceConfig service_config(unsigned threads) {
  ServiceConfig cfg;
  cfg.seed = 2024;
  cfg.sketch_k = 64;
  cfg.engine.threads = threads;
  cfg.engine.shard_size = 96;
  return cfg;
}

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

// Transcript fingerprints of two approx, one exact, and one robust
// (failure-model) pipeline run, all from fixed seeds.  Telemetry on or off
// must produce the same struct bit for bit.  The first approx run sits
// below eps_tournament_floor(600) ~ 0.237 and takes the exact fallback;
// the second takes the tournament route.
struct Fingerprint {
  std::uint64_t approx_hash = 0;
  std::uint64_t approx_rounds = 0;
  std::uint64_t tournament_hash = 0;
  std::uint64_t tournament_rounds = 0;
  std::uint64_t exact_hash = 0;
  std::uint64_t exact_rounds = 0;
  std::uint64_t robust_hash = 0;
  std::uint64_t robust_rounds = 0;
  std::uint64_t robust_served = 0;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_pipelines(unsigned threads) {
  constexpr std::uint32_t kN = 600;
  const auto values = generate_values(Distribution::kUniformReal, kN, 17);
  Fingerprint fp;
  {
    Engine engine(kN, 991, FailureModel{}, engine_config(threads));
    ApproxQuantileParams params;
    params.phi = 0.5;
    params.eps = 0.15;
    const ApproxQuantileResult r = approx_quantile(engine, values, params);
    fp.approx_hash = transcript_hash(r.outputs, r.valid);
    fp.approx_rounds = r.rounds;
  }
  {
    Engine engine(kN, 994, FailureModel{}, engine_config(threads));
    ApproxQuantileParams params;
    params.phi = 0.25;
    params.eps = 0.25;
    const ApproxQuantileResult r = approx_quantile(engine, values, params);
    EXPECT_FALSE(r.used_exact_fallback);
    fp.tournament_hash = transcript_hash(r.outputs, r.valid);
    fp.tournament_rounds = r.rounds;
  }
  {
    Engine engine(kN, 992, FailureModel{}, engine_config(threads));
    ExactQuantileParams params;
    params.phi = 0.5;
    const ExactQuantileResult r = exact_quantile(engine, values, params);
    fp.exact_hash = transcript_hash(r.outputs, r.valid);
    fp.exact_rounds = r.rounds;
  }
  {
    Engine engine(kN, 993, FailureModel::uniform(0.05),
                  engine_config(threads));
    ApproxQuantileParams params;
    params.phi = 0.5;
    params.eps = 0.15;
    const ApproxQuantileResult r = approx_quantile(engine, values, params);
    fp.robust_hash = transcript_hash(r.outputs, r.valid);
    fp.robust_rounds = r.rounds;
    fp.robust_served = r.served_nodes();
  }
  return fp;
}

// ---- invariant 1: telemetry is observational only -------------------------

TEST_F(Telemetry, PipelinesBitIdenticalEnabledVsDisabled) {
  for (unsigned threads : kThreadCounts) {
    telemetry::disable();
    const Fingerprint off = run_pipelines(threads);

    telemetry::enable();
    const Fingerprint on = run_pipelines(threads);
    telemetry::disable();

    EXPECT_TRUE(on == off) << "threads=" << threads;

    // And the fingerprints are thread-count invariant either way, so the
    // three runs above pin one transcript, not three.
    const Fingerprint base = run_pipelines(kThreadCounts[0]);
    EXPECT_TRUE(off == base) << "threads=" << threads;
  }
}

TEST_F(Telemetry, WarmServiceRepliesUnchangedByTelemetry) {
  constexpr std::uint32_t kNodes = 500;
  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;
  request.eps = 0.2;

  for (unsigned threads : kThreadCounts) {
    const auto replies = [&](bool with_telemetry) {
      if (with_telemetry) {
        telemetry::enable();
      } else {
        telemetry::disable();
      }
      QuantileService service(kNodes, service_config(threads));
      ingest_fixture(service, kNodes, 12, 7);
      std::vector<QueryReply> out;
      for (int q = 0; q < 3; ++q) out.push_back(service.query(request));
      telemetry::disable();
      return out;
    };
    const std::vector<QueryReply> off = replies(false);
    const std::vector<QueryReply> on = replies(true);
    ASSERT_EQ(on.size(), off.size());
    for (std::size_t i = 0; i < on.size(); ++i) {
      EXPECT_EQ(on[i].answer, off[i].answer) << "threads=" << threads;
      EXPECT_EQ(on[i].value, off[i].value);
      EXPECT_EQ(on[i].seed, off[i].seed);
      EXPECT_EQ(on[i].epoch, off[i].epoch);
      EXPECT_EQ(on[i].rounds, off[i].rounds);
      EXPECT_EQ(on[i].served, off[i].served);
      EXPECT_EQ(on[i].transcript_hash, off[i].transcript_hash);
    }
  }
}

// ---- invariant 2: recording itself is sane --------------------------------

TEST_F(Telemetry, DisabledRecordsNothing) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const std::size_t pools_before = telemetry::pool_samples().size();

  (void)run_pipelines(2);
  QuantileService service(200, service_config(1));
  ingest_fixture(service, 200, 8, 3);
  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  (void)service.query(request);

  EXPECT_TRUE(telemetry::snapshot().empty());
  EXPECT_EQ(service.query_latency(QueryKind::kQuantile).total(), 0u);
  // Pools created while disabled retire with all-zero worker counters.
  const auto pools = telemetry::pool_samples();
  ASSERT_GT(pools.size(), pools_before);
  for (std::size_t p = pools_before; p < pools.size(); ++p) {
    for (const auto& w : pools[p].workers) {
      EXPECT_EQ(w.busy_ns, 0u);
      EXPECT_EQ(w.chunks, 0u);
      EXPECT_EQ(w.batches, 0u);
    }
  }
}

TEST_F(Telemetry, EnabledRecordsBalancedResolvableSpans) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::enable();
  (void)run_pipelines(2);
  telemetry::disable();

  const std::vector<telemetry::SpanEvent> events = telemetry::snapshot();
  const std::vector<std::string> names = telemetry::span_names();
  ASSERT_FALSE(events.empty());
  std::set<std::string> seen;
  for (const auto& e : events) {
    ASSERT_LT(e.id, names.size());
    EXPECT_LE(e.start_ns, e.end_ns);
    EXPECT_GT(e.start_ns, 0u);
    seen.insert(names[e.id]);
  }
  // The flagship phases of all three instrumented layers show up.
  EXPECT_TRUE(seen.count("pipeline/approx_quantile"));
  EXPECT_TRUE(seen.count("pipeline/exact_quantile"));
  EXPECT_TRUE(seen.count("engine/parallel_shards"));
  EXPECT_TRUE(seen.count("exact/iteration"));
  EXPECT_TRUE(seen.count("approx/two_tournament"));
  EXPECT_TRUE(seen.count("approx/three_tournament"));
  EXPECT_TRUE(seen.count("robust/two_iteration"));
  EXPECT_TRUE(seen.count("agg/push_sum"));
  EXPECT_TRUE(seen.count("agg/spread"));
}

TEST_F(Telemetry, SpanInterningIsIdempotent) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const telemetry::SpanId a = telemetry::register_span("test/interned_name");
  const telemetry::SpanId b = telemetry::register_span("test/interned_name");
  EXPECT_EQ(a, b);
  const auto names = telemetry::span_names();
  ASSERT_LT(a, names.size());
  EXPECT_EQ(names[a], "test/interned_name");
}

TEST_F(Telemetry, PoolCountersPopulateWhenEnabled) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  const std::size_t pools_before = telemetry::pool_samples().size();
  telemetry::enable();
  {
    constexpr std::uint32_t kN = 600;
    const auto values = generate_values(Distribution::kUniformReal, kN, 17);
    Engine engine(kN, 991, FailureModel{}, engine_config(2));
    ApproxQuantileParams params;
    params.eps = 0.15;
    (void)approx_quantile(engine, values, params);
  }  // engine destroyed: its pool retires with a final counter snapshot
  telemetry::disable();

  const auto pools = telemetry::pool_samples();
  ASSERT_GT(pools.size(), pools_before);
  bool busy_worker_found = false;
  for (std::size_t p = pools_before; p < pools.size(); ++p) {
    EXPECT_TRUE(pools[p].retired);
    EXPECT_GT(pools[p].wall_ns, 0u);
    for (const auto& w : pools[p].workers) {
      if (w.busy_ns > 0 && w.chunks > 0 && w.batches > 0) {
        busy_worker_found = true;
      }
    }
  }
  EXPECT_TRUE(busy_worker_found);
}

TEST_F(Telemetry, FullRingDropsNewEventsAndCountsThem) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::Config tiny;
  tiny.ring_capacity = 8;
  telemetry::enable(tiny);
  // A fresh thread gets a fresh ring at the tiny capacity; the first 8
  // spans land, the remaining 32 are dropped and counted.
  std::thread([] {
    const telemetry::SpanId id = telemetry::register_span("test/drop_probe");
    for (int i = 0; i < 40; ++i) telemetry::Span span(id);
  }).join();
  telemetry::enable();  // restore the default capacity for later threads
  telemetry::disable();

  const telemetry::SpanId probe = telemetry::register_span("test/drop_probe");
  std::size_t recorded = 0;
  for (const auto& e : telemetry::snapshot()) recorded += (e.id == probe);
  EXPECT_EQ(recorded, 8u);
  EXPECT_EQ(telemetry::dropped_events(), 32u);
}

// ---- exporters ------------------------------------------------------------

TEST_F(Telemetry, ExportersEmitWellFormedArtifacts) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::enable();
  (void)run_pipelines(2);
  telemetry::disable();

  const auto slurp = [](const std::string& path) {
    std::string out;
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) return out;
    char buf[4096];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof buf, f)) > 0) {
      out.append(buf, got);
    }
    std::fclose(f);
    return out;
  };

  const std::string trace_path = "/tmp/gq_test_trace.json";
  const std::string jsonl_path = "/tmp/gq_test_trace.jsonl";
  ASSERT_TRUE(telemetry::write_chrome_trace(trace_path));
  ASSERT_TRUE(telemetry::write_jsonl(jsonl_path));

  const std::string trace = slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("pipeline/approx_quantile"), std::string::npos);
  EXPECT_NE(trace.find("\"ph\": \"X\""), std::string::npos);
  const std::string jsonl = slurp(jsonl_path);
  EXPECT_NE(jsonl.find("pipeline/exact_quantile"), std::string::npos);
  std::remove(trace_path.c_str());
  std::remove(jsonl_path.c_str());

  const std::string prom = telemetry::prometheus_text();
  EXPECT_NE(prom.find("gq_phase_count"), std::string::npos);
  EXPECT_NE(prom.find("gq_phase_duration_seconds"), std::string::npos);
  EXPECT_NE(prom.find("gq_worker_busy_seconds_total"), std::string::npos);
  EXPECT_FALSE(telemetry::phase_summary().empty());
  EXPECT_FALSE(telemetry::utilization_summary().empty());
}

TEST_F(Telemetry, ServiceLatencyHistogramsPopulateWhenEnabled) {
  if (!telemetry::kCompiledIn) GTEST_SKIP() << "telemetry compiled out";
  telemetry::enable();
  QuantileService service(300, service_config(1));
  ingest_fixture(service, 300, 8, 3);
  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  (void)service.query(request);
  request.kind = QueryKind::kRank;
  request.value = 0.5;
  (void)service.query(request);
  (void)service.query(request);
  telemetry::disable();

  EXPECT_EQ(service.query_latency(QueryKind::kQuantile).total(), 1u);
  EXPECT_EQ(service.query_latency(QueryKind::kRank).total(), 2u);
  EXPECT_EQ(service.query_latency(QueryKind::kCdf).total(), 0u);
  const std::string summary = service.latency_summary();
  EXPECT_NE(summary.find("quantile"), std::string::npos);
  EXPECT_NE(summary.find("p99"), std::string::npos);
  const std::string prom = service.prometheus_text();
  EXPECT_NE(prom.find("gq_service_queries_total"), std::string::npos);
  EXPECT_NE(prom.find("gq_service_query_seconds"), std::string::npos);
}

}  // namespace
}  // namespace gq
