// E-SVC — streaming service throughput: sustained ingest + query QPS.
//
// Measures the serving layer (src/service/) end to end: a fleet of nodes
// streams values into bounded KLL summaries while quantile / rank / CDF
// queries re-run the engine pipelines on demand.  Three angles:
//
//   1. warm vs cold quantile serving — the tentpole claim: a warm session
//      (persistent engine, interned table handed to the kernels via
//      adopt_intern_session) vs constructing a fresh service per query,
//   2. batched multi-tenant CDF probes (gossip_count3 folds three probes
//      into one diffusion), swept over query batch size, and
//   3. the mixed steady state: interleaved ingest and queries, so every
//      query pays the epoch seal and the session's incremental extend.
//
// Records land in BENCH_engine.json as executor "service" with qps +
// higher_is_better set, so scripts/bench_diff gates throughput in the
// correct direction (bigger is better, unlike the latency rows).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "service/quantile_service.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 8};

bench::JsonArtifact& artifact() {
  static bench::JsonArtifact a("bench_service_qps");
  return a;
}

ServiceConfig config_for(unsigned threads) {
  ServiceConfig cfg;
  cfg.seed = 4242;
  cfg.sketch_k = 64;
  cfg.engine.threads = threads;
  return cfg;
}

void ingest_all(QuantileService& service, std::uint32_t n,
                std::size_t per_node, const std::vector<double>& values) {
  for (std::uint32_t v = 0; v < n; ++v) {
    service.ingest(v, std::span<const double>(values)
                          .subspan(v * per_node, per_node));
  }
}

// Angle 1: warm session vs cold per-query construction.
void warm_vs_cold_table(std::uint32_t n, unsigned threads,
                        std::size_t queries) {
  constexpr std::size_t kPerNode = 16;
  const auto values =
      generate_values(Distribution::kUniformReal, n * kPerNode, 7);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.5;

  bench::Table table({"pipeline", "threads", "queries", "qps", "speedup"});

  QuantileService warm(n, config_for(threads));
  ingest_all(warm, n, kPerNode, values);
  (void)warm.query(request);  // pay the cold intern outside the timer
  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t rounds = 0;
  for (std::size_t q = 0; q < queries; ++q) rounds += warm.query(request).rounds;
  const double warm_secs = bench::seconds_since(t0);
  const double warm_qps = static_cast<double>(queries) / warm_secs;

  // Cold: a fresh service (fresh engine, thread pool, un-interned session)
  // per query — what callers paid before the service layer existed.
  const std::size_t cold_queries = std::max<std::size_t>(1, queries / 8);
  const auto t1 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < cold_queries; ++q) {
    QuantileService cold(n, config_for(threads));
    ingest_all(cold, n, kPerNode, values);
    rounds += cold.query(request).rounds;
  }
  const double cold_secs = bench::seconds_since(t1);
  const double cold_qps = static_cast<double>(cold_queries) / cold_secs;

  table.add_row({"service_quantile_cold", std::to_string(threads),
                 bench::fmt_u(cold_queries), bench::fmt(cold_qps),
                 "1.00"});
  table.add_row({"service_quantile_warm", std::to_string(threads),
                 bench::fmt_u(queries), bench::fmt(warm_qps),
                 bench::fmt(warm_qps / cold_qps)});
  table.print();

  artifact().add(bench::PerfRecord{.pipeline = "service_quantile_cold",
                                   .executor = "service",
                                   .n = n,
                                   .threads = threads,
                                   .seconds = cold_secs,
                                   .qps = cold_qps,
                                   .higher_is_better = true});
  artifact().add(bench::PerfRecord{.pipeline = "service_quantile_warm",
                                   .executor = "service",
                                   .n = n,
                                   .threads = threads,
                                   .seconds = warm_secs,
                                   .qps = warm_qps,
                                   .higher_is_better = true});
}

// Angle 2: batched CDF probes per diffusion, swept over batch size.
void cdf_batch_table(std::uint32_t n, unsigned threads, std::size_t trials) {
  constexpr std::size_t kPerNode = 16;
  const auto values =
      generate_values(Distribution::kGaussian, n * kPerNode, 11);
  QuantileService service(n, config_for(threads));
  ingest_all(service, n, kPerNode, values);

  bench::Table table({"pipeline", "threads", "probes/query", "probe qps"});
  for (const std::size_t probes : {1u, 3u, 9u}) {
    QueryRequest request;
    request.kind = QueryKind::kCdf;
    for (std::size_t p = 0; p < probes; ++p) {
      request.cdf_points.push_back(-2.0 +
                                   4.0 * static_cast<double>(p + 1) /
                                       static_cast<double>(probes + 1));
    }
    (void)service.query(request);  // warm
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t t = 0; t < trials; ++t) (void)service.query(request);
    const double secs = bench::seconds_since(t0);
    const double probe_qps =
        static_cast<double>(trials * probes) / secs;
    const std::string name = "service_cdf_x" + std::to_string(probes);
    table.add_row({name, std::to_string(threads), std::to_string(probes),
                   bench::fmt(probe_qps)});
    artifact().add(bench::PerfRecord{.pipeline = name,
                                     .executor = "service",
                                     .n = n,
                                     .threads = threads,
                                     .seconds = secs,
                                     .qps = probe_qps,
                                     .higher_is_better = true});
  }
  table.print();
}

// Angle 3: interleaved ingest + query — every query seals a new epoch, so
// the session's incremental extend path (not the full re-sort) is the hot
// path being measured.
void mixed_steady_state_table(std::uint32_t n, unsigned threads,
                              std::size_t queries) {
  constexpr std::size_t kPerNode = 16;
  const auto values =
      generate_values(Distribution::kExponential, n * (kPerNode + 4), 13);
  QuantileService service(n, config_for(threads));
  ingest_all(service, n, kPerNode, values);

  QueryRequest request;
  request.kind = QueryKind::kQuantile;
  request.phi = 0.9;
  (void)service.query(request);

  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t q = 0; q < queries; ++q) {
    // A trickle of fresh values lands on a rotating node between queries.
    service.ingest(static_cast<std::uint32_t>(q % n),
                   values[(n * kPerNode + q) % values.size()]);
    (void)service.query(request);
  }
  const double secs = bench::seconds_since(t0);
  const double qps = static_cast<double>(queries) / secs;

  const ServiceStats stats = service.stats();
  bench::Table table(
      {"pipeline", "threads", "queries", "qps", "extends", "rebuilds"});
  table.add_row({"service_mixed_ingest_query", std::to_string(threads),
                 bench::fmt_u(queries), bench::fmt(qps),
                 bench::fmt_u(stats.session_extends),
                 bench::fmt_u(stats.session_rebuilds)});
  table.print();

  artifact().add(bench::PerfRecord{.pipeline = "service_mixed_ingest_query",
                                   .executor = "service",
                                   .n = n,
                                   .threads = threads,
                                   .seconds = secs,
                                   .qps = qps,
                                   .higher_is_better = true});
}

}  // namespace
}  // namespace gq

int main() {
  using namespace gq;
  bench::print_header(
      "E-SVC", "streaming service throughput",
      "long-lived sessions amortise engine construction and the interned "
      "instance across queries; batched probes share diffusions");

  // The smoke size keeps eps 0.1 above eps_tournament_floor(n) (about 0.099
  // at 8192), so smoke quantile queries run the tournaments the full-scale
  // rows run, not the exact fallback.
  const std::uint32_t n = bench::smoke_capped(1u << 16, 8192);
  const auto queries = bench::scaled_trials(bench::smoke_mode() ? 6 : 40);

  for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
    std::printf("### n = %u, threads = %u\n\n", n, threads);
    warm_vs_cold_table(n, threads, queries);
    cdf_batch_table(n, threads, queries);
    mixed_steady_state_table(n, threads, queries);
  }
  return bench::exit_status();
}
