// E-ADVERSARY — the adversarially-robust pipelines (arXiv 2502.15320)
// under strategy and budget sweeps.
//
// Three questions, one table each:
//   * rounds vs budget: the filtered tournament schedule is sized by
//     (phi, eps), not by the adversary, so rounds stay flat while served
//     fraction and corruption exposure absorb the pressure — the
//     graceful-degradation contract, measured;
//   * oblivious baseline: ObliviousAdversary(mu) rows — the model is
//     absorbed into the executor's FailureModel, its losses land in
//     failed_operations, and the filter absorbs those too;
//   * throughput: Network reference vs Engine thread sweep per strategy,
//     bit-identical transcripts (pinned by tests/test_adversary.cpp), so
//     speedups are pure throughput.
//
// Budget levels fold into the pipeline name (bench_diff keys records on
// (bench, pipeline, executor, n, threads)): adv_quantile_greedy_bn64 is
// the greedy strategy with budget n/64.  GQ_BENCH_SMOKE=1 shrinks
// everything to CI-smoke scale.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "core/adversarial.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "workload/distributions.hpp"

namespace gq {
namespace {

constexpr unsigned kThreadSweep[] = {1, 2, 4, 8};

bench::JsonArtifact& artifact() {
  static bench::JsonArtifact a("bench_adversary");
  return a;
}

struct BudgetLevel {
  const char* label;  // folded into the record's pipeline name
  std::uint32_t budget;
};

std::vector<BudgetLevel> budget_levels(std::uint32_t n) {
  return {{"b1", 1}, {"bn64", n / 64}, {"bn8", n / 8}};
}

// One strategy instance per (strategy, budget) cell; bind() resets all
// adaptive state, so reusing an instance across runs is safe.
struct StrategyCell {
  const char* label;
  AdversaryStrategy* strategy;
};

void quantile_sweep_table(std::uint32_t n) {
  const auto values = generate_values(Distribution::kUniformReal, n, 211);
  AdversarialQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  bench::Table table({"strategy", "budget", "executor", "threads", "rounds",
                      "served", "exposure", "Mnode-rounds/s", "speedup"});
  for (const BudgetLevel& level : budget_levels(n)) {
    GreedyTargetedAdversary greedy(level.budget, 1e9);
    EclipseAdversary eclipse(0, level.budget);
    BudgetBurstAdversary burst(level.budget, 8, 3, 2, 31);
    ScatterCorruptAdversary scatter(level.budget, 1e9, 31);
    const StrategyCell cells[] = {{"greedy", &greedy},
                                  {"eclipse", &eclipse},
                                  {"budget_burst", &burst},
                                  {"scatter_corrupt", &scatter}};
    for (const StrategyCell& cell : cells) {
      const std::string pipeline =
          std::string("adv_quantile_") + cell.label + "_" + level.label;

      Network net(n, 1889);
      net.set_adversary(cell.strategy);
      const auto t0 = std::chrono::steady_clock::now();
      const auto seq = adversarial_quantile(net, values, params);
      const double seq_secs = bench::seconds_since(t0);
      table.add_row({cell.label, std::to_string(level.budget), "Network", "1",
                     bench::fmt_u(seq.rounds),
                     bench::fmt_pct(seq.quality.served_fraction),
                     bench::fmt_pct(seq.quality.corruption_exposure),
                     bench::fmt(bench::mnrs(n, seq.rounds, seq_secs)), "1.00"});
      artifact().add(pipeline.c_str(), "network", n, 1, seq.rounds, seq_secs,
                     seq_secs);

      for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
        Engine engine(n, 1889, FailureModel{},
                      EngineConfig{.threads = threads});
        engine.set_adversary(cell.strategy);
        const auto t1 = std::chrono::steady_clock::now();
        const auto par = adversarial_quantile(engine, values, params);
        const double secs = bench::seconds_since(t1);
        table.add_row({cell.label, std::to_string(level.budget), "Engine",
                       std::to_string(threads), bench::fmt_u(par.rounds),
                       bench::fmt_pct(par.quality.served_fraction),
                       bench::fmt_pct(par.quality.corruption_exposure),
                       bench::fmt(bench::mnrs(n, par.rounds, secs)),
                       bench::fmt(seq_secs / secs)});
        artifact().add(pipeline.c_str(), "engine", n, threads, par.rounds,
                       secs, seq_secs);
      }
    }
  }
  table.print();
}

void mean_sweep_table(std::uint32_t n) {
  const auto values = generate_values(Distribution::kGaussian, n, 223);
  AdversarialMeanParams params;

  bench::Table table({"strategy", "budget", "executor", "threads", "rounds",
                      "served", "Mnode-rounds/s", "speedup"});
  for (const BudgetLevel& level : budget_levels(n)) {
    GreedyTargetedAdversary greedy(level.budget, 1e9);
    EclipseAdversary eclipse(0, level.budget);
    const StrategyCell cells[] = {{"greedy", &greedy}, {"eclipse", &eclipse}};
    for (const StrategyCell& cell : cells) {
      const std::string pipeline =
          std::string("adv_mean_") + cell.label + "_" + level.label;

      Network net(n, 1901);
      net.set_adversary(cell.strategy);
      const auto t0 = std::chrono::steady_clock::now();
      const auto seq = adversarial_mean(net, values, params);
      const double seq_secs = bench::seconds_since(t0);
      table.add_row({cell.label, std::to_string(level.budget), "Network", "1",
                     bench::fmt_u(seq.rounds),
                     bench::fmt_pct(seq.quality.served_fraction),
                     bench::fmt(bench::mnrs(n, seq.rounds, seq_secs)), "1.00"});
      artifact().add(pipeline.c_str(), "network", n, 1, seq.rounds, seq_secs,
                     seq_secs);

      for (unsigned threads : bench::thread_sweep(kThreadSweep)) {
        Engine engine(n, 1901, FailureModel{},
                      EngineConfig{.threads = threads});
        engine.set_adversary(cell.strategy);
        const auto t1 = std::chrono::steady_clock::now();
        const auto par = adversarial_mean(engine, values, params);
        const double secs = bench::seconds_since(t1);
        table.add_row({cell.label, std::to_string(level.budget), "Engine",
                       std::to_string(threads), bench::fmt_u(par.rounds),
                       bench::fmt_pct(par.quality.served_fraction),
                       bench::fmt(bench::mnrs(n, par.rounds, secs)),
                       bench::fmt(seq_secs / secs)});
        artifact().add(pipeline.c_str(), "engine", n, threads, par.rounds,
                       secs, seq_secs);
      }
    }
  }
  table.print();
}

// The oblivious baseline: ObliviousAdversary(mu) is absorbed into the
// executor's FailureModel, so its pressure lands in failed_operations —
// and the filter absorbs those too, same flat round count.  The rows
// quantify how much loss the fixed schedule shrugs off.
void oblivious_rounds_table(std::uint32_t n) {
  const auto values = generate_values(Distribution::kUniformReal, n, 227);
  AdversarialQuantileParams params;
  params.phi = 0.5;
  params.eps = 0.1;

  bench::Table table(
      {"mu", "rounds", "served", "failed ops", "Mnode-rounds/s"});
  for (const double mu : {0.0, 0.2, 0.4}) {
    ObliviousAdversary oblivious(mu > 0.0 ? FailureModel::uniform(mu)
                                          : FailureModel{});
    const std::string pipeline =
        "adv_quantile_oblivious_mu" +
        std::to_string(static_cast<int>(mu * 100 + 0.5));
    Network net(n, 1913);
    net.set_adversary(&oblivious);
    const auto t0 = std::chrono::steady_clock::now();
    const auto r = adversarial_quantile(net, values, params);
    const double secs = bench::seconds_since(t0);
    table.add_row({bench::fmt(mu), bench::fmt_u(r.rounds),
                   bench::fmt_pct(r.quality.served_fraction),
                   bench::fmt_u(r.quality.failed_operations),
                   bench::fmt(bench::mnrs(n, r.rounds, secs))});
    artifact().add(pipeline.c_str(), "network", n, 1, r.rounds, secs, secs);
  }
  table.print();
}

void run() {
  bench::print_header(
      "E-ADVERSARY", "adversarial strategies vs the filtered pipelines",
      "arXiv 2502.15320 measured: the filtered tournament schedule is sized "
      "by (phi, eps), so a budget-bounded adaptive adversary moves served "
      "fraction and exposure, never the round count — graceful degradation "
      "by construction");
  std::printf("hardware threads: %u\n\n",
              std::thread::hardware_concurrency());

  const std::uint32_t n = bench::smoke_capped(65536);
  std::printf("## adversarial_quantile (phi=0.5, eps=0.1), n = %u, "
              "strategy x budget\n\n",
              n);
  quantile_sweep_table(n);

  std::printf("\n## adversarial_mean, n = %u, strategy x budget\n\n", n);
  mean_sweep_table(bench::smoke_capped(32768));

  std::printf("\n## oblivious baseline: rounds vs mu, n = %u\n\n", n);
  oblivious_rounds_table(n);
}

// ---- fault soak (--soak) ---------------------------------------------------
//
// The CI resilience gate: a seeded sweep of crash-churn and adaptive
// strategies against a *supervised* QuantileService.  The contract under
// test is the service's never-throw guarantee — every query must come back
// answered, either full (some supervised attempt passed) or degraded (the
// epoch summary answered after the budget exhausted).  One cell forces
// exhaustion outright so the degraded path (and its service/degraded trace
// spans, validated by scripts/trace_check in CI) fires on every run.  Ten
// queries cycle through the five kinds, two of each per cell, so
// open_after = 2 lets a cell that exhausts a kind twice trip its breaker.
// crash_light's nodes stay down for 32 rounds, crashed anywhere in the first
// 64, so some are still down when a query's last round (62 or more) ends,
// and its bar of 0.97 served makes some first attempts miss: the cell
// exercises a retry that recovers a full answer.  Exits non-zero on any
// violation, or unless the sweep as a whole retried an attempt, recovered a
// full answer on a retry, served a degraded answer and opened a breaker.

int run_soak() {
  std::printf("bench_adversary --soak: resilience fault-soak gate\n\n");
  const std::uint32_t nodes = bench::smoke_capped(1024);
  const std::uint32_t budget = std::max<std::uint32_t>(4, nodes / 16);
  std::uint64_t total = 0, full = 0, degraded = 0, violations = 0;
  std::uint64_t retries = 0, recovered = 0, breaker_opens = 0;
  bench::Table table({"strategy", "seed", "min served", "queries", "full",
                      "degraded", "retries", "recovered", "breaker opens"});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    CrashChurnAdversary light(CrashChurnAdversary::Config{
        .crashes = budget, .first_round = 1, .crash_window = 64,
        .down_rounds = 32, .strategy_seed = seed});
    CrashChurnAdversary heavy(CrashChurnAdversary::Config{
        .crashes = budget * 2, .first_round = 1, .crash_window = 32,
        .down_rounds = 0, .strategy_seed = seed});
    GreedyTargetedAdversary greedy(budget, 1e9);
    EclipseAdversary eclipse(0, budget);
    struct Cell {
      const char* label;
      AdversaryStrategy* strategy;
      double min_served;
    };
    const Cell cells[] = {
        {"crash_light", &light, 0.97},
        {"crash_heavy", &heavy, 0.97},  // ~12% permanently down: exhausts
        {"greedy", &greedy, 0.5},
        {"eclipse", &eclipse, 0.5},
        // Unattainable bar: every query exhausts, guaranteeing the degraded
        // path runs (and emits its spans) in every soak.
        {"forced_degrade", nullptr, 1.5},
    };
    for (const Cell& cell : cells) {
      ServiceConfig cfg;
      cfg.seed = 7000 + seed;
      cfg.engine.threads = 4;
      cfg.adversary = cell.strategy;
      cfg.supervisor.max_attempts = 2;
      cfg.supervisor.min_served_fraction = cell.min_served;
      cfg.breaker.open_after = 2;
      cfg.breaker.cooldown_queries = 2;
      std::uint64_t cell_full = 0, cell_degraded = 0, cell_recovered = 0;
      try {
        QuantileService service(nodes, cfg);
        const auto values = generate_values(Distribution::kUniformReal,
                                            nodes * 2, 300 + seed);
        for (std::uint32_t v = 0; v < nodes; ++v) {
          service.ingest(v, values[v * 2]);
          service.ingest(v, values[v * 2 + 1]);
        }
        const QueryKind kinds[] = {QueryKind::kQuantile, QueryKind::kRank,
                                   QueryKind::kCdf, QueryKind::kMultiQuantile,
                                   QueryKind::kExactQuantile};
        for (int i = 0; i < 10; ++i) {
          QueryRequest request;
          request.kind = kinds[i % 5];
          request.phi = 0.25 + 0.05 * static_cast<double>(i % 5);
          request.eps = 0.2;
          request.value = 0.5;
          request.cdf_points = {0.25, 0.5, 0.75};
          request.phis = {0.1, 0.5, 0.9};
          const QueryReply reply = service.query(request);
          ++total;
          if (reply.quality == AnswerQuality::kDegraded) {
            ++degraded;
            ++cell_degraded;
          } else {
            ++full;
            ++cell_full;
            if (reply.attempts > 1) ++cell_recovered;
          }
        }
        const ServiceStats stats = service.stats();
        retries += stats.retry_attempts;
        recovered += cell_recovered;
        breaker_opens += stats.breaker_opens;
        table.add_row({cell.label, std::to_string(seed),
                       bench::fmt(cell.min_served, 2), "10",
                       std::to_string(cell_full),
                       std::to_string(cell_degraded),
                       std::to_string(stats.retry_attempts),
                       std::to_string(cell_recovered),
                       std::to_string(stats.breaker_opens)});
      } catch (const std::exception& error) {
        ++violations;
        std::printf("VIOLATION: strategy=%s seed=%llu threw: %s\n",
                    cell.label, static_cast<unsigned long long>(seed),
                    error.what());
      }
    }
  }
  table.print();
  std::printf("\nsoak: %llu queries, %llu full, %llu degraded, "
              "%llu retries, %llu recovered, %llu breaker opens, "
              "%llu violations\n",
              static_cast<unsigned long long>(total),
              static_cast<unsigned long long>(full),
              static_cast<unsigned long long>(degraded),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(recovered),
              static_cast<unsigned long long>(breaker_opens),
              static_cast<unsigned long long>(violations));
  // No query may throw, and the sweep must have exercised every resilience
  // path it names: a retried attempt, a retry that recovered a full answer,
  // a degraded answer and an open breaker (otherwise the gate and CI's
  // trace requirements are vacuous).  exit_status() flushes the GQ_TRACE
  // artifacts the trace gate validates.
  const bool exercised =
      degraded > 0 && retries > 0 && recovered > 0 && breaker_opens > 0;
  const int soak_status = (violations == 0 && exercised) ? 0 : 1;
  const int artifact_status = bench::exit_status();
  return soak_status != 0 ? soak_status : artifact_status;
}

}  // namespace
}  // namespace gq

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--soak") return gq::run_soak();
  }
  gq::run();
  return gq::bench::exit_status();
}
