// perfbench: the repository benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload as a closed loop with a single caller through the
// public API (engine/pipelines.hpp, service/quantile_service.hpp), checks
// every answer against an offline oracle (analysis/RankScale), and prints
// one JSON result as the last line of stdout.  --trace 0 reports the
// end-to-end metrics; --trace 1 replays every op untraced and traced (the
// fingerprints must agree), reads the program's GQ_SPAN phases through
// telemetry::snapshot()/pool_samples(), and times each layer's public
// functions on the workload's instance.  Workloads, metrics and the
// layer -> end-to-end prediction map are described in layer_map.json.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/rank_stats.hpp"
#include "analysis/theory_bounds.hpp"
#include "engine/kernels.hpp"
#include "engine/pipelines.hpp"
#include "service/quantile_service.hpp"
#include "service/session.hpp"
#include "sim/key_intern.hpp"
#include "sketch/kll.hpp"
#include "telemetry/telemetry.hpp"
#include "util/rng.hpp"
#include "workload/distributions.hpp"
#include "workload/tiebreak.hpp"

namespace {

using gq::Key;
using Clock = std::chrono::steady_clock;

constexpr int kSetupReps = 5;  // set-ups per run; setup_s is their median
constexpr std::size_t kSetupOps = 3;   // ops a set-up runs before steady state
constexpr int kProbeReps = 3;  // repetitions of each per-layer probe
constexpr std::size_t kMinOps = 3;
constexpr std::size_t kServiceValuesPerNode = 16;
constexpr std::size_t kServiceBatch = 256;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t x) {
  for (int i = 0; i < 8; ++i) {
    h ^= (x >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Threshold key matching every instance key with value <= v (the service's
// rank/CDF probe semantics).
Key probe_key(double v) {
  return Key{v, std::numeric_limits<std::uint32_t>::max(),
             std::numeric_limits<std::uint64_t>::max()};
}

// ---- one op's measurements --------------------------------------------------

struct OpSample {
  double ms = 0.0;           // wall time of the op (timed window)
  int kind = 0;              // service ops: the query kind's index in the mix
  double ingest_ms = 0.0;    // service ops: the ingest part of ms
  gq::Metrics cost;          // Metrics delta of the op's gossip
  std::uint64_t fingerprint = 0;
  std::size_t exact_iterations = 0;
  std::size_t endgame_phases = 0;
  std::string error;         // empty iff the op passed every check
};

// ---- layer metrics ------------------------------------------------------------

// Metrics of one result: name -> (value, unit).
struct MetricSet {
  std::map<std::string, std::pair<double, std::string>> values;
  void set(const std::string& name, double v, const char* unit) {
    values[name] = {v, unit};
  }
};

template <typename Fn>
double time_ms(Fn&& fn) {
  const auto t0 = Clock::now();
  fn();
  return ms_since(t0);
}

// Times the engine/sim/agg/sketch layers' public functions on one instance.
// `eps` is the slack the workload's tournaments run at; `values` are spread
// over `sketch_nodes` per-node sketches for the merge probe.
void probe_layers(gq::Engine& engine, std::span<const Key> keys,
                  std::span<const double> values, std::uint32_t sketch_nodes,
                  double eps, std::uint64_t seed, MetricSet& out) {
  const auto n = static_cast<std::uint32_t>(keys.size());
  gq::Xoshiro256StarStar gen(gq::derive_seed(seed, 77));
  // The op's keys with kServiceBatch of them replaced by fresh keys: the
  // shape of an epoch advance that KeyInterner::extend serves.
  std::vector<Key> added(std::min<std::size_t>(kServiceBatch, n));
  std::vector<Key> advanced(keys.begin(), keys.end());
  for (std::size_t i = 0; i < added.size(); ++i) {
    const auto v = static_cast<std::uint32_t>(gq::rand_index(gen, n));
    added[i] = Key{gq::rand_double(gen), v, 1};
    advanced[v] = added[i];
  }
  std::vector<Key> sorted(keys.begin(), keys.end());
  std::sort(sorted.begin(), sorted.end());
  const Key q25 = sorted[n / 4], q50 = sorted[n / 2], q75 = sorted[3 * n / 4];
  std::vector<bool> ind_a(n), ind_b(n), ind_c(n), all(n, true);
  for (std::uint32_t v = 0; v < n; ++v) {
    ind_a[v] = keys[v] <= q25;
    ind_b[v] = keys[v] <= q50;
    ind_c[v] = keys[v] <= q75;
  }
  // Token split input: every 8th node valued, multiplier 4 -> n/2 tokens.
  std::vector<Key> sparse(n, Key::infinite());
  for (std::uint32_t v = 0; v < n; v += 8) sparse[v] = keys[v];

  std::vector<double> intern, extend, update, two, three, rank, rank_rounds,
      count3, spread, pivot, token, insert_ns, merge;
  std::vector<std::uint32_t> ranks(n);
  for (int rep = 0; rep < kProbeReps; ++rep) {
    gq::KeyInterner interner;
    intern.push_back(time_ms([&] { interner.intern(keys, ranks); }));
    extend.push_back(
        time_ms([&] { interner.extend(added, advanced, ranks); }));

    gq::EpochSession session;
    session.update(keys, 4);
    update.push_back(time_ms([&] { session.update(advanced, 4); }));

    engine.reset_stream(gq::derive_seed(seed, 100 + rep));
    std::vector<Key> state(keys.begin(), keys.end());
    two.push_back(time_ms([&] {
      (void)gq::two_tournament(engine, state, 0.5, eps);
    }));
    three.push_back(time_ms([&] {
      (void)gq::three_tournament(engine, state, eps / 4.0);
    }));

    gq::CountResult rr;
    rank.push_back(time_ms([&] { rr = gq::gossip_rank(engine, keys, q50); }));
    rank_rounds.push_back(static_cast<double>(rr.rounds));
    if (rr.counts.front() != static_cast<std::uint64_t>(n / 2 + 1)) {
      throw std::runtime_error("probe: gossip_rank miscounted");
    }
    count3.push_back(time_ms(
        [&] { (void)gq::gossip_count3(engine, ind_a, ind_b, ind_c); }));
    spread.push_back(time_ms([&] {
      (void)gq::spread_min(engine, keys);
      (void)gq::spread_max(engine, keys);
    }));
    pivot.push_back(time_ms(
        [&] { (void)gq::sample_uniform_candidate(engine, keys, all); }));
    token.push_back(time_ms([&] {
      (void)gq::token_split_distribute(engine, sparse, 4, 1ull << 32);
    }));

    gq::KllSketch sketch(256, gq::derive_seed(seed, 200 + rep));
    const double ins_ms = time_ms([&] {
      for (std::size_t i = 0; i < values.size(); ++i) {
        sketch.insert(Key{values[i], static_cast<std::uint32_t>(i), 0});
      }
    });
    insert_ns.push_back(ins_ms * 1e6 / static_cast<double>(values.size()));
    // One summary per service node over the same values, merged centrally.
    const std::size_t per = std::max<std::size_t>(1, values.size() / sketch_nodes);
    std::vector<gq::KllSketch> nodes;
    nodes.reserve(sketch_nodes);
    for (std::uint32_t v = 0; v < sketch_nodes; ++v) {
      nodes.emplace_back(256, gq::derive_seed(seed, v));
      for (std::size_t i = v * per; i < (v + 1) * per && i < values.size(); ++i) {
        nodes.back().insert(Key{values[i], static_cast<std::uint32_t>(i), 0});
      }
    }
    gq::KllSketch merged(256, gq::derive_seed(seed, 300 + rep));
    merge.push_back(time_ms([&] {
      for (const gq::KllSketch& s : nodes) merged.merge(s);
    }));
  }
  out.set("sim.intern_ms", median(intern), "ms");
  out.set("sim.extend_ms", median(extend), "ms");
  out.set("service.session_update_ms", median(update), "ms");
  out.set("engine.two_tournament_ms", median(two), "ms");
  out.set("engine.three_tournament_ms", median(three), "ms");
  out.set("agg.rank_ms", median(rank), "ms");
  out.set("agg.rank_rounds", median(rank_rounds), "count");
  out.set("agg.count3_ms", median(count3), "ms");
  out.set("agg.spread_ms", median(spread), "ms");
  out.set("agg.pivot_ms", median(pivot), "ms");
  out.set("agg.token_split_ms", median(token), "ms");
  out.set("sketch.insert_ns", median(insert_ns), "ns");
  out.set("sketch.merge_ms", median(merge), "ms");
}

// Core: the tournament phases' iteration counts of one approx run.
void probe_core(gq::Engine& engine, std::span<const Key> keys,
                const gq::ApproxQuantileParams& params, std::uint64_t seed,
                MetricSet& out) {
  engine.reset_stream(gq::derive_seed(seed, 5));
  const auto r = gq::approx_quantile_keys(engine, keys, params);
  out.set("core.phase1_iters", static_cast<double>(r.phase1_iterations), "count");
  out.set("core.phase2_iters", static_cast<double>(r.phase2_iterations), "count");
}

// ---- the service's query mix ----------------------------------------------

// The mix's kinds, taken round-robin so every run serves the same
// proportions; each query's parameters are drawn from the seed.
constexpr gq::QueryKind kMixKinds[] = {gq::QueryKind::kQuantile,
                                       gq::QueryKind::kRank, gq::QueryKind::kCdf,
                                       gq::QueryKind::kMultiQuantile};

gq::QueryRequest draw_request(gq::QueryKind kind, gq::Xoshiro256StarStar& gen) {
  gq::QueryRequest r;
  r.kind = kind;
  // Probe points span the bulk of the per-node-median instance of Exp(1)
  // streams (centred near ln 2).
  const auto probe = [&] { return 0.2 + 1.2 * gq::rand_double(gen); };
  switch (kind) {
    case gq::QueryKind::kQuantile: {
      constexpr double kPhis[] = {0.5, 0.9, 0.99};
      r.phi = kPhis[gq::rand_index(gen, 3)];
      break;
    }
    case gq::QueryKind::kRank:
      r.value = probe();
      break;
    case gq::QueryKind::kCdf:
      for (int i = 0; i < 5; ++i) r.cdf_points.push_back(probe());
      std::sort(r.cdf_points.begin(), r.cdf_points.end());
      break;
    case gq::QueryKind::kMultiQuantile:
      r.phis = {0.5, 0.9, 0.99, 0.999};
      break;
    case gq::QueryKind::kExactQuantile:
      break;
  }
  return r;
}

// The eps window is an interval in key order, so checking the extreme
// outputs checks every node's output.
bool outputs_within_eps(const gq::RankScale& scale, std::span<const Key> outputs,
                        double phi, double eps) {
  const auto [lo, hi] = std::minmax_element(outputs.begin(), outputs.end());
  return scale.within_eps(*lo, phi, eps) && scale.within_eps(*hi, phi, eps);
}

// Checks a full-quality reply against the sealed instance; returns "" when
// correct.
std::string check_reply(const gq::QueryRequest& req, const gq::QueryReply& rep,
                        std::span<const Key> epoch_keys, double eps) {
  if (rep.quality != gq::AnswerQuality::kFull) return "degraded reply";
  if (rep.attempts != 1) return "supervisor retried";
  if (rep.used_exact_fallback) return "exact fallback ran";
  const gq::RankScale scale(epoch_keys);
  switch (req.kind) {
    case gq::QueryKind::kQuantile:
      return scale.within_eps(rep.answer, req.phi, eps) ? "" : "quantile outside eps";
    case gq::QueryKind::kRank:
      return rep.count == scale.rank(probe_key(req.value)) ? "" : "rank miscounted";
    case gq::QueryKind::kCdf:
      if (rep.cdf_counts.size() != req.cdf_points.size()) return "cdf size";
      for (std::size_t i = 0; i < req.cdf_points.size(); ++i) {
        if (rep.cdf_counts[i] != scale.rank(probe_key(req.cdf_points[i]))) {
          return "cdf miscounted";
        }
      }
      return "";
    case gq::QueryKind::kMultiQuantile:
      for (std::size_t i = 0; i < req.phis.size(); ++i) {
        if (!scale.within_eps(rep.multi_answers[i], req.phis[i], eps)) {
          return "multi quantile outside eps";
        }
      }
      return "";
    case gq::QueryKind::kExactQuantile:
      return rep.answer == scale.exact_quantile(req.phi) ? "" : "wrong exact answer";
  }
  return "unexpected query kind";
}

struct Replay {
  gq::Metrics cost;
  std::uint64_t hash = 0;  // the reply's transcript_hash if all is well
  std::string error;       // a node's approx output outside the eps window
};

// Replays a warm service query on a cold-equivalent engine (reset_stream to
// the reply's seed over the sealed instance).  The program guarantees the
// transcript is identical, so the replay exposes what the reply does not:
// the query's Metrics and every node's output.
Replay replay_query(gq::Engine& engine, const gq::QueryRequest& req,
                    const gq::QueryReply& rep, std::span<const Key> keys,
                    const gq::RankScale& scale, double eps) {
  Replay out;
  std::uint64_t& hash = out.hash;
  engine.reset_stream(rep.seed);
  const gq::Metrics before = engine.metrics();
  const auto n = static_cast<std::uint32_t>(keys.size());
  const auto indicator = [&](double value) {
    std::vector<bool> ind(n);
    const Key z = probe_key(value);
    for (std::uint32_t v = 0; v < n; ++v) ind[v] = keys[v] <= z;
    return ind;
  };
  switch (req.kind) {
    case gq::QueryKind::kQuantile: {
      gq::ApproxQuantileParams p;
      p.phi = req.phi;
      p.eps = eps;
      const auto r = gq::approx_quantile_keys(engine, keys, p);
      hash = gq::transcript_hash(r.outputs, r.valid);
      if (!outputs_within_eps(scale, r.outputs, req.phi, eps)) {
        out.error = "a node's quantile outside eps";
      }
      break;
    }
    case gq::QueryKind::kRank: {
      const auto r = gq::gossip_count(engine, indicator(req.value));
      hash = gq::transcript_hash_counts(r.counts);
      break;
    }
    case gq::QueryKind::kCdf: {
      // Three probes per diffusion; a two-probe tail repeats its last
      // probe, a one-probe tail runs the plain count (the service's rule).
      hash = 0;
      const auto& pts = req.cdf_points;
      for (std::size_t p = 0; p < pts.size();) {
        const std::size_t left = pts.size() - p;
        if (left == 1) {
          hash ^= gq::transcript_hash_counts(
              gq::gossip_count(engine, indicator(pts[p])).counts);
          p += 1;
          continue;
        }
        const bool full = left >= 3;
        const auto r = gq::gossip_count3(engine, indicator(pts[p]),
                                         indicator(pts[p + 1]),
                                         indicator(pts[full ? p + 2 : p + 1]));
        hash ^= gq::transcript_hash_counts(r.a);
        hash ^= gq::transcript_hash_counts(r.b);
        if (full) hash ^= gq::transcript_hash_counts(r.c);
        p += full ? 3 : 2;
      }
      break;
    }
    case gq::QueryKind::kMultiQuantile: {
      gq::MultiQuantileParams p;
      p.phis = req.phis;
      p.eps = eps;
      const auto r = gq::multi_quantile_keys(engine, keys, p);
      std::vector<std::uint64_t> hashes;
      for (std::size_t i = 0; i < r.per_phi.size(); ++i) {
        const auto& t = r.per_phi[i];
        hashes.push_back(gq::transcript_hash(t.outputs, t.valid));
        if (!outputs_within_eps(scale, t.outputs, req.phis[i], eps)) {
          out.error = "a node's multi quantile outside eps";
        }
      }
      hash = gq::transcript_hash_counts(hashes);
      break;
    }
    case gq::QueryKind::kExactQuantile:
      throw std::runtime_error("exact queries are not in the mix");
  }
  out.cost = engine.metrics().since(before);
  return out;
}

// Times explicit seal() then query() per kind on a live service, after an
// ingest batch each time so every seal is an epoch advance.
void probe_service(gq::QuantileService& svc, std::uint64_t seed,
                   std::size_t& cursor, MetricSet& out) {
  gq::Xoshiro256StarStar gen(gq::derive_seed(seed, 88));
  std::vector<double> ingest, seal;
  std::map<gq::QueryKind, std::vector<double>> per_kind;
  for (int rep = 0; rep < kProbeReps; ++rep) {
    for (const gq::QueryKind kind : kMixKinds) {
      const auto batch = gq::generate_values(gq::Distribution::kExponential,
                                             kServiceBatch,
                                             gq::derive_seed(seed, 400 + cursor));
      ingest.push_back(time_ms([&] {
        for (const double v : batch) {
          svc.ingest(static_cast<std::uint32_t>(cursor++ % svc.live_nodes()), v);
        }
      }));
      seal.push_back(time_ms([&] { (void)svc.seal(); }));
      const gq::QueryRequest req = draw_request(kind, gen);
      gq::QueryReply reply;
      per_kind[kind].push_back(time_ms([&] { reply = svc.query(req); }));
      const std::string err =
          check_reply(req, reply, svc.epoch_keys(), svc.config().approx.eps);
      if (!err.empty()) throw std::runtime_error("service probe: " + err);
    }
  }
  const gq::ServiceStats s = svc.stats();
  out.set("service.ingest_ms", median(ingest), "ms");
  out.set("service.seal_ms", median(seal), "ms");
  out.set("service.query_quantile_ms", median(per_kind[kMixKinds[0]]), "ms");
  out.set("service.query_rank_ms", median(per_kind[kMixKinds[1]]), "ms");
  out.set("service.query_cdf_ms", median(per_kind[kMixKinds[2]]), "ms");
  out.set("service.query_multi_ms", median(per_kind[kMixKinds[3]]), "ms");
  out.set("service.extend_ratio",
          static_cast<double>(s.session_extends + s.session_reuse_hits) /
              static_cast<double>(std::max<std::uint64_t>(1, s.epoch)),
          "ratio");
  out.set("service.useful_ratio",
          static_cast<double>(s.queries) /
              static_cast<double>(std::max<std::uint64_t>(1, s.queries + s.retry_attempts)),
          "ratio");
}

gq::ServiceConfig service_config(unsigned threads) {
  gq::ServiceConfig cfg;
  cfg.engine.threads = threads;
  return cfg;
}

// A service of `nodes` nodes, each ingesting its contiguous share of
// `values`, sealed once.
std::unique_ptr<gq::QuantileService> make_service(std::span<const double> values,
                                                  std::uint32_t nodes,
                                                  unsigned threads) {
  auto svc = std::make_unique<gq::QuantileService>(nodes, service_config(threads));
  const std::size_t per = values.size() / nodes;
  for (std::uint32_t v = 0; v < nodes; ++v) {
    svc->ingest(v, values.subspan(v * per, per));
  }
  (void)svc->seal();
  return svc;
}

// ---- traced-op span accounting ----------------------------------------------

// Phase buckets over the program's existing spans.  Each bucket holds the
// time of its spans minus the time of nested spans of other buckets, so the
// buckets are disjoint and their sum never exceeds the op's wall time.
const char* const kTraceBuckets[] = {
    "trace.exact_inner_approx_ms", "trace.scatter_deliver_ms",
    "trace.exact_verification_ms", "trace.exact_token_split_ms",
    "trace.seal_ms",               "trace.build_instance_ms",
    "trace.session_extend_ms",     "trace.two_tournament_ms",
    "trace.three_tournament_ms"};
constexpr int kInnerApprox = 0;
constexpr int kBucketCount = static_cast<int>(std::size(kTraceBuckets));

int bucket_of(const std::string& name) {
  static const std::map<std::string, int> kMap = {
      {"engine/scatter_deliver", 1},      {"engine/scatter_deliver_combining", 1},
      {"exact/verification", 2},          {"exact/token_split", 3},
      {"service/seal", 4},                {"service/build_instance", 5},
      {"service/session_extend", 6},      {"approx/two_tournament", 7},
      {"multi/two_tournament", 7},        {"approx/three_tournament", 8},
      {"multi/three_tournament", 8}};
  const auto it = kMap.find(name);
  return it == kMap.end() ? -1 : it->second;
}

// Adds one traced op's bucket times (ms) into `acc`.
void account_spans(std::vector<double>& acc) {
  const auto events = gq::telemetry::snapshot();
  const auto names = gq::telemetry::span_names();
  if (events.empty()) return;
  // The op's spans nest on the calling thread: the one holding the longest.
  const auto top = std::max_element(
      events.begin(), events.end(), [](const auto& a, const auto& b) {
        return a.end_ns - a.start_ns < b.end_ns - b.start_ns;
      });
  std::vector<gq::telemetry::SpanEvent> ev;
  for (const auto& e : events) {
    if (e.thread == top->thread) ev.push_back(e);
  }
  std::sort(ev.begin(), ev.end(), [](const auto& a, const auto& b) {
    return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                    : a.end_ns > b.end_ns;
  });
  struct Frame {
    std::uint64_t end_ns;
    int owner;      // bucket of the nearest bucketed span, this one included
    bool in_exact;  // inside pipeline/exact_quantile
    bool absorbed;  // inside an inner approx run: nested spans stay in it
  };
  std::vector<Frame> stack;
  for (const auto& e : ev) {
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) stack.pop_back();
    const Frame parent =
        stack.empty() ? Frame{0, -1, false, false} : stack.back();
    const std::string& name = names[e.id];
    int b = -1;
    if (!parent.absorbed) {
      b = name == "pipeline/approx_quantile" && parent.in_exact
              ? kInnerApprox
              : bucket_of(name);
    }
    const double dur = static_cast<double>(e.end_ns - e.start_ns) / 1e6;
    if (b >= 0) {
      acc[b] += dur;
      if (parent.owner >= 0) acc[parent.owner] -= dur;
    }
    stack.push_back(Frame{e.end_ns, b >= 0 ? b : parent.owner,
                          parent.in_exact || name == "pipeline/exact_quantile",
                          parent.absorbed || b == kInnerApprox});
  }
}

// Busy time of every registered pool since the last telemetry::reset().
double pool_busy_ms() {
  double busy = 0.0;
  for (const auto& pool : gq::telemetry::pool_samples()) {
    for (const auto& w : pool.workers) busy += static_cast<double>(w.busy_ns) / 1e6;
  }
  return busy;
}

// One traced service round on `svc`: an ingest batch, then seal() and a
// quantile, rank and exact query.  Adds the round's bucket times (ms) into
// `acc`; these stand in for buckets a workload's own ops never enter.
void traced_service_round(gq::QuantileService& svc, std::uint64_t seed,
                          std::size_t& cursor, std::vector<double>& acc) {
  const auto batch = gq::generate_values(gq::Distribution::kExponential,
                                         kServiceBatch,
                                         gq::derive_seed(seed, 500 + cursor));
  for (const double v : batch) {
    svc.ingest(static_cast<std::uint32_t>(cursor++ % svc.live_nodes()), v);
  }
  gq::QueryRequest quantile, rank, exact;
  quantile.phi = 0.9;
  rank.kind = gq::QueryKind::kRank;
  rank.value = 0.7;
  exact.kind = gq::QueryKind::kExactQuantile;
  const gq::QueryRequest* requests[] = {&quantile, &rank, &exact};
  std::vector<gq::QueryReply> replies;
  gq::telemetry::reset();
  gq::telemetry::enable();
  (void)svc.seal();
  for (const auto* req : requests) replies.push_back(svc.query(*req));
  gq::telemetry::disable();
  account_spans(acc);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const std::string err = check_reply(*requests[i], replies[i], svc.epoch_keys(),
                                        svc.config().approx.eps);
    if (!err.empty()) throw std::runtime_error("traced service round: " + err);
  }
}

// ---- workloads ---------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  // Builds the workload's state (timed into setup_s with the first ops).
  virtual void setup() = 0;
  // Releases that state, outside the timed set-up.
  virtual void teardown() = 0;
  // Runs op `op` on freshly generated inputs.  A traced op replays the
  // untraced op of the same index on identical state and skips the oracle.
  virtual OpSample run(std::size_t op, bool traced) = 0;
  // Trace mode, before the first traced op.
  virtual void prepare_trace() {}
  // Per-layer probes on the latest op's instance; `span_buckets` receives
  // one traced service round's bucket times.
  virtual void probe(MetricSet& out, std::vector<double>& span_buckets) = 0;
  virtual std::uint32_t n() const = 0;
  virtual double values_per_op() const = 0;
  virtual double eps() const = 0;  // the tournaments' slack
  virtual unsigned threads() const = 0;
  virtual bool exact() const { return false; }
};

class PipelineWorkload final : public Workload {
 public:
  // `eps` is the approx slack; exact runs bracket at eps_tournament_floor(n).
  PipelineWorkload(bool exact, std::uint32_t n, double eps, unsigned threads,
                   std::uint64_t seed)
      : exact_(exact),
        n_(n),
        eps_(exact ? gq::eps_tournament_floor(n) : eps),
        threads_(threads),
        seed_(seed) {}

  void setup() override {
    gq::EngineConfig cfg;
    cfg.threads = threads_;
    engine_ = std::make_unique<gq::Engine>(n_, gq::derive_seed(seed_, 1),
                                           gq::FailureModel{}, cfg);
  }

  void teardown() override { engine_.reset(); }

  OpSample run(std::size_t op, bool traced) override {
    values_ = op_values(op);
    OpSample s = execute(op);
    if (!traced) check(s);
    return s;
  }

  void probe(MetricSet& out, std::vector<double>& span_buckets) override {
    const std::vector<Key> keys = gq::make_keys(values_);
    probe_layers(*engine_, keys, values_, n_, eps(), seed_, out);
    // Core: one approx run on this instance at the workload's slack (for
    // exact, the bracketing slack and K = 31 its inner runs use).
    gq::ApproxQuantileParams p;
    p.eps = eps();
    if (exact_) {
      p.phi = 0.5 - eps();  // the lower bracket of the first iteration
      p.final_sample_size = 31;
    }
    probe_core(*engine_, keys, p, seed_, out);
    // The service layer over this workload's values, one per node.
    auto svc = make_service(values_, n_, threads_);
    std::size_t cursor = 0;
    probe_service(*svc, seed_, cursor, out);
    traced_service_round(*svc, seed_, cursor, span_buckets);
  }

  std::uint32_t n() const override { return n_; }
  double values_per_op() const override { return n_; }
  double eps() const override { return eps_; }
  unsigned threads() const override { return threads_; }
  bool exact() const override { return exact_; }

 private:
  std::vector<double> op_values(std::size_t op) const {
    return gq::generate_values(gq::Distribution::kUniformReal, n_,
                               gq::derive_seed(seed_, 1000 + op));
  }

  OpSample execute(std::size_t op) {
    OpSample s;
    gq::Engine& e = *engine_;
    e.reset_stream(gq::derive_seed(seed_, 2000 + op));
    const gq::Metrics before = e.metrics();
    try {
      const auto t0 = Clock::now();
      if (exact_) {
        exact_result_ = gq::exact_quantile(e, values_, gq::ExactQuantileParams{});
        s.ms = ms_since(t0);
        s.exact_iterations = exact_result_.iterations;
        s.endgame_phases = exact_result_.endgame_phases;
        s.fingerprint =
            gq::transcript_hash(exact_result_.outputs, exact_result_.valid);
      } else {
        gq::ApproxQuantileParams p;
        p.eps = eps_;
        approx_result_ = gq::approx_quantile(e, values_, p);
        s.ms = ms_since(t0);
        s.fingerprint =
            gq::transcript_hash(approx_result_.outputs, approx_result_.valid);
      }
    } catch (const std::exception& ex) {
      s.error = std::string("threw: ") + ex.what();
    }
    s.cost = e.metrics().since(before);
    s.fingerprint = fnv(fnv(fnv(s.fingerprint, s.cost.rounds), s.cost.messages),
                        s.cost.message_bits);
    return s;
  }

  // Oracle: RankScale over the op's instance.
  void check(OpSample& s) const {
    if (!s.error.empty()) return;
    const std::vector<Key> keys = gq::make_keys(values_);
    const gq::RankScale scale(keys);
    if (exact_) {
      const Key want = scale.exact_quantile(0.5);
      if (exact_result_.answer != want) s.error = "wrong exact answer";
      for (std::size_t v = 0; v < n_ && s.error.empty(); ++v) {
        if (!exact_result_.valid[v] || exact_result_.outputs[v] != want) {
          s.error = "node without the exact answer";
        }
      }
      return;
    }
    const auto& r = approx_result_;
    if (r.used_exact_fallback) {
      s.error = "exact fallback ran";
    } else if (r.served_nodes() != n_) {
      s.error = "unserved node";
    } else if (!outputs_within_eps(scale, r.outputs, 0.5, eps_)) {
      s.error = "approx output outside the eps window";
    }
  }

  bool exact_;
  std::uint32_t n_;
  double eps_;
  unsigned threads_;
  std::uint64_t seed_;
  std::vector<double> values_;
  std::unique_ptr<gq::Engine> engine_;
  gq::ApproxQuantileResult approx_result_;
  gq::ExactQuantileResult exact_result_;
};

class ServiceWorkload final : public Workload {
 public:
  ServiceWorkload(std::uint32_t nodes, unsigned threads, std::uint64_t seed)
      : nodes_(nodes),
        threads_(threads),
        seed_(seed),
        initial_(gq::generate_values(gq::Distribution::kExponential,
                                     nodes * kServiceValuesPerNode,
                                     gq::derive_seed(seed, 1))) {}

  void setup() override {
    main_ = Lane{make_service(initial_, nodes_, threads_), 0};
    gq::EngineConfig cfg;
    cfg.threads = threads_;
    replay_ = std::make_unique<gq::Engine>(nodes_, 1, gq::FailureModel{}, cfg);
  }

  void teardown() override {
    main_ = {};
    twin_ = {};
    replay_.reset();
  }

  OpSample run(std::size_t op, bool traced) override {
    return traced ? execute(twin_, op, false) : execute(main_, op, true);
  }

  // The traced twin replays the untraced service's call log exactly, so it
  // starts with the set-up ops the main service has already run.
  void prepare_trace() override {
    twin_ = Lane{make_service(initial_, nodes_, threads_), 0};
    for (std::size_t op = 0; op < kSetupOps; ++op) (void)execute(twin_, op, false);
  }

  void probe(MetricSet& out, std::vector<double>& span_buckets) override {
    const auto epoch = main_.svc->epoch_keys();
    const std::vector<Key> keys(epoch.begin(), epoch.end());
    probe_layers(*replay_, keys, initial_, nodes_, eps(), seed_, out);
    gq::ApproxQuantileParams p;
    p.phi = 0.9;  // a quantile of the query mix
    p.eps = eps();
    probe_core(*replay_, keys, p, seed_, out);
    probe_service(*main_.svc, seed_, main_.cursor, out);
    traced_service_round(*main_.svc, seed_, main_.cursor, span_buckets);
  }

  std::uint32_t n() const override { return nodes_; }
  double values_per_op() const override { return kServiceBatch; }
  double eps() const override { return service_config(threads_).approx.eps; }
  unsigned threads() const override { return threads_; }

 private:
  struct Lane {
    std::unique_ptr<gq::QuantileService> svc;
    std::size_t cursor = 0;  // round-robin ingest position
  };

  // One op: an ingest batch round-robin over the nodes, then one query of
  // the seeded mix, which pays the implicit seal.  `verify` runs the oracle
  // and the cold replay.
  OpSample execute(Lane& lane, std::size_t op, bool verify) {
    const auto batch = gq::generate_values(gq::Distribution::kExponential,
                                           kServiceBatch,
                                           gq::derive_seed(seed_, 1000 + op));
    gq::Xoshiro256StarStar gen(gq::derive_seed(seed_, 2000 + op));
    const gq::QueryRequest req = draw_request(kMixKinds[op % 4], gen);
    gq::QuantileService& svc = *lane.svc;
    OpSample s;
    s.kind = static_cast<int>(op % 4);
    gq::QueryReply reply;
    try {
      const auto t0 = Clock::now();
      for (const double v : batch) {
        svc.ingest(static_cast<std::uint32_t>(lane.cursor++ % nodes_), v);
      }
      s.ingest_ms = ms_since(t0);
      reply = svc.query(req);
      s.ms = ms_since(t0);
    } catch (const std::exception& ex) {
      s.error = std::string("threw: ") + ex.what();
      return s;
    }
    s.fingerprint = fnv(reply.transcript_hash, reply.rounds);
    if (!verify) return s;
    s.error = check_reply(req, reply, svc.epoch_keys(), eps());
    const gq::RankScale scale(svc.epoch_keys());
    const Replay replay =
        replay_query(*replay_, req, reply, svc.epoch_keys(), scale, eps());
    s.cost = replay.cost;
    if (!s.error.empty()) return s;
    if (replay.hash != reply.transcript_hash) {
      s.error = "warm reply differs from its cold replay";
    } else if (replay.cost.rounds != reply.rounds) {
      s.error = "cold replay used different rounds";
    } else {
      s.error = replay.error;
    }
    return s;
  }

  std::uint32_t nodes_;
  unsigned threads_;
  std::uint64_t seed_;
  std::vector<double> initial_;
  Lane main_, twin_;
  std::unique_ptr<gq::Engine> replay_;
};

// ---- main loop ---------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
    const std::string v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown argument " + k);
  }
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

// The gated workloads keep their working set near the per-core L2, where
// other tenants of a shared host disturb the timings least; the at-scale
// variants below them run the same code on the same checks, ungated.
std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "approx_16k_t1") {
    return std::make_unique<PipelineWorkload>(false, 1u << 14, 0.1, 1, a.seed);
  }
  if (a.workload == "exact_16k_t2") {
    return std::make_unique<PipelineWorkload>(true, 1u << 14, 0.0, 2, a.seed);
  }
  if (a.workload == "service_16k_t1") {
    return std::make_unique<ServiceWorkload>(1u << 14, 1, a.seed);
  }
  if (a.workload == "approx_1m_t1" || a.workload == "approx_1m_t4") {
    const unsigned threads = a.workload.back() == '4' ? 4 : 1;
    return std::make_unique<PipelineWorkload>(false, 1u << 20, 0.05, threads, a.seed);
  }
  if (a.workload == "exact_256k_t4") {
    return std::make_unique<PipelineWorkload>(true, 1u << 18, 0.0, 4, a.seed);
  }
  if (a.workload == "service_64k_t4") {
    return std::make_unique<ServiceWorkload>(1u << 16, 4, a.seed);
  }
  throw std::invalid_argument("unknown workload " + a.workload);
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return static_cast<unsigned>(CPU_COUNT(&set));
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string json_metrics(const MetricSet& m) {
  std::string s = "{";
  char buf[256];
  for (const auto& [name, vu] : m.values) {
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  s.size() > 1 ? ", " : "", name.c_str(), vu.first,
                  vu.second.c_str());
    s += buf;
  }
  return s + "}";
}

// Mean over ops: the service's kinds differ in cost by design, so a mean
// over the fixed round-robin mix is steadier than a median.
template <typename F>
double mean_of(const std::vector<OpSample>& ops, F&& f) {
  double sum = 0.0;
  for (const OpSample& s : ops) sum += static_cast<double>(f(s));
  return sum / static_cast<double>(ops.size());
}

// The fastest op of each kind, averaged over the kinds (the pipelines have
// one kind).  A shared host slows whole stretches of a run; the fastest op
// is the one those stretches disturb least, and taking it per kind keeps
// every query kind of the service's mix in the figure.
double fastest_op_ms(const std::vector<OpSample>& ops) {
  std::map<int, double> fastest;
  for (const OpSample& s : ops) {
    const auto [it, fresh] = fastest.try_emplace(s.kind, s.ms);
    if (!fresh) it->second = std::min(it->second, s.ms);
  }
  double sum = 0.0;
  for (const auto& [kind, ms] : fastest) sum += ms;
  return sum / static_cast<double>(fastest.size());
}

int run(const Args& args) {
  auto w = make_workload(args);
  const unsigned nproc = affinity_cpus();
  if (w->threads() > std::max(1u, nproc)) {
    throw std::runtime_error("engine threads exceed the cpus available");
  }
  // Route guard: below the floor the approx pipeline silently runs the
  // exact fallback instead of the tournaments.
  if (w->eps() < gq::eps_tournament_floor(w->n())) {
    throw std::runtime_error("eps below eps_tournament_floor(n)");
  }

  std::size_t attempted = 0, failed = 0;
  std::string first_error;
  const auto fail = [&](const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  };
  const auto record = [&](const OpSample& s) {
    ++attempted;
    if (!s.error.empty()) fail(s.error);
  };
  // Set-up is everything before steady state: construction (for the service
  // also the initial ingest and first seal) plus the first kSetupOps ops:
  // the cold one pays the lazily allocated engine scratch, the next ones
  // warm caches and allocator pools.  Input generation and the oracle are
  // the benchmark's own work and stay untimed.  Several ops make the
  // page-fault cost of a fresh process a small share of the figure.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    w->teardown();
    double ms = time_ms([&] { w->setup(); });
    for (std::size_t op = 0; op < kSetupOps; ++op) {
      const OpSample warm = w->run(op, false);
      record(warm);
      ms += warm.ms;
    }
    setup_s.push_back(ms / 1e3);
  }
  // The program's footprint at steady state, before the benchmark's own
  // per-op records grow with the number of ops.
  const double rss_mb = peak_rss_mb();
  if (args.trace) w->prepare_trace();

  std::vector<OpSample> ops, traced;
  std::vector<double> buckets(kBucketCount, 0.0);
  double timed_ms = 0.0, busy_ms = 0.0, traced_ms = 0.0, bench_ms = 0.0;
  for (std::size_t op = kSetupOps;
       timed_ms < args.seconds * 1e3 || ops.size() < kMinOps; ++op) {
    ops.push_back(w->run(op, false));
    record(ops.back());
    timed_ms += ops.back().ms;
    if (!args.trace) continue;
    gq::telemetry::reset();
    gq::telemetry::enable();
    traced.push_back(w->run(op, true));
    gq::telemetry::disable();
    const OpSample& t = traced.back();
    if (ops.back().error.empty()) {  // a failed op counts once
      if (!t.error.empty()) {
        fail("traced op: " + t.error);
      } else if (t.fingerprint != ops.back().fingerprint) {
        fail("traced op fingerprint differs from the untraced op");
      } else if (gq::telemetry::dropped_events() != 0) {
        fail("telemetry ring overflowed; span accounting incomplete");
      }
    }
    account_spans(buckets);
    busy_ms += pool_busy_ms();
    traced_ms += t.ms;
    bench_ms += t.ingest_ms;
    timed_ms += t.ms;
  }

  const double n = w->n();
  std::vector<double> op_ms;
  for (const OpSample& s : ops) op_ms.push_back(s.ms);
  const double rounds =
      mean_of(ops, [](const OpSample& s) { return s.cost.rounds; });
  // Theorem 1.3's bound at the workload's eps; exact answers are eps = 1/n.
  const double eps_lb = w->exact() ? 1.0 / n : w->eps();
  std::printf(
      "{\"env\": {\"workload\": \"%s\", \"seed\": %llu, \"n\": %u, "
      "\"engine_threads\": %u, \"nproc\": %u, \"hardware_concurrency\": %u, "
      "\"build_type\": \"%s\", \"gq_telemetry\": %d, \"compiler\": \"%s\", "
      "\"git_rev\": \"%s\", \"l2_bytes\": %ld, \"l3_bytes\": %ld, "
      "\"ops\": %zu, \"op_p50_ms\": %.17g, \"op_p90_ms\": %.17g, "
      "\"p90_samples_beyond\": %zu, \"ops_per_s\": %.17g, "
      "\"ingest_values_per_s\": %.17g}}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      w->n(), w->threads(), nproc, std::thread::hardware_concurrency(),
      PERFBENCH_BUILD_TYPE, gq::telemetry::kCompiledIn ? 1 : 0,
      json_escape(__VERSION__).c_str(),
      json_escape(std::getenv("PERFBENCH_GIT_REV") ? std::getenv("PERFBENCH_GIT_REV")
                                                    : "unknown").c_str(),
      sysconf(_SC_LEVEL2_CACHE_SIZE), sysconf(_SC_LEVEL3_CACHE_SIZE),
      ops.size(), median(op_ms), percentile(op_ms, 0.9),
      ops.size() - static_cast<std::size_t>(std::ceil(0.9 * static_cast<double>(ops.size()))),
      static_cast<double>(ops.size()) * 1e3 / timed_ms,
      static_cast<double>(ops.size()) * w->values_per_op() * 1e3 / timed_ms);
  if (std::strcmp(PERFBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr, "perfbench: WARNING: %s build, not Release\n",
                 PERFBENCH_BUILD_TYPE);
  }
  // Cost-model cross-check: measured rounds beside the paper's bounds.
  std::printf(
      "{\"cost_model\": {\"rounds_per_op\": %.17g, \"lower_bound_rounds\": "
      "%.17g, \"phase1_iteration_bound\": %.17g, \"phase2_iteration_bound\": "
      "%.17g, \"log2_n\": %.17g, \"eps\": %.17g}}\n",
      rounds, gq::lower_bound_rounds(eps_lb, w->n()),
      gq::phase1_iteration_bound(w->eps()),
      gq::phase2_iteration_bound(w->eps() / 4.0, w->n()), std::log2(n), w->eps());
  std::fprintf(stderr, "perfbench: setup s:");
  for (const double s : setup_s) std::fprintf(stderr, " %.4f", s);
  std::fprintf(stderr, "\nperfbench: op ms:");
  for (const double ms : op_ms) std::fprintf(stderr, " %.1f", ms);
  std::fprintf(stderr, "\n");
  if (!first_error.empty()) {
    std::fprintf(stderr, "perfbench: %zu failed ops; first: %s\n", failed,
                 first_error.c_str());
  }

  MetricSet m;
  if (!args.trace) {
    m.set("op_min_ms", fastest_op_ms(ops), "ms");
    m.set("rounds_per_op", rounds, "count");
    m.set("bits_per_node_per_op",
          mean_of(ops, [](const OpSample& s) { return s.cost.message_bits; }) / n,
          "bit");
    m.set("setup_s", median(setup_s), "s");
    m.set("peak_rss_mb", rss_mb, "MB");
  } else {
    std::vector<double> probe_buckets(kBucketCount, 0.0);
    w->probe(m, probe_buckets);
    // Per traced op; a bucket the workload's ops never enter reports its
    // time in the traced service round instead (see layer_map.json).
    const double traced_ops = static_cast<double>(traced.size());
    double covered = bench_ms;
    for (int b = 0; b < kBucketCount; ++b) {
      m.set(kTraceBuckets[b],
            buckets[b] > 0.0 ? buckets[b] / traced_ops : probe_buckets[b], "ms");
      covered += buckets[b];
    }
    m.set("trace.uncovered_ms", (traced_ms - covered) / traced_ops, "ms");
    m.set("engine.pool_util", busy_ms / (traced_ms * w->threads()), "ratio");
    m.set("engine.rounds", rounds, "count");
    m.set("engine.messages",
          mean_of(ops, [](const OpSample& s) { return s.cost.messages; }), "count");
    m.set("engine.message_bits",
          mean_of(ops, [](const OpSample& s) { return s.cost.message_bits; }),
          "bit");
    m.set("engine.failed_operations",
          mean_of(ops, [](const OpSample& s) { return s.cost.failed_operations; }),
          "count");
    m.set("core.phase1_vs_bound",
          m.values["core.phase1_iters"].first / gq::phase1_iteration_bound(w->eps()),
          "ratio");
    m.set("core.phase2_vs_bound",
          m.values["core.phase2_iters"].first /
              gq::phase2_iteration_bound(w->eps() / 4.0, w->n()),
          "ratio");
    m.set("core.exact_iterations",
          mean_of(ops, [](const OpSample& s) { return s.exact_iterations; }),
          "count");
    m.set("core.endgame_phases",
          mean_of(ops, [](const OpSample& s) { return s.endgame_phases; }),
          "count");
    m.set("core.rounds_per_log2n", rounds / std::log2(n), "ratio");
    m.set("core.rounds_vs_lower_bound", rounds / gq::lower_bound_rounds(eps_lb, w->n()),
          "ratio");
    std::vector<double> traced_op_ms;
    for (const OpSample& s : traced) traced_op_ms.push_back(s.ms);
    m.set("telemetry.overhead_frac", median(traced_op_ms) / median(op_ms) - 1.0,
          "ratio");
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": %s}\n",
              failed == 0 ? "true" : "false", attempted, failed,
              json_metrics(m).c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "perfbench: %s\n", ex.what());
    return 1;
  }
}
