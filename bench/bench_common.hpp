// Shared output helpers for the experiment harness: every bench prints
// markdown tables, and can additionally emit machine-readable timing
// records (see JsonArtifact) so the perf trajectory survives in
// BENCH_engine.json instead of scrollback.
#pragma once

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace gq::bench {

// Wall-clock seconds elapsed since `start`.
[[nodiscard]] double seconds_since(std::chrono::steady_clock::time_point start);

// Million node-rounds per second: one normalisation for every scale bench,
// with rounds taken from the run itself so sequential and engine rows of
// one table are normalised identically.
[[nodiscard]] double mnrs(std::uint64_t nodes, std::uint64_t rounds,
                          double seconds);

// Markdown table with left-aligned first column and right-aligned rest.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

[[nodiscard]] std::string fmt(double v, int precision = 2);
[[nodiscard]] std::string fmt_u(std::uint64_t v);
[[nodiscard]] std::string fmt_pct(double fraction, int precision = 1);

// Experiment banner: id and the paper claim being exercised.
void print_header(const std::string& id, const std::string& title,
                  const std::string& claim);

// ---- telemetry / trace wiring ---------------------------------------------
//
// Setting any of these envs to an output path turns gq::telemetry on for
// the whole bench run (before main(), so every phase is covered) and makes
// exit_status() write the artifact:
//
//   GQ_TRACE       Chrome trace-event JSON (load in Perfetto / about:tracing)
//   GQ_TRACE_JSON  one JSON object per completed span (JSONL)
//   GQ_TRACE_PROM  Prometheus-style text exposition
//
// When tracing is on, exit_status() also prints the phase and worker-
// utilization summaries to stderr (stdout keeps the markdown tables).
// Unset/empty envs leave telemetry disabled — the bench measures the same
// instruction stream the tests pin.
[[nodiscard]] bool trace_requested();

// The exit code a bench's main() must return: flushes the trace artifacts
// (once), then reports 1 if any artifact write — bench JSON or trace —
// failed, 0 otherwise.  Benches that write artifacts and return 0
// unconditionally hide broken CI uploads, so every bench main ends with
// `return gq::bench::exit_status();`.
[[nodiscard]] int exit_status();

// Records that an artifact write failed (diagnostic already printed);
// flips exit_status() to 1.  Used by JsonArtifact, the trace flush, and
// benches that write their own artifacts (e.g. bench_dynamics' CSV).
void note_artifact_failure();

// GQ_BENCH_SCALE env (default 1.0) scales trial counts; GQ_BENCH_FAST
// trims the largest problem sizes for smoke runs.  Boolean envs accept
// 1/true/yes/on (and 0/false/no/off as an explicit off); any other
// non-empty value aborts with a diagnostic rather than being silently
// ignored, so a CI misconfiguration like GQ_BENCH_SMOKE=yes please is
// visible instead of quietly running the multi-minute full sweep.
[[nodiscard]] double scale();
[[nodiscard]] bool fast_mode();

// GQ_BENCH_SMOKE shrinks problem sizes to CI-smoke scale: the bench
// exercises every code path but measures nothing meaningful.  Used by the
// CI bench-smoke job to keep bench targets from bit-rotting.
[[nodiscard]] bool smoke_mode();

// n, or the CI-smoke substitute when GQ_BENCH_SMOKE is on.
[[nodiscard]] std::uint32_t smoke_capped(std::uint32_t n,
                                         std::uint32_t smoke_n = 10000);

// max(1, round(base * scale()))
[[nodiscard]] std::size_t scaled_trials(std::size_t base);

// GQ_BENCH_THREADS ("1" or "1,2,8") overrides a bench's default engine
// thread sweep; empty/unset keeps `fallback`.  Exists for single-core
// boxes where multi-thread rows would measure oversubscription, not
// scaling — the committed BENCH_engine.json perf-trajectory records are
// captured with GQ_BENCH_THREADS=1 there.
[[nodiscard]] std::vector<unsigned> thread_sweep(
    std::span<const unsigned> fallback);

// GQ_BENCH_BLOCK ("512" or "128,512,2048") sweeps EngineConfig::gather_block
// in the engine benches; empty/unset yields {0} (the engine's tuned
// default).  Block size is observable-neutral (results and Metrics are
// bit-identical at every value), so the sweep is pure timing.
[[nodiscard]] std::vector<std::uint32_t> block_sweep();

// Record-name suffix for a non-default gather block ("@b512", "" for 0),
// so swept rows cannot collide with the default-config perf trajectory in
// BENCH_engine.json (records are keyed by (bench, pipeline, executor, n,
// threads)).
[[nodiscard]] std::string block_suffix(std::uint32_t gather_block);

// ---- machine-readable perf records ----------------------------------------
//
// One record per measured configuration.  `pipeline` names the workload
// ("approx_quantile", "exact_quantile", "pull_round", ...), `executor`
// distinguishes the sequential Network path from the engine, and
// `seq_seconds` is the sequential reference the speedup is computed
// against (0 when the row has no sequential twin).
struct PerfRecord {
  std::string bench;     // emitting binary, e.g. "bench_pipeline_scale"
  std::string pipeline;  // workload name
  std::string executor;  // "network" | "engine" | "service"
  std::uint64_t n = 0;
  unsigned threads = 1;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  double seq_seconds = 0.0;  // sequential reference for this (pipeline, n)

  // Throughput records (the service layer's service_qps rows): `qps` is the
  // measured rate and `higher_is_better` flips the regression direction in
  // scripts/bench_diff.  Latency records leave both at their defaults and
  // their JSON shape is unchanged.
  double qps = 0.0;
  bool higher_is_better = false;

  // Optional phase breakdown (name -> seconds), emitted as a "phases" JSON
  // object on the record.  Purely descriptive metadata: scripts/bench_diff
  // passes it through and never gates on it.
  std::vector<std::pair<std::string, double>> phases;
};

// Collects PerfRecords and writes them as a BENCH_engine.json fragment when
// GQ_BENCH_JSON names a path (no file is written otherwise).  The schema is
// documented in README.md ("Performance"); records carry an optional label
// from GQ_BENCH_LABEL (e.g. a git revision) so before/after runs can live
// in one merged artifact — see scripts/bench_diff.
class JsonArtifact {
 public:
  explicit JsonArtifact(std::string bench_name);
  // Writes on destruction so benches cannot forget to flush.
  ~JsonArtifact();

  void add(PerfRecord record);

  // Convenience for the common row shape.  Pass seq_seconds = 0 when the
  // row has no sequential twin (e.g. an engine-only sweep normalised
  // against its own 1-thread run).
  void add(const char* pipeline, const char* executor, std::uint64_t n,
           unsigned threads, std::uint64_t rounds, double seconds,
           double seq_seconds) {
    add(PerfRecord{.bench = {},
                   .pipeline = pipeline,
                   .executor = executor,
                   .n = n,
                   .threads = threads,
                   .rounds = rounds,
                   .seconds = seconds,
                   .seq_seconds = seq_seconds});
  }

 private:
  std::string bench_;
  std::string label_;
  std::vector<PerfRecord> records_;
};

}  // namespace gq::bench
