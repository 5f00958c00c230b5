// The executor-independent control flow of the approximate quantile
// pipeline (Theorems 1.2 / 2.1, plus the Section-5 robust route).
//
// Same rationale as core/exact_pipeline.hpp and core/robust_pipeline.hpp:
// the eps-floor fallback decision, the Lemma-2.11 phase2_eps choice, the
// failure-free vs robust routing, and the coverage call are all observable
// in outputs, round counts, and Metrics, so the sequential Network path and
// the parallel Engine must execute ONE copy of this logic.  The failure-free
// route is one lane of the shared tournament schedule
// (core/multi_pipeline.hpp: shared_tournament), traced as
// approx/two_tournament and approx/three_tournament.  The template takes
// the executor itself and calls its per-executor overloads by
// argument-dependent lookup:
//
//   exact_quantile_keys                        (the eps-floor fallback)
//   multi_tournament_begin, multi_two_iteration, multi_three_iteration,
//   multi_final_sample                         (failure-free phases)
//   robust_two_tournament, robust_three_tournament, robust_coverage
//
// declared for Network in core/{exact_quantile,multi_pipeline,robust}.hpp
// and for Engine in engine/pipelines.hpp and engine/kernels.hpp.
// Instantiated by core/approx_quantile.cpp (Network) and
// engine/pipelines.cpp (Engine); bit-identity of the two is pinned by
// tests/test_engine.cpp and tests/test_engine_robust.cpp.
#pragma once

#include <span>
#include <utility>
#include <vector>

#include "analysis/theory_bounds.hpp"
#include "core/exact_quantile.hpp"
#include "core/multi_pipeline.hpp"
#include "core/params.hpp"
#include "core/result.hpp"
#include "core/robust.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq::approx_detail {

template <typename Exec>
ApproxQuantileResult approx_quantile_keys_impl(
    Exec& exec, std::span<const Key> keys,
    const ApproxQuantileParams& params) {
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0, "phi must lie in [0,1]");
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");
  GQ_REQUIRE(params.final_sample_size >= 1,
             "final sample size must be positive");

  GQ_SPAN("pipeline/approx_quantile");
  const Metrics before = exec.metrics();

  if (params.eps < eps_tournament_floor(n) && !params.force_tournament) {
    // Theorem 1.2 bootstrap: for eps below the sampling floor the exact
    // algorithm is both correct and within the advertised round bound.
    GQ_SPAN("approx/exact_fallback");
    ExactQuantileParams ep;
    ep.phi = params.phi;
    const ExactQuantileResult er = exact_quantile_keys(exec, keys, ep);
    ApproxQuantileResult out;
    out.outputs = er.outputs;
    out.valid = er.valid;
    out.rounds = exec.metrics().rounds - before.rounds;
    out.used_exact_fallback = true;
    return out;
  }

  ApproxQuantileResult out;
  if (exec.faultless()) {
    static const multi_detail::PhaseSpans spans{
        telemetry::register_span("approx/two_tournament"),
        telemetry::register_span("approx/three_tournament")};
    multi_detail::shared_tournament(
        exec, keys, std::span<const double>(&params.phi, 1), params.eps,
        params.final_sample_size, params.truncate_last, spans,
        std::span<ApproxQuantileResult>(&out, 1));
  } else {
    // Phase II approximates the median of the Phase-I configuration to
    // eps/4, as on the failure-free route (Lemma 2.11).
    const double phase2_eps = params.eps / 4.0;
    std::vector<Key> state(keys.begin(), keys.end());
    std::vector<bool> good(n, true);
    const auto p1 = [&] {
      GQ_SPAN("approx/robust_two_tournament");
      return robust_two_tournament(exec, state, good, params.phi, params.eps,
                                   params.truncate_last);
    }();
    auto p2 = [&] {
      GQ_SPAN("approx/robust_three_tournament");
      return robust_three_tournament(exec, state, good, phase2_eps,
                                     params.final_sample_size);
    }();
    out.phase1_iterations = p1.iterations;
    out.phase2_iterations = p2.iterations;
    {
      GQ_SPAN("approx/coverage");
      robust_coverage(exec, p2.outputs, p2.valid,
                      params.robust_coverage_rounds);
    }
    out.outputs = std::move(p2.outputs);
    out.valid = std::move(p2.valid);
  }

  out.rounds = exec.metrics().rounds - before.rounds;
  return out;
}

}  // namespace gq::approx_detail
