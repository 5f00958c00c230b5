// The Engine's pipeline entry points: each instantiates the shared template
// of core/ over the Engine.  The round kernels they reach by
// argument-dependent lookup are in engine/kernels.cpp (tournaments) and
// engine/collectives.cpp (spreads, push-sum, token split).
#include "engine/pipelines.hpp"

#include <span>
#include <vector>

#include "core/approx_pipeline.hpp"
#include "core/exact_pipeline.hpp"
#include "core/own_rank.hpp"
#include "engine/kernels.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

// ---- pipelines ------------------------------------------------------------

ApproxQuantileResult approx_quantile_keys(Engine& engine,
                                          std::span<const Key> keys,
                                          const ApproxQuantileParams& params) {
  return approx_detail::approx_quantile_keys_impl(engine, keys, params);
}

MultiQuantileResult multi_quantile_keys(Engine& engine,
                                        std::span<const Key> keys,
                                        const MultiQuantileParams& params) {
  return multi_detail::multi_quantile_keys_impl(engine, keys, params);
}

MultiQuantileResult multi_quantile(Engine& engine,
                                   std::span<const double> values,
                                   const MultiQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return multi_quantile_keys(engine, keys, params);
}

ApproxQuantileResult approx_quantile(Engine& engine,
                                     std::span<const double> values,
                                     const ApproxQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return approx_quantile_keys(engine, keys, params);
}

ExactQuantileResult exact_quantile_keys(Engine& engine,
                                        std::span<const Key> keys,
                                        const ExactQuantileParams& params) {
  return exact_detail::exact_quantile_keys_impl(engine, keys, params);
}

ExactQuantileResult exact_quantile(Engine& engine,
                                   std::span<const double> values,
                                   const ExactQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return exact_quantile_keys(engine, keys, params);
}

OwnRankResult own_rank(Engine& engine, std::span<const double> values,
                       const OwnRankParams& params) {
  return own_rank_detail::own_rank_impl(engine, values, params);
}

}  // namespace gq
