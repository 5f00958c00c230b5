// Engine instantiation of the adversarially-robust pipelines
// (core/adversarial_pipeline.hpp): the per-node folds run through
// Engine::for_each_node, inside parallel_shards with shard-local Metrics
// that the engine merges in shard order — the same fragments, folded in
// the same node order, as Network::for_each_node produces for the
// sequential instantiation (core/adversarial.cpp), so the two executors
// are bit-identical at every thread count (pinned by
// tests/test_adversary.cpp).
//
// Deliberately NOT on the interned rank lanes of engine/kernels.cpp: a
// corrupt fault injects an arbitrary payload the intern table has never
// seen, so the adversarial kernels work on plain Key buffers.  The per-node
// scratch (filter groups, delay mailbox) is fixed-capacity stack storage
// inside the fold — no pooled state, no allocation inside the parallel
// sections.
#include <span>

#include "core/adversarial_pipeline.hpp"
#include "engine/engine.hpp"
#include "engine/pipelines.hpp"
#include "workload/tiebreak.hpp"

namespace gq {

AdversarialQuantileResult adversarial_quantile_keys(
    Engine& engine, std::span<const Key> keys,
    const AdversarialQuantileParams& params) {
  return adversary_detail::adversarial_quantile_impl(engine, keys, params);
}

AdversarialQuantileResult adversarial_quantile(
    Engine& engine, std::span<const double> values,
    const AdversarialQuantileParams& params) {
  const auto keys = make_keys(values);
  return adversarial_quantile_keys(engine, keys, params);
}

AdversarialMeanResult adversarial_mean(Engine& engine,
                                       std::span<const double> values,
                                       const AdversarialMeanParams& params) {
  const auto keys = make_keys(values);
  return adversary_detail::adversarial_mean_impl(engine, values, keys,
                                                params);
}

}  // namespace gq
