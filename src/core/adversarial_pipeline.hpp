// Executor-independent control flow of the adversarially-robust quantile
// and mean protocols (arXiv 2502.15320, Haeupler-Kaufmann-Ravi).
//
// The Section-5 robust tournaments survive an *oblivious* failure model by
// oversampling: fan out enough pulls that two good ones arrive w.h.p.  An
// adaptive adversary breaks that reasoning — it can watch the state and
// concentrate its budget on exactly the informative messages.  The follow-up
// paper's counter is *filtering*: replace every single sample with the
// median of a small group of samples of the same peer distribution, so a
// budget-bounded adversary must corrupt a majority of a group to move one
// filtered sample, and the per-round budget B only lets it move O(B/g)
// groups per round block.  The protocols here implement that discipline:
//
//   * adversarial_quantile — the 2-TOURNAMENT / 3-TOURNAMENT pipeline of
//     the base paper, with every tournament sample replaced by a filtered
//     (median-of-g) sample and a majority-filtered final step.
//   * adversarial_mean — two adversarial_quantile runs pin per-node clip
//     bounds (an IQR-padded interval); a sampling phase then averages
//     clip-bounded samples, so corrupt payloads have bounded influence.
//
// Both pipelines *degrade gracefully*: instead of a bare answer they return
// a typed QualityReport (served fraction, fault tallies, estimated
// corruption exposure) computed from the Metrics deltas, so callers can see
// how much adversarial pressure the run absorbed.
//
// Shared-control-flow pattern (core/exact_pipeline.hpp precedent): ONE
// template drives both executors — core/adversarial.cpp instantiates it
// over the sequential Network, engine/adversarial_kernels.cpp over the
// parallel Engine.  The template uses only executor members:
// size / seed / round / metrics / failures / adversary, advance_rounds(k)
// to open a fused pull block, and for_each_node(fn), which runs
// fn(v, Metrics& local) for every node and folds the `local` fragments
// deterministically (Network: one accumulator; Engine: shard accumulators
// merged in shard order).  The per-node fold (fault application, delay
// mailbox, group filtering, commit rules) lives here as plain functions,
// so the two paths cannot drift: bit-identity at 1/2/8 threads is pinned
// by tests/test_adversary.cpp.
//
// Unlike the interned robust kernels (engine/kernels.cpp), the engine
// folds run on plain Key buffers: corrupt payloads are arbitrary values
// the intern table has never seen, so a rank-lane representation cannot
// hold them.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "analysis/recurrences.hpp"
#include "core/robust_pipeline.hpp"  // robust_detail::median3
#include "core/two_tournament.hpp"   // tournament_side, TournamentSide
#include "sim/adversary.hpp"
#include "sim/key.hpp"
#include "sim/metrics.hpp"
#include "sim/streams.hpp"
#include "telemetry/telemetry.hpp"
#include "util/require.hpp"

namespace gq {

// How much adversarial pressure a pipeline run absorbed, and whether it
// still served enough of the network.  Computed from Metrics deltas, so it
// is part of the bit-identical transcript (differential tests compare it).
struct QualityReport {
  double served_fraction = 1.0;        // valid nodes / n
  std::uint64_t messages_total = 0;    // messages billed during the run
  std::uint64_t messages_dropped = 0;  // destroyed by the adversary
  std::uint64_t messages_corrupted = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t failed_operations = 0;  // oblivious-model losses
  // (dropped + corrupted + delayed) / total: the fraction of traffic the
  // adversary touched.  An upper bound on its influence — filtering keeps
  // the *effective* influence far lower.
  double corruption_exposure = 0.0;

  // The threshold this run was judged against, copied from the params so
  // the acceptance predicate below travels with the report.
  double min_served_fraction = 0.0;

  // The run's own acceptance predicate against the threshold in its params:
  // enough of the network served.  Tests and examples judge a bare run with
  // it; the supervisor judges attempts against its own SupervisorPolicy
  // instead (core/supervisor.hpp).
  [[nodiscard]] bool ok() const noexcept {
    return served_fraction >= min_served_fraction;
  }

  friend bool operator==(const QualityReport&, const QualityReport&) = default;
};

struct AdversarialQuantileParams {
  double phi = 0.5;  // target quantile in [0,1]
  double eps = 0.1;  // approximation slack in (0,1/2)

  // g: every tournament sample becomes the median of a group of g pulls.
  // The adversary must corrupt a majority of a group to move one filtered
  // sample.  Forced odd; must stay <= kMaxFilterGroup.
  std::uint32_t filter_group = 3;

  // K in the final step: number of *filtered* samples collected before
  // emitting their median; a node is served iff a majority of its K groups
  // produced a sample.  Forced odd; must stay <= kMaxFinalSamples.
  std::uint32_t final_sample_size = 9;

  // Delta-truncation of the last 2-TOURNAMENT iteration (Lemma 2.4 of the
  // base paper; unchanged by filtering).
  bool truncate_last = true;

  // Acceptance threshold recorded into QualityReport (see ok()): minimum
  // served fraction.
  double min_served_fraction = 0.5;
};

struct AdversarialQuantileResult {
  std::vector<Key> outputs;  // per-node answer (meaningful iff valid)
  std::vector<bool> valid;   // served nodes
  std::size_t phase1_iterations = 0;
  std::size_t phase2_iterations = 0;
  std::uint64_t rounds = 0;
  QualityReport quality;

  [[nodiscard]] std::size_t served_nodes() const {
    return static_cast<std::size_t>(
        std::count(valid.begin(), valid.end(), true));
  }
};

struct AdversarialMeanParams {
  // Clip bounds come from two adversarial quantile runs at these targets;
  // the clip interval is [q_lo - pad, q_hi + pad] with pad = q_hi - q_lo
  // (an IQR-padded interval for the defaults).
  double clip_lo_phi = 0.25;
  double clip_hi_phi = 0.75;
  double quantile_eps = 0.15;
  std::uint32_t filter_group = 3;      // g of the quantile sub-runs
  std::uint32_t final_sample_size = 9;  // K of the quantile sub-runs

  // Sampling phase: rounds of clip-bounded value pulls averaged per node.
  // Must stay <= kMaxMeanRounds.
  std::uint32_t mean_sample_rounds = 48;

  double min_served_fraction = 0.5;
};

struct AdversarialMeanResult {
  std::vector<double> estimates;  // per-node mean estimate (iff valid)
  std::vector<bool> valid;
  std::uint64_t rounds = 0;
  QualityReport quality;

  [[nodiscard]] std::size_t served_nodes() const {
    return static_cast<std::size_t>(
        std::count(valid.begin(), valid.end(), true));
  }
};

namespace adversary_detail {

// Compile-time caps sizing the per-node stack scratch of the fold below.
// GQ_REQUIREd against the params at pipeline entry.
inline constexpr std::uint32_t kMaxFilterGroup = 9;
inline constexpr std::uint32_t kMaxFinalSamples = 31;
inline constexpr std::uint32_t kMaxMeanRounds = 512;
// Largest fused pull block: the final step's K groups of g pulls each.
inline constexpr std::uint32_t kMaxBlockPulls =
    std::max(kMaxFinalSamples * kMaxFilterGroup, kMaxMeanRounds);
// Per-group arrival capacity: a group of g rounds can additionally receive
// deliveries delayed into it; 2g covers every case the strategies generate,
// and overflow beyond it is dropped deterministically (shared code, so both
// executors drop identically).
inline constexpr std::uint32_t kGroupCapacity = 2 * kMaxFilterGroup;

template <typename T>
struct PendingDelivery {
  std::uint32_t arrival;  // block-relative round it arrives in
  T payload;
};

// True iff `node` is down (FaultKind::kCrash) in `round`.  Shared by the
// fold below and the serving decisions, so "excluded from served sets while
// down" means the same thing on both executors.  Only a strategy that
// may_crash() is probed; no other can report a node down.
inline bool node_down(const AdversaryStrategy* adversary, std::uint32_t node,
                      std::uint64_t round) {
  return adversary != nullptr && adversary->may_crash() &&
         adversary->fault(node, round).kind == FaultKind::kCrash;
}

// The per-node fold of one fused pull block under message faults — the ONE
// copy of fault semantics both executors execute.  For each of `pulls`
// rounds (block-relative j, absolute base + j):
//   1. if the strategy may_crash(), the node's lifecycle is consulted:
//      while down (kCrash) it sends and receives nothing — pending
//      deliveries addressed to it are lost, its own pull is skipped, and
//      nothing is billed (adversary_crashed); kRecover tallies a recovery
//      event and otherwise behaves as kNone;
//   2. pending deliveries whose arrival round is j are handed to
//      deliver(j, payload) in insertion order;
//   3. the node's own pull flips the oblivious failure coin (a failed
//      operation loses the round and bills nothing);
//   4. otherwise the peer is drawn (the block's only stream draw); a down
//      peer (probed only if the strategy may_crash()) has no state to
//      pull, so the message never exists (adversary_crash_dropped);
//      otherwise payload_of(j, peer) produces the payload, the message is
//      billed as sent, and the adversary's fault(v, round) is applied:
//      kDrop destroys it, kCorrupt replaces the payload with
//      inject(fault.value), kDelay re-enqueues it for round j + delay
//      (destroyed if the block ends first — counted as delayed either way).
// A strategy that cannot crash is thus asked once per pull, after the
// coin; fault() is pure, so where it is asked cannot change a transcript.
// Returns the number of messages sent (caller bills bits); fault tallies
// land in `local`.
template <typename T, typename PayloadFn, typename InjectFn,
          typename DeliverFn>
inline std::uint64_t walk_faulted_pulls(
    std::uint64_t seed, std::uint64_t base, std::uint32_t pulls,
    std::uint32_t v, std::uint32_t n, const FailureModel& failures,
    const AdversaryStrategy* adversary, PayloadFn&& payload_of,
    InjectFn&& inject, DeliverFn&& deliver, Metrics& local) {
  GQ_ASSERT(pulls <= kMaxBlockPulls);
  std::array<PendingDelivery<T>, kMaxBlockPulls> pending;
  std::uint32_t pending_count = 0;
  std::uint64_t sent = 0;
  const bool lifecycle = adversary != nullptr && adversary->may_crash();
  for (std::uint32_t j = 0; j < pulls; ++j) {
    Fault self{};
    if (lifecycle) {
      self = adversary->fault(v, base + j);
      if (self.kind == FaultKind::kCrash) {
        ++local.adversary_crashed;
        continue;  // down: pending arrivals this round are lost with the node
      }
      if (self.kind == FaultKind::kRecover) {
        ++local.adversary_recovered;
        self = Fault{};
      }
    }
    for (std::uint32_t i = 0; i < pending_count; ++i) {
      if (pending[i].arrival == j) deliver(j, pending[i].payload);
    }
    if (streams::node_fails(seed, base + j, v, failures)) {
      ++local.failed_operations;
      continue;
    }
    SplitMix64 stream = streams::node_stream(seed, base + j, v);
    const std::uint32_t peer = streams::sample_peer(v, n, stream);
    if (lifecycle) {
      if (adversary->fault(peer, base + j).kind == FaultKind::kCrash) {
        ++local.adversary_crash_dropped;
        continue;  // nobody home: the pulled message never exists
      }
    } else if (adversary != nullptr) {
      self = adversary->fault(v, base + j);
    }
    T payload = payload_of(j, peer);
    ++sent;
    switch (self.kind) {
      case FaultKind::kDrop:
        ++local.adversary_dropped;
        continue;
      case FaultKind::kCorrupt:
        ++local.adversary_corrupted;
        payload = inject(self.value);
        break;
      case FaultKind::kDelay:
        ++local.adversary_delayed;
        if (pending_count < pending.size()) {
          pending[pending_count++] =
              PendingDelivery<T>{j + self.delay, payload};
        }
        continue;
      case FaultKind::kNone:
      case FaultKind::kCrash:    // handled above; unreachable
      case FaultKind::kRecover:  // rewritten to kNone above
        break;
    }
    deliver(j, payload);
  }
  return sent;
}

// Arrivals of a block bucketed into `groups` groups of `group_rounds`
// rounds each; filtered_sample(i) is the median of group i's arrivals.
template <typename T>
struct GroupCollector {
  std::array<T, kMaxFinalSamples * kGroupCapacity> buffer;
  std::array<std::uint8_t, kMaxFinalSamples> counts{};
  std::uint32_t groups = 0;
  std::uint32_t group_rounds = 0;

  GroupCollector(std::uint32_t groups_in, std::uint32_t group_rounds_in)
      : groups(groups_in), group_rounds(group_rounds_in) {
    GQ_ASSERT(groups <= kMaxFinalSamples);
  }

  void deliver(std::uint32_t round_in_block, const T& payload) {
    const std::uint32_t group = round_in_block / group_rounds;
    if (group >= groups) return;  // delayed past the block's last group
    auto& count = counts[group];
    if (count < kGroupCapacity) {
      buffer[group * kGroupCapacity + count] = payload;
      ++count;
    }
  }

  // Median of group i's arrivals (lower median for even counts); present
  // iff the group received anything at all.
  [[nodiscard]] bool filtered_sample(std::uint32_t group, T& out) const {
    const std::uint8_t count = counts[group];
    if (count == 0) return false;
    std::array<T, kGroupCapacity> sorted;
    std::copy_n(buffer.begin() + group * kGroupCapacity, count,
                sorted.begin());
    std::sort(sorted.begin(), sorted.begin() + count);
    out = sorted[(count - 1u) / 2u];
    return true;
  }
};

// Publishes the upcoming block to the adversary.  Called on the
// orchestrating thread at identical points by both executors (it is part of
// this shared control flow), which is what keeps adaptive strategies'
// target choices — and therefore transcripts — bit-identical.
template <typename Exec>
inline void observe_block(Exec& exec, std::uint64_t first_round,
                          std::uint32_t rounds, std::span<const Key> keys,
                          std::span<const double> values) {
  AdversaryStrategy* adversary = exec.adversary();
  if (adversary == nullptr) return;
  RoundWindow window;
  window.first_round = first_round;
  window.rounds = rounds;
  window.n = exec.size();
  window.seed = exec.seed();
  window.keys = keys;
  window.values = values;
  adversary->observe(window);
}

inline QualityReport make_quality(const Metrics& delta, std::uint64_t served,
                                  std::uint32_t n,
                                  double min_served_fraction) {
  QualityReport quality;
  quality.served_fraction =
      static_cast<double>(served) / static_cast<double>(n);
  quality.messages_total = delta.messages;
  quality.messages_dropped = delta.adversary_dropped;
  quality.messages_corrupted = delta.adversary_corrupted;
  quality.messages_delayed = delta.adversary_delayed;
  quality.failed_operations = delta.failed_operations;
  const std::uint64_t touched = delta.adversary_dropped +
                                delta.adversary_corrupted +
                                delta.adversary_delayed;
  quality.corruption_exposure =
      delta.messages > 0
          ? static_cast<double>(touched) / static_cast<double>(delta.messages)
          : 0.0;
  quality.min_served_fraction = min_served_fraction;
  return quality;
}

// One filtered 2-TOURNAMENT iteration: 2g fan-out pull rounds bucketed into
// two filter groups, then the delta-coin commit round.  Nodes whose two
// groups both produced a filtered sample run the tournament commit; anyone
// short keeps their value (the filtered analogue of "turning bad" — with no
// good flags, keeping the value is the conservative commit).
template <typename Exec>
inline void filtered_two_iteration(Exec& exec, std::vector<Key>& state,
                                   std::vector<Key>& next, std::uint32_t g,
                                   double delta, bool suppress_high) {
  GQ_SPAN("adversarial/filtered_two");
  const std::uint32_t n = exec.size();
  const std::uint32_t pulls = 2 * g;
  const std::uint64_t base = exec.round() + 1;
  const std::uint64_t commit_round = base + pulls;
  observe_block(exec, base, pulls + 1, state, {});
  exec.advance_rounds(pulls + 1);
  const std::uint64_t bits = key_bits(n);
  const Key* snapshot = state.data();
  const FailureModel& failures = exec.failures();
  const AdversaryStrategy* adversary = exec.adversary();
  const std::uint64_t seed = exec.seed();
  exec.for_each_node([&](std::uint32_t v, Metrics& local) {
    GroupCollector<Key> groups(2, g);
    const std::uint64_t sent = walk_faulted_pulls<Key>(
        seed, base, pulls, v, n, failures, adversary,
        [&](std::uint32_t, std::uint32_t peer) { return snapshot[peer]; },
        [&](double injected) {
          return Key{injected, n, 0};
        },
        [&](std::uint32_t j, const Key& payload) {
          groups.deliver(j, payload);
        },
        local);
    local.record_messages(sent, bits);
    Key f0, f1;
    if (groups.filtered_sample(0, f0) && groups.filtered_sample(1, f1)) {
      SplitMix64 coin = streams::node_stream(seed, commit_round, v);
      const bool tournament = delta >= 1.0 || rand_bernoulli(coin, delta);
      next[v] = robust_detail::two_tournament_commit(f0, f1, tournament,
                                                     suppress_high);
    } else {
      next[v] = state[v];
    }
  });
  state.swap(next);
}

// One filtered 3-TOURNAMENT iteration: 3g pull rounds in three groups; the
// median-of-three commit draws no randomness, so there is no commit round.
template <typename Exec>
inline void filtered_three_iteration(Exec& exec, std::vector<Key>& state,
                                     std::vector<Key>& next, std::uint32_t g) {
  GQ_SPAN("adversarial/filtered_three");
  const std::uint32_t n = exec.size();
  const std::uint32_t pulls = 3 * g;
  const std::uint64_t base = exec.round() + 1;
  observe_block(exec, base, pulls, state, {});
  exec.advance_rounds(pulls);
  const std::uint64_t bits = key_bits(n);
  const Key* snapshot = state.data();
  const FailureModel& failures = exec.failures();
  const AdversaryStrategy* adversary = exec.adversary();
  const std::uint64_t seed = exec.seed();
  exec.for_each_node([&](std::uint32_t v, Metrics& local) {
    GroupCollector<Key> groups(3, g);
    const std::uint64_t sent = walk_faulted_pulls<Key>(
        seed, base, pulls, v, n, failures, adversary,
        [&](std::uint32_t, std::uint32_t peer) { return snapshot[peer]; },
        [&](double injected) {
          return Key{injected, n, 0};
        },
        [&](std::uint32_t j, const Key& payload) {
          groups.deliver(j, payload);
        },
        local);
    local.record_messages(sent, bits);
    Key f0, f1, f2;
    if (groups.filtered_sample(0, f0) && groups.filtered_sample(1, f1) &&
        groups.filtered_sample(2, f2)) {
      next[v] = robust_detail::median3(f0, f1, f2);
    } else {
      next[v] = state[v];
    }
  });
  state.swap(next);
}

// Final step: K groups of g pulls each; a node is served iff a majority of
// its groups produced a filtered sample, and outputs their median.
template <typename Exec>
inline void final_filtered_median(Exec& exec, std::vector<Key>& state,
                                  std::uint32_t g, std::uint32_t k_samples,
                                  std::vector<Key>& outputs,
                                  std::vector<bool>& valid) {
  GQ_SPAN("adversarial/final_filtered");
  const std::uint32_t n = exec.size();
  const std::uint32_t pulls = k_samples * g;
  const std::uint64_t base = exec.round() + 1;
  observe_block(exec, base, pulls, state, {});
  exec.advance_rounds(pulls);
  const std::uint64_t bits = key_bits(n);
  const Key* snapshot = state.data();
  const FailureModel& failures = exec.failures();
  const AdversaryStrategy* adversary = exec.adversary();
  const std::uint64_t seed = exec.seed();
  outputs.assign(n, Key{});
  // Parallel sections write a byte per node, never vector<bool> bits —
  // adjacent bits share words across shard boundaries (same staging
  // discipline as engine/kernels.cpp).
  std::vector<std::uint8_t> valid8(n, 0);
  exec.for_each_node([&](std::uint32_t v, Metrics& local) {
    GroupCollector<Key> groups(k_samples, g);
    const std::uint64_t sent = walk_faulted_pulls<Key>(
        seed, base, pulls, v, n, failures, adversary,
        [&](std::uint32_t, std::uint32_t peer) { return snapshot[peer]; },
        [&](double injected) {
          return Key{injected, n, 0};
        },
        [&](std::uint32_t j, const Key& payload) {
          groups.deliver(j, payload);
        },
        local);
    local.record_messages(sent, bits);
    std::array<Key, kMaxFinalSamples> filtered;
    std::uint32_t collected = 0;
    for (std::uint32_t i = 0; i < k_samples; ++i) {
      Key sample;
      if (groups.filtered_sample(i, sample)) filtered[collected++] = sample;
    }
    // A node still down at the end of the block is excluded from the served
    // set regardless of what it collected before crashing (it cannot emit an
    // answer); shared code, so both executors exclude identically.
    const bool down_at_end = node_down(adversary, v, base + pulls - 1);
    if (!down_at_end && collected >= k_samples / 2 + 1) {
      std::sort(filtered.begin(), filtered.begin() + collected);
      outputs[v] = filtered[(collected - 1u) / 2u];
      valid8[v] = 1;
    } else {
      outputs[v] = state[v];
    }
  });
  valid.assign(n, false);
  for (std::uint32_t v = 0; v < n; ++v) valid[v] = valid8[v] != 0;
}

template <typename Exec>
AdversarialQuantileResult adversarial_quantile_impl(
    Exec& exec, std::span<const Key> keys,
    const AdversarialQuantileParams& params) {
  GQ_SPAN("pipeline/adversarial_quantile");
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(keys.size() == n, "one key per node required");
  GQ_REQUIRE(params.phi >= 0.0 && params.phi <= 1.0,
             "phi must lie in [0,1]");
  GQ_REQUIRE(params.eps > 0.0 && params.eps < 0.5,
             "eps must lie in (0, 1/2)");
  GQ_REQUIRE(params.filter_group >= 1 &&
                 params.filter_group <= kMaxFilterGroup,
             "filter group size out of range");
  GQ_REQUIRE(params.final_sample_size >= 1 &&
                 params.final_sample_size <= kMaxFinalSamples,
             "final sample size out of range");
  const std::uint32_t g = params.filter_group | 1u;   // force odd
  const std::uint32_t k = params.final_sample_size | 1u;

  const Metrics before = exec.metrics();
  AdversarialQuantileResult result;
  std::vector<Key> state(keys.begin(), keys.end());
  std::vector<Key> next(state.size());

  // Phase I: filtered 2-TOURNAMENT at (phi, eps) — shifts the target
  // quantile window to the median, exactly as in the base pipeline.
  const auto [side, start] = tournament_side(params.phi, params.eps);
  const bool suppress_high = side == TournamentSide::kSuppressHigh;
  const TwoTournamentSchedule schedule =
      two_tournament_schedule(start, params.eps);
  for (std::size_t iter = 0; iter < schedule.iterations(); ++iter) {
    const double delta = params.truncate_last ? schedule.delta[iter] : 1.0;
    filtered_two_iteration(exec, state, next, g, delta, suppress_high);
    ++result.phase1_iterations;
  }

  // Phase II: filtered 3-TOURNAMENT at eps/4 (Lemma 2.11's composition).
  const ThreeTournamentSchedule schedule3 =
      three_tournament_schedule(params.eps / 4.0, n);
  for (std::size_t iter = 0; iter < schedule3.iterations(); ++iter) {
    filtered_three_iteration(exec, state, next, g);
    ++result.phase2_iterations;
  }

  final_filtered_median(exec, state, g, k, result.outputs, result.valid);

  const Metrics delta = exec.metrics().since(before);
  result.rounds = delta.rounds;
  result.quality = make_quality(delta, result.served_nodes(), n,
                                params.min_served_fraction);
  return result;
}

template <typename Exec>
AdversarialMeanResult adversarial_mean_impl(Exec& exec,
                                            std::span<const double> values,
                                            std::span<const Key> keys,
                                            const AdversarialMeanParams&
                                                params) {
  GQ_SPAN("pipeline/adversarial_mean");
  const std::uint32_t n = exec.size();
  GQ_REQUIRE(values.size() == n && keys.size() == n,
             "one value per node required");
  GQ_REQUIRE(params.clip_lo_phi < params.clip_hi_phi,
             "clip quantiles must be ordered");
  GQ_REQUIRE(params.mean_sample_rounds >= 1 &&
                 params.mean_sample_rounds <= kMaxMeanRounds,
             "mean sample rounds out of range");

  const Metrics before = exec.metrics();
  AdversarialMeanResult result;

  // Clip bounds from two adversarial quantile sub-runs.  Every node ends up
  // with its own [lo, hi] interval; nodes either sub-run failed to serve
  // cannot bound corrupt payloads and are reported unserved.
  AdversarialQuantileParams qp;
  qp.eps = params.quantile_eps;
  qp.filter_group = params.filter_group;
  qp.final_sample_size = params.final_sample_size;
  qp.min_served_fraction = params.min_served_fraction;
  qp.phi = params.clip_lo_phi;
  const AdversarialQuantileResult q_lo = [&] {
    GQ_SPAN("adversarial/clip_bounds");
    return adversarial_quantile_impl(exec, keys, qp);
  }();
  qp.phi = params.clip_hi_phi;
  const AdversarialQuantileResult q_hi = [&] {
    GQ_SPAN("adversarial/clip_bounds");
    return adversarial_quantile_impl(exec, keys, qp);
  }();

  std::vector<double> clip_lo(n), clip_hi(n);
  std::vector<bool> clip_ok(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    clip_ok[v] = q_lo.valid[v] && q_hi.valid[v];
    const double a = q_lo.outputs[v].value;
    const double b = q_hi.outputs[v].value;
    const double lo = std::min(a, b);
    const double hi = std::max(a, b);
    const double pad = hi - lo;
    clip_lo[v] = lo - pad;
    clip_hi[v] = hi + pad;
  }

  // Sampling phase: R rounds of clip-bounded pulls of the IMMUTABLE input
  // values, averaged per node in round order (fixed FP summation order is
  // part of the bit-identity contract).
  const std::uint32_t rounds = params.mean_sample_rounds;
  const std::uint64_t base = exec.round() + 1;
  {
    GQ_SPAN("adversarial/mean_samples");
    observe_block(exec, base, rounds, {}, values);
    exec.advance_rounds(rounds);
  }
  result.estimates.assign(n, 0.0);
  std::vector<std::uint8_t> valid8(n, 0);
  const double* value_data = values.data();
  const FailureModel& failures = exec.failures();
  const AdversaryStrategy* adversary = exec.adversary();
  const std::uint64_t seed = exec.seed();
  const std::uint32_t min_count = std::max(1u, rounds / 2);
  double* estimate_data = result.estimates.data();
  exec.for_each_node([&](std::uint32_t v, Metrics& local) {
    double sum = 0.0;
    std::uint32_t count = 0;
    const double lo = clip_lo[v];
    const double hi = clip_hi[v];
    const std::uint64_t sent = walk_faulted_pulls<double>(
        seed, base, rounds, v, n, failures, adversary,
        [&](std::uint32_t, std::uint32_t peer) { return value_data[peer]; },
        [&](double injected) { return injected; },
        [&](std::uint32_t, double payload) {
          sum += std::clamp(payload, lo, hi);
          ++count;
        },
        local);
    // A mean sample is one value word; bill it at the 64-bit payload size
    // rather than the tagged key size.
    local.record_messages(sent, 64);
    // Same serving rule as the quantile's final step: down at the end of
    // the sampling block means unserved.
    const bool down_at_end = node_down(adversary, v, base + rounds - 1);
    if (!down_at_end && clip_ok[v] && count >= min_count) {
      estimate_data[v] = sum / static_cast<double>(count);
      valid8[v] = 1;
    }
  });
  result.valid.assign(n, false);
  for (std::uint32_t v = 0; v < n; ++v) result.valid[v] = valid8[v] != 0;

  const Metrics delta = exec.metrics().since(before);
  result.rounds = delta.rounds;
  result.quality = make_quality(delta, result.served_nodes(), n,
                                params.min_served_fraction);
  return result;
}

}  // namespace adversary_detail
}  // namespace gq
