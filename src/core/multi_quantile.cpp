#include "core/multi_quantile.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/multi_pipeline.hpp"
#include "core/robust_pipeline.hpp"
#include "workload/tiebreak.hpp"

namespace gq {
namespace {

// Network-pooled lane state of the sequential multi-quantile kernels:
// [lane][node] Key vectors, the iteration-start snapshot, and the shared
// per-node picks.  multi_tournament_begin re-initialises every lane, so
// nothing carries over from an earlier run but capacity.
struct NetworkMultiScratch {
  std::vector<std::vector<Key>> state, snapshot;  // [lane][node]
  std::vector<std::uint32_t> first;
  std::vector<std::array<std::uint32_t, 3>> picks;
};

}  // namespace

void multi_tournament_begin(Network& net, std::span<const Key> keys,
                            std::uint32_t lanes) {
  auto& s = net.scratch<NetworkMultiScratch>();
  s.state.assign(lanes, std::vector<Key>(keys.begin(), keys.end()));
  s.snapshot.resize(lanes);
  s.first.resize(net.size());
}

void multi_two_iteration(Network& net, std::span<const MultiLaneStep> steps) {
  auto& s = net.scratch<NetworkMultiScratch>();
  const std::uint32_t n = net.size();
  const std::size_t q = s.state.size();
  const std::uint64_t bits = key_bits(n);
  s.snapshot = s.state;
  std::uint64_t active = 0;
  for (const MultiLaneStep& st : steps) active += st.active ? 1 : 0;

  // Round A: one shared first sample per node, carrying the active lanes
  // in one message.
  net.begin_round();
  for (std::uint32_t v = 0; v < n; ++v) {
    SplitMix64 stream = net.node_stream(v);
    s.first[v] = net.sample_peer(v, stream);
    net.record_message(active * bits);
  }

  // Round B: per-lane delta coins in lane order (delta >= 1.0 consumes
  // no draw), then — if any lane tournaments — one shared second sample
  // carrying those lanes.
  net.begin_round();
  for (std::uint32_t v = 0; v < n; ++v) {
    SplitMix64 stream = net.node_stream(v);
    std::uint64_t mask = 0;
    for (std::size_t l = 0; l < q; ++l) {
      if (!steps[l].active) continue;
      const bool tournament = steps[l].delta >= 1.0 ||
                              rand_bernoulli(stream, steps[l].delta);
      if (tournament) mask |= std::uint64_t{1} << l;
    }
    const auto t = static_cast<std::uint32_t>(std::popcount(mask));
    std::uint32_t second = 0;
    if (t > 0) {
      second = net.sample_peer(v, stream);
      net.record_message(t * bits);
    }
    for (std::size_t l = 0; l < q; ++l) {
      if (!steps[l].active) continue;  // finished lane keeps its value
      const Key& a = s.snapshot[l][s.first[v]];
      if ((mask >> l) & 1) {
        const Key& b = s.snapshot[l][second];
        s.state[l][v] =
            steps[l].suppress_high ? std::min(a, b) : std::max(a, b);
      } else {
        s.state[l][v] = a;
      }
    }
  }
}

void multi_three_iteration(Network& net) {
  auto& s = net.scratch<NetworkMultiScratch>();
  const std::uint32_t n = net.size();
  const std::size_t q = s.state.size();
  const std::uint64_t bits = key_bits(n);
  s.snapshot = s.state;
  s.picks.resize(n);
  // Three shared pulls = three rounds, all reading the iteration-start
  // snapshot; each message carries the full q-lane vector.
  for (int pull = 0; pull < 3; ++pull) {
    net.begin_round();
    for (std::uint32_t v = 0; v < n; ++v) {
      SplitMix64 stream = net.node_stream(v);
      s.picks[v][static_cast<std::size_t>(pull)] = net.sample_peer(v, stream);
      net.record_message(q * bits);
    }
  }
  for (std::uint32_t v = 0; v < n; ++v) {
    for (std::size_t l = 0; l < q; ++l) {
      s.state[l][v] = robust_detail::median3(s.snapshot[l][s.picks[v][0]],
                                             s.snapshot[l][s.picks[v][1]],
                                             s.snapshot[l][s.picks[v][2]]);
    }
  }
}

void multi_final_sample(Network& net, std::uint32_t k_samples,
                        std::vector<std::vector<Key>>& outputs) {
  auto& s = net.scratch<NetworkMultiScratch>();
  const std::uint32_t n = net.size();
  const std::size_t q = s.state.size();
  const std::uint64_t bits = key_bits(n);
  // K rounds of one shared draw per node; the state is immutable here,
  // so the per-lane medians fold from the recorded picks afterwards.
  std::vector<std::uint32_t> picks(static_cast<std::size_t>(n) * k_samples);
  for (std::uint32_t j = 0; j < k_samples; ++j) {
    net.begin_round();
    for (std::uint32_t v = 0; v < n; ++v) {
      SplitMix64 stream = net.node_stream(v);
      picks[static_cast<std::size_t>(v) * k_samples + j] =
          net.sample_peer(v, stream);
      net.record_message(q * bits);
    }
  }
  outputs.assign(q, std::vector<Key>(n));
  std::vector<Key> samp(k_samples);
  for (std::uint32_t v = 0; v < n; ++v) {
    const std::uint32_t* const row =
        picks.data() + static_cast<std::size_t>(v) * k_samples;
    for (std::size_t l = 0; l < q; ++l) {
      for (std::uint32_t j = 0; j < k_samples; ++j) {
        samp[j] = s.state[l][row[j]];
      }
      const auto mid = samp.begin() + samp.size() / 2;
      std::nth_element(samp.begin(), mid, samp.end());
      outputs[l][v] = *mid;
    }
  }
}

void multi_lane_export(Network& net, std::uint32_t lane,
                       std::span<Key> state) {
  const auto& s = net.scratch<NetworkMultiScratch>();
  GQ_REQUIRE(lane < s.state.size() && state.size() == net.size(),
             "export needs a live lane and one key per node");
  std::copy(s.state[lane].begin(), s.state[lane].end(), state.begin());
}

MultiQuantileResult multi_quantile_keys(Network& net,
                                        std::span<const Key> keys,
                                        const MultiQuantileParams& params) {
  return multi_detail::multi_quantile_keys_impl(net, keys, params);
}

MultiQuantileResult multi_quantile(Network& net,
                                   std::span<const double> values,
                                   const MultiQuantileParams& params) {
  const std::vector<Key> keys = make_keys(values);
  return multi_quantile_keys(net, keys, params);
}

}  // namespace gq
