#include "workload/tiebreak.hpp"

#include <cmath>
#include <cstdint>

#include "util/require.hpp"

namespace gq {

std::vector<Key> make_keys(std::span<const double> values) {
  GQ_REQUIRE(!values.empty(), "cannot make keys from an empty value set");
  std::vector<Key> keys;
  keys.reserve(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    GQ_REQUIRE(!std::isnan(values[i]), "values must not be NaN");
    keys.push_back(Key{values[i], static_cast<std::uint32_t>(i), 0});
  }
  return keys;
}

std::vector<double> key_values(std::span<const Key> keys) {
  std::vector<double> out;
  out.reserve(keys.size());
  for (const Key& k : keys) out.push_back(k.value);
  return out;
}

}  // namespace gq
