#include "common/rng.hpp"

#include <cmath>

namespace rcp {

Rng::Rng(std::uint64_t seed) noexcept {
  // SplitMix64 expansion guarantees a non-zero xoshiro state for any seed.
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) {
    return false;
  }
  if (p >= 1.0) {
    return true;
  }
  return uniform01() < p;
}

Rng Rng::split() noexcept {
  return Rng(next());
}

std::vector<std::uint32_t> Rng::sample_without_replacement(
    std::uint32_t universe, std::uint32_t count) {
  std::vector<std::uint32_t> picked;
  picked.reserve(count);
  // Selection sampling (Knuth 3.4.2 algorithm S): O(universe) time and
  // exactly uniform over all C(universe, count) subsets.
  std::uint32_t remaining = count;
  for (std::uint32_t item = 0; item < universe && remaining > 0; ++item) {
    const std::uint64_t pool = universe - item;
    if (below(pool) < remaining) {
      picked.push_back(item);
      --remaining;
    }
  }
  return picked;
}

}  // namespace rcp
