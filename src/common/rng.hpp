// Deterministic pseudo-random number generation.
//
// All randomness in the library flows from a single user-supplied seed so
// that every simulation run is exactly reproducible. The generator is
// xoshiro256** (Blackman & Vigna), seeded through SplitMix64; both are
// public-domain algorithms reimplemented here to avoid external deps.
//
// The paper's convergence proofs assume a probabilistic message system in
// which every possible (n-k)-message view has a fixed positive probability
// of being the one observed. The simulator realises that assumption by
// drawing uniformly from this generator; see sim/delivery.hpp.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace rcp {

/// SplitMix64 step; used for seeding and for hashing ids into streams.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Deterministic xoshiro256** generator.
///
/// Satisfies std::uniform_random_bit_generator so it can be used with
/// standard <random> distributions, but the member helpers below avoid the
/// standard distributions' implementation-defined (hence non-portable)
/// sequences.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator whose entire sequence is a function of `seed`.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Raw 64 random bits.
  [[nodiscard]] std::uint64_t next() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  result_type operator()() noexcept { return next(); }
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Unbiased uniform draw from [0, bound). Precondition: bound > 0.
  ///
  /// Rejection sampling removes modulo bias: raw words below
  /// threshold = 2^64 mod bound are redrawn. The threshold is always
  /// below `bound`, so a word r >= bound passes without computing it;
  /// the division runs only for r < bound, which is rare for the small
  /// bounds the simulator draws from. The draw sequence is the same
  /// either way (tests/common/rng_test.cpp pins it).
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept {
    if (bound == 0) {
      return 0;  // degenerate; callers check their own preconditions
    }
    for (;;) {
      const std::uint64_t r = next();
      if (r >= bound || r >= (~bound + 1) % bound) {
        return r % bound;
      }
    }
  }

  /// Uniform draw from [lo, hi] inclusive. Precondition: lo <= hi.
  [[nodiscard]] std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform01() noexcept;

  /// True with probability p (p clamped to [0, 1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Derives an independent child stream; deterministic in this stream's
  /// state, so `parent.split()` sequences are reproducible.
  [[nodiscard]] Rng split() noexcept;

  /// Fisher-Yates shuffle of `items`.
  template <typename T>
  void shuffle(std::span<T> items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// A uniformly random subset of size `count` drawn from [0, universe)
  /// without replacement (selection sampling). Precondition:
  /// count <= universe.
  [[nodiscard]] std::vector<std::uint32_t> sample_without_replacement(
      std::uint32_t universe, std::uint32_t count);

 private:
  [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x,
                                                    int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t s_[4];
};

}  // namespace rcp
