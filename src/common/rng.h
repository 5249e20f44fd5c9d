// Deterministic pseudo-random number generation.
//
// Everything in the simulator must be reproducible from a single 64-bit
// seed: workload generation, topology wiring, hash-function seeding, churn
// schedules, and sampling. We use xoshiro256** (public domain, Blackman &
// Vigna) seeded via SplitMix64, which is both faster and statistically
// stronger than std::mt19937_64 while keeping the library header-light.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.h"

namespace nf {

/// SplitMix64 step. Used to expand one seed into xoshiro state and to derive
/// independent sub-seeds (e.g. one per filter hash function).
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// xoshiro256** engine; satisfies std::uniform_random_bit_generator so it
/// can be plugged into <random> distributions when convenient.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0xC0FFEE5EEDull) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64(sm);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). `bound` must be positive. Uses Lemire's
  /// nearly-divisionless method.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) {
    require(bound > 0, "Rng::below requires positive bound");
    const std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>((*this)()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  [[nodiscard]] std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    require(lo <= hi, "Rng::between requires lo <= hi");
    return lo + below(hi - lo + 1);
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) { return uniform() < p; }

  /// Derives an independent child generator; the i-th child of a given
  /// parent-seed is stable across runs.
  [[nodiscard]] Rng fork() { return Rng((*this)()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

/// Fisher-Yates shuffle of a random-access container with an nf::Rng.
template <typename Container>
void shuffle(Container& c, Rng& rng) {
  const std::size_t n = c.size();
  for (std::size_t i = n; i > 1; --i) {
    const std::size_t j = rng.below(i);
    using std::swap;
    swap(c[i - 1], c[j]);
  }
}

}  // namespace nf
