// Deterministic, fast pseudo-random number generation.
//
// All stochastic components of the framework (stimulus generation, random
// mask insertion in Algorithm 1, bagging/boosting subsampling, SMOTE)
// draw from this generator so that every experiment is reproducible from
// a single seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>

namespace polaris::util {

/// splitmix64 — used to expand a single 64-bit seed into a full generator
/// state. Passes through every 64-bit value exactly once over its period.
[[nodiscard]] constexpr std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna). Satisfies the C++ named requirement
/// UniformRandomBitGenerator, so it can be used with <random> distributions,
/// but the convenience members below avoid libstdc++ distribution overhead
/// in hot loops.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit constexpr Xoshiro256(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) word = splitmix64_next(sm);
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
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

  /// Uniform in [0, bound). bound must be nonzero. Uses Lemire's
  /// multiply-shift rejection method (unbiased).
  [[nodiscard]] std::uint64_t bounded(std::uint64_t bound) noexcept {
    // 128-bit multiply keeps the fast path branch-free for typical bounds.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform double in [0, 1) with 53 bits of precision.
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Bernoulli trial with probability p of returning true.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Standard normal via Marsaglia polar method (no cached spare; the
  /// callers in this codebase draw rarely enough that simplicity wins).
  [[nodiscard]] double gaussian() noexcept;

  /// Derive an independent child generator (for parallel or per-component
  /// streams) without correlating with the parent's future output.
  [[nodiscard]] Xoshiro256 split() noexcept {
    return Xoshiro256((*this)() ^ 0xa02e1b7f43d5c9e1ULL);
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_{};
};

inline double Xoshiro256::gaussian() noexcept {
  for (;;) {
    const double u = uniform(-1.0, 1.0);
    const double v = uniform(-1.0, 1.0);
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

}  // namespace polaris::util
