// Deterministic random number generation for simulations and experiments.
//
// All stochastic components of lcg draw from `lcg::rng`, a xoshiro256**
// engine seeded through splitmix64. A fixed seed reproduces an experiment
// bit-for-bit, which the test suite and the benchmark harness rely on.

#ifndef LCG_UTIL_RNG_H
#define LCG_UTIL_RNG_H

#include <cstdint>
#include <span>
#include <vector>

#include "util/error.h"

namespace lcg {

/// One splitmix64 step (Steele, Lea & Flood): advances `state` by the
/// golden-ratio increment and returns its mixed output. It expands rng
/// seeds and derives the runner's per-job and the arena's per-player seeds.
constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256** 1.0 (Blackman & Vigna), seeded via splitmix64.
/// Satisfies std::uniform_random_bit_generator.
class rng {
 public:
  using result_type = std::uint64_t;

  explicit rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  result_type operator()() noexcept;

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Uniform real in [0, 1).
  double uniform01() noexcept;

  /// Uniform real in [lo, hi). Requires lo <= hi.
  double uniform_real(double lo, double hi);

  /// Bernoulli trial with success probability p in [0, 1].
  bool bernoulli(double p);

  /// Exponentially distributed value with the given rate (> 0).
  double exponential(double rate);

  /// Poisson-distributed count with the given mean (>= 0).
  /// Uses inversion for small means and the PTRS transformed-rejection
  /// method for large means.
  std::uint64_t poisson(double mean);

  /// Index sampled proportionally to `weights` (all >= 0, sum > 0).
  std::size_t discrete(std::span<const double> weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const auto j =
          static_cast<std::size_t>(uniform_int(0, static_cast<std::int64_t>(i) - 1));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Split off an independently-seeded child generator; used to give each
  /// simulation component its own stream.
  rng split() noexcept;

 private:
  std::uint64_t state_[4];
};

/// Precomputed alias table for O(1) sampling from a fixed discrete
/// distribution (Vose's method). Build cost O(n).
class alias_table {
 public:
  /// Requires: weights non-empty, all finite and >= 0, sum > 0.
  explicit alias_table(std::span<const double> weights);

  std::size_t sample(rng& gen) const;
  std::size_t size() const noexcept { return prob_.size(); }

 private:
  std::vector<double> prob_;
  std::vector<std::uint32_t> alias_;
};

}  // namespace lcg

#endif  // LCG_UTIL_RNG_H
