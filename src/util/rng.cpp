#include "util/rng.h"

#include <cmath>
#include <limits>

namespace lcg {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

rng::rng(std::uint64_t seed) noexcept {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

rng::result_type rng::operator()() noexcept {
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

std::int64_t rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  LCG_EXPECTS(lo <= hi);
  const auto range = static_cast<std::uint64_t>(hi - lo) + 1;
  if (range == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Lemire-style rejection to avoid modulo bias.
  std::uint64_t x = (*this)();
  auto m = static_cast<unsigned __int128>(x) * range;
  auto l = static_cast<std::uint64_t>(m);
  if (l < range) {
    const std::uint64_t floor = (0 - range) % range;
    while (l < floor) {
      x = (*this)();
      m = static_cast<unsigned __int128>(x) * range;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return lo + static_cast<std::int64_t>(m >> 64);
}

double rng::uniform01() noexcept {
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double rng::uniform_real(double lo, double hi) {
  LCG_EXPECTS(lo <= hi);
  return lo + (hi - lo) * uniform01();
}

bool rng::bernoulli(double p) {
  LCG_EXPECTS(p >= 0.0 && p <= 1.0);
  return uniform01() < p;
}

double rng::exponential(double rate) {
  LCG_EXPECTS(rate > 0.0);
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  return -std::log(u) / rate;
}

std::uint64_t rng::poisson(double mean) {
  LCG_EXPECTS(mean >= 0.0);
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    // Inversion by sequential search.
    const double limit = std::exp(-mean);
    double prod = uniform01();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform01();
      ++n;
    }
    return n;
  }
  // PTRS transformed rejection (Hörmann 1993).
  const double b = 0.931 + 2.53 * std::sqrt(mean);
  const double a = -0.059 + 0.02483 * b;
  const double inv_alpha = 1.1239 + 1.1328 / (b - 3.4);
  const double v_r = 0.9277 - 3.6224 / (b - 2.0);
  for (;;) {
    double u = uniform01() - 0.5;
    const double v = uniform01();
    const double us = 0.5 - std::abs(u);
    const double k = std::floor((2.0 * a / us + b) * u + mean + 0.43);
    if (us >= 0.07 && v <= v_r) return static_cast<std::uint64_t>(k);
    if (k < 0.0 || (us < 0.013 && v > us)) continue;
    const double log_mean = std::log(mean);
    if (std::log(v * inv_alpha / (a / (us * us) + b)) <=
        k * log_mean - mean - std::lgamma(k + 1.0)) {
      return static_cast<std::uint64_t>(k);
    }
  }
}

std::size_t rng::discrete(std::span<const double> weights) {
  LCG_EXPECTS(!weights.empty());
  double total = 0.0;
  for (const double w : weights) {
    LCG_EXPECTS(w >= 0.0);
    total += w;
  }
  LCG_EXPECTS(total > 0.0);
  double target = uniform01() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // floating-point slack
}

rng rng::split() noexcept { return rng((*this)() ^ 0xa0761d6478bd642fULL); }

alias_table::alias_table(std::span<const double> weights) {
  LCG_EXPECTS(!weights.empty());
  const std::size_t n = weights.size();
  double total = 0.0;
  for (const double w : weights) {
    LCG_EXPECTS(w >= 0.0 && std::isfinite(w));
    total += w;
  }
  LCG_EXPECTS(total > 0.0);

  prob_.assign(n, 0.0);
  alias_.assign(n, 0);
  std::vector<double> scaled(n);
  for (std::size_t i = 0; i < n; ++i)
    scaled[i] = weights[i] * static_cast<double>(n) / total;

  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t g = large.back();
    prob_[s] = scaled[s];
    alias_[s] = g;
    scaled[g] = (scaled[g] + scaled[s]) - 1.0;
    if (scaled[g] < 1.0) {
      large.pop_back();
      small.push_back(g);
    }
  }
  for (const std::uint32_t g : large) prob_[g] = 1.0;
  for (const std::uint32_t s : small) prob_[s] = 1.0;  // numeric residue
}

std::size_t alias_table::sample(rng& gen) const {
  const auto i = static_cast<std::size_t>(
      gen.uniform_int(0, static_cast<std::int64_t>(prob_.size()) - 1));
  return gen.uniform01() < prob_[i] ? i : alias_[i];
}

}  // namespace lcg
