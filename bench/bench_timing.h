// Shared best-of-R timing loop for bench_betweenness, bench_arena and
// bench_payments.
//
// best_of_ms is built on obs::scoped_timer, so the benches and the runtime
// instrumentation (src/obs/) time against the same steady clock. Best-of
// (not mean-of) because the minimum over repeats is the standard low-noise
// estimator for a deterministic workload.

#ifndef LCG_BENCH_TIMING_H
#define LCG_BENCH_TIMING_H

#include <cstddef>
#include <utility>

#include "obs/span.h"

namespace lcg::bench {

/// Best-of-`repeat` wall milliseconds of `fn()`. The value of the LAST
/// run is moved into `*out` (when non-null) — every bench workload is
/// deterministic, so all repeats produce the same result and "last"
/// carries no ambiguity.
template <typename Fn, typename Out>
double best_of_ms(std::size_t repeat, Fn&& fn, Out* out) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeat; ++r) {
    obs::scoped_timer timer;
    auto result = fn();
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
    if (out != nullptr) *out = std::move(result);
  }
  return best;
}

/// Overload for workloads whose result is ignored.
template <typename Fn>
double best_of_ms(std::size_t repeat, Fn&& fn) {
  double best = 0.0;
  for (std::size_t r = 0; r < repeat; ++r) {
    obs::scoped_timer timer;
    fn();
    const double ms = timer.elapsed_ms();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

}  // namespace lcg::bench

#endif  // LCG_BENCH_TIMING_H
