// Shared helpers for bench_betweenness, bench_arena and bench_payments: the
// best-of-R timing loop and the command-line count parsers.
//
// best_of_ms is built on obs::scoped_timer, so the benches and the runtime
// instrumentation (src/obs/) time against the same steady clock. Best-of
// (not mean-of) because the minimum over repeats is the standard low-noise
// estimator for a deterministic workload.
//
// A bad argument prints "<binary>: <what>" and exits 2.

#ifndef LCG_BENCH_COMMON_H
#define LCG_BENCH_COMMON_H

#include <algorithm>
#include <charconv>
#include <cstddef>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

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

/// Prints "<binary>: <message>" to stderr and exits 2 (a usage error).
[[noreturn]] inline void usage_error(std::string_view binary,
                                     const std::string& message) {
  std::cerr << binary << ": " << message << "\n";
  std::exit(2);
}

/// The value following the flag at argv[i] (advancing i past it).
inline std::string flag_value(std::string_view binary, int argc, char** argv,
                              int& i) {
  if (i + 1 >= argc)
    usage_error(binary, std::string(argv[i]) + " needs a value");
  return argv[++i];
}

/// A positive decimal count (`what` names the flag or list in the message).
inline std::size_t parse_count(std::string_view binary, std::string_view what,
                               std::string_view text) {
  std::size_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc() || ptr != text.data() + text.size() || v == 0)
    usage_error(binary, "bad " + std::string(what) + " '" + std::string(text) +
                            "'");
  return v;
}

/// A non-empty comma-separated list of positive counts ("60,120,240").
inline std::vector<std::size_t> parse_size_list(std::string_view binary,
                                                std::string_view text) {
  std::vector<std::size_t> out;
  for (std::size_t begin = 0; begin <= text.size();) {
    const std::size_t comma = std::min(text.find(',', begin), text.size());
    out.push_back(
        parse_count(binary, "list entry", text.substr(begin, comma - begin)));
    begin = comma + 1;
  }
  return out;
}

}  // namespace lcg::bench

#endif  // LCG_BENCH_COMMON_H
