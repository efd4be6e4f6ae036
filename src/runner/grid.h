// Parameter-grid expansion: one scenario -> many concrete jobs.
//
// A sweep is a list of (parameter, values) axes; its expansion is the
// cartesian product in deterministic order (first axis slowest, exactly the
// nesting order of the axes). Combined with `seeds` replications per point
// and a splitmix64-derived per-job seed, a sweep of hundreds of jobs is
// fully determined by (scenario, axes, seeds, base_seed) — independent of
// how many threads later execute it.

#ifndef LCG_RUNNER_GRID_H
#define LCG_RUNNER_GRID_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "runner/scenario.h"

namespace lcg::runner {

/// Sweep axes in expansion order.
using sweep_axes = std::vector<std::pair<std::string, std::vector<value>>>;

class param_grid {
 public:
  param_grid() = default;
  explicit param_grid(sweep_axes axes);

  /// Pin `key` to a single value (replacing an existing axis of that name).
  param_grid& set(std::string key, value v);

  /// Sweep `key` over `values` (replacing an existing axis of that name).
  /// Values must be non-empty.
  param_grid& sweep(std::string key, std::vector<value> values);

  /// Number of grid points (product of axis sizes; 1 when empty).
  [[nodiscard]] std::size_t size() const;

  /// All grid points, cartesian order.
  [[nodiscard]] std::vector<param_map> expand() const;

  [[nodiscard]] const sweep_axes& axes() const noexcept { return axes_; }

 private:
  sweep_axes axes_;
};

/// One executable unit: a scenario at a grid point with a derived seed.
struct job {
  const scenario* sc = nullptr;
  param_map params;
  std::uint64_t seed = 0;       ///< splitmix64(base_seed, replicate, point)
  std::uint32_t replicate = 0;  ///< 0 .. seeds-1
};

/// Expands `sc` over `grid` with `seeds` replications per grid point.
/// Job seeds are derived from (base_seed, scenario name, point index,
/// replicate) through splitmix64, so two jobs never share an rng stream and
/// the assignment is stable under re-ordering of execution. Points that
/// differ only in the scenario's declared `seed_neutral` axes share one
/// seed (runner/scenario.h).
[[nodiscard]] std::vector<job> expand_jobs(const scenario& sc,
                                           const param_grid& grid,
                                           std::uint32_t seeds,
                                           std::uint64_t base_seed);

/// Convenience: every scenario with its default sweep.
[[nodiscard]] std::vector<job> expand_default_jobs(
    const std::vector<const scenario*>& scenarios, std::uint32_t seeds,
    std::uint64_t base_seed);

/// The seed-derivation primitive (exposed for tests): a splitmix64 chain
/// over the mixed inputs.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t base_seed,
                                        std::string_view scenario_name,
                                        std::uint64_t point_index,
                                        std::uint32_t replicate);

/// One deterministic 1-of-k slice of an expanded job list (`--shard i/k`).
///
/// Sharding happens AFTER full expansion, so every job keeps the seed it
/// would have in the unsharded sweep — which is what makes the k shard
/// outputs concatenable back into the unsharded output byte for byte.
struct shard_spec {
  std::uint32_t index = 0;  ///< 0-based; must be < count
  std::uint32_t count = 1;  ///< total shards; must be >= 1
};

/// Parses "i/k" (e.g. "0/4"); nullopt unless both sides are whole
/// non-negative integers with k >= 1 and i < k.
[[nodiscard]] std::optional<shard_spec> parse_shard(std::string_view text);

/// Half-open job-index range of shard `s` over `n` jobs. Slices are
/// contiguous, in shard order, balanced (sizes differ by at most one), and
/// their concatenation over index 0..count-1 is exactly [0, n). When
/// count > n some slices are empty.
[[nodiscard]] std::pair<std::size_t, std::size_t> shard_range(std::size_t n,
                                                              shard_spec s);

/// The slice of `jobs` that shard `s` owns, in original job order.
[[nodiscard]] std::vector<job> take_shard(const std::vector<job>& jobs,
                                          shard_spec s);

}  // namespace lcg::runner

#endif  // LCG_RUNNER_GRID_H
