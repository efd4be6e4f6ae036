#include "runner/grid.h"

#include <algorithm>
#include <iterator>

#include "util/format.h"
#include "util/rng.h"

namespace lcg::runner {

param_grid::param_grid(sweep_axes axes) : axes_(std::move(axes)) {
  for (const auto& axis : axes_) LCG_EXPECTS(!axis.second.empty());
}

param_grid& param_grid::set(std::string key, value v) {
  return sweep(std::move(key), {std::move(v)});
}

param_grid& param_grid::sweep(std::string key, std::vector<value> values) {
  LCG_EXPECTS(!key.empty());
  LCG_EXPECTS(!values.empty());
  for (auto& axis : axes_) {
    if (axis.first == key) {
      axis.second = std::move(values);
      return *this;
    }
  }
  axes_.emplace_back(std::move(key), std::move(values));
  return *this;
}

std::size_t param_grid::size() const {
  std::size_t n = 1;
  for (const auto& axis : axes_) n *= axis.second.size();
  return n;
}

std::vector<param_map> param_grid::expand() const {
  std::vector<param_map> points;
  points.reserve(size());
  param_map current;
  // Depth-first over the axes: first axis varies slowest.
  const auto recurse = [&](const auto& self, std::size_t depth) -> void {
    if (depth == axes_.size()) {
      points.push_back(current);
      return;
    }
    for (const value& v : axes_[depth].second) {
      current[axes_[depth].first] = v;
      self(self, depth + 1);
    }
    current.erase(axes_[depth].first);
  };
  recurse(recurse, 0);
  return points;
}

std::uint64_t derive_seed(std::uint64_t base_seed,
                          std::string_view scenario_name,
                          std::uint64_t point_index, std::uint32_t replicate) {
  std::uint64_t state = base_seed;
  splitmix64(state);
  for (const char c : scenario_name) {
    state ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    splitmix64(state);
  }
  state ^= point_index;
  splitmix64(state);
  state ^= static_cast<std::uint64_t>(replicate) << 32;
  return splitmix64(state);
}

std::vector<job> expand_jobs(const scenario& sc, const param_grid& grid,
                             std::uint32_t seeds, std::uint64_t base_seed) {
  LCG_EXPECTS(seeds >= 1);
  std::vector<job> jobs;
  const std::vector<param_map> points = grid.expand();
  jobs.reserve(points.size() * seeds);
  // Seed indices are assigned over the points with the scenario's
  // seed-neutral axes erased, so grid points differing only in those axes
  // share one seed. Grids without any such axis hit the unique-key path and
  // keep their historical seeds.
  std::map<param_map, std::uint64_t> seed_index;
  for (std::size_t p = 0; p < points.size(); ++p) {
    param_map key = points[p];
    for (const std::string& axis : sc.seed_neutral) key.erase(axis);
    const std::uint64_t index =
        seed_index.emplace(std::move(key), seed_index.size()).first->second;
    for (std::uint32_t r = 0; r < seeds; ++r) {
      job j;
      j.sc = &sc;
      j.params = points[p];
      j.replicate = r;
      j.seed = derive_seed(base_seed, sc.name, index, r);
      jobs.push_back(std::move(j));
    }
  }
  return jobs;
}

std::optional<shard_spec> parse_shard(std::string_view text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string_view::npos) return std::nullopt;
  const std::optional<std::uint32_t> index =
      parse_whole<std::uint32_t>(text.substr(0, slash));
  const std::optional<std::uint32_t> count =
      parse_whole<std::uint32_t>(text.substr(slash + 1));
  if (!index || !count || *count == 0 || *index >= *count)
    return std::nullopt;
  return shard_spec{*index, *count};
}

std::pair<std::size_t, std::size_t> shard_range(std::size_t n, shard_spec s) {
  LCG_EXPECTS(s.count >= 1);
  LCG_EXPECTS(s.index < s.count);
  // floor(i*n/k): 128-bit-free because job counts stay far below 2^32.
  const auto n64 = static_cast<unsigned long long>(n);
  const auto begin = static_cast<std::size_t>(n64 * s.index / s.count);
  const auto end =
      static_cast<std::size_t>(n64 * (s.index + 1ULL) / s.count);
  return {begin, end};
}

std::vector<job> take_shard(const std::vector<job>& jobs, shard_spec s) {
  const auto [begin, end] = shard_range(jobs.size(), s);
  return std::vector<job>(jobs.begin() + static_cast<std::ptrdiff_t>(begin),
                          jobs.begin() + static_cast<std::ptrdiff_t>(end));
}

std::vector<job> expand_default_jobs(
    const std::vector<const scenario*>& scenarios, std::uint32_t seeds,
    std::uint64_t base_seed) {
  std::vector<job> jobs;
  for (const scenario* sc : scenarios) {
    std::vector<job> expanded =
        expand_jobs(*sc, param_grid(sc->default_sweep), seeds, base_seed);
    std::move(expanded.begin(), expanded.end(), std::back_inserter(jobs));
  }
  return jobs;
}

}  // namespace lcg::runner
