// The scenario abstraction of the experiment runner.
//
// A scenario is a named, parameterised, seeded experiment returning typed
// result rows. Every reproduction artefact (join-game optimisers, Nash
// checks, simulator-vs-analytic validation, ...) registers one scenario in
// the registry (runner/registry.h); the grid builder (runner/grid.h)
// expands a scenario into concrete jobs and the executor (runner/executor.h)
// runs them — serially or in parallel, with bit-identical results.
//
// Determinism contract: a scenario's run() must derive all randomness from
// scenario_context::make_rng() (or the seed itself) and must not read
// global mutable state. Under that contract a (name, params, seed) triple
// fully determines the produced rows, which is what makes parallel and
// serial sweeps byte-identical.

#ifndef LCG_RUNNER_SCENARIO_H
#define LCG_RUNNER_SCENARIO_H

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/error.h"
#include "util/format.h"
#include "util/rng.h"
#include "util/table.h"

namespace lcg::runner {

/// A parameter or result value: string, integer, or double (the same cell
/// type util/table.h renders).
using value = table_cell;

/// Scenario parameters, keyed by name. std::map keeps iteration order
/// deterministic, which the reporters and the job-expansion rely on.
using param_map = std::map<std::string, value>;

/// One typed output record of a scenario run. Columns keep insertion order.
class result_row {
 public:
  result_row& set(std::string column, value v) {
    for (auto& cell : cells_) {
      if (cell.first == column) {
        cell.second = std::move(v);
        return *this;
      }
    }
    cells_.emplace_back(std::move(column), std::move(v));
    return *this;
  }

  [[nodiscard]] const std::vector<std::pair<std::string, value>>& cells()
      const noexcept {
    return cells_;
  }

 private:
  std::vector<std::pair<std::string, value>> cells_;
};

/// Everything a scenario invocation sees: its parameters, its private
/// deterministic random stream, and its thread budget.
class scenario_context {
 public:
  scenario_context(const param_map& params, std::uint64_t seed,
                   std::size_t thread_budget = 1)
      : params_(&params), seed_(seed), thread_budget_(thread_budget) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  [[nodiscard]] const param_map& params() const noexcept { return *params_; }

  /// Worker threads this job may use internally (e.g. for the parallel
  /// betweenness backend, graph/betweenness.h). The executor sizes it so
  /// that concurrent jobs never oversubscribe the machine; it MUST NOT
  /// influence results (the determinism contract above covers it because
  /// every parallel primitive in lcg is bit-identical to its serial form).
  [[nodiscard]] std::size_t threads() const noexcept { return thread_budget_; }

  /// The job's private generator stream (splitmix64-expanded by rng's
  /// seeding); equal seeds give bit-identical streams.
  [[nodiscard]] rng make_rng() const { return rng(seed_); }

  [[nodiscard]] bool has(const std::string& key) const {
    return params_->count(key) != 0;
  }

  [[nodiscard]] long long get_int(const std::string& key,
                                  long long fallback) const {
    const auto it = params_->find(key);
    if (it == params_->end()) return fallback;
    if (const auto* i = std::get_if<long long>(&it->second)) return *i;
    if (const auto* d = std::get_if<double>(&it->second)) {
      // Only a finite, integral double inside long long's range converts
      // exactly; anything else would truncate silently or be an
      // out-of-range cast (undefined behaviour).
      constexpr double limit = 9223372036854775808.0;  // 2^63
      if (std::isfinite(*d) && std::trunc(*d) == *d && *d >= -limit &&
          *d < limit)
        return static_cast<long long>(*d);
      throw precondition_error("parameter '" + key + "' = " +
                               render_double(*d) + " is not an integer");
    }
    throw precondition_error("parameter '" + key + "' is not numeric");
  }

  [[nodiscard]] double get_double(const std::string& key,
                                  double fallback) const {
    const auto it = params_->find(key);
    if (it == params_->end()) return fallback;
    if (const auto* d = std::get_if<double>(&it->second)) return *d;
    if (const auto* i = std::get_if<long long>(&it->second))
      return static_cast<double>(*i);
    throw precondition_error("parameter '" + key + "' is not numeric");
  }

  [[nodiscard]] std::string get_string(const std::string& key,
                                       std::string fallback) const {
    const auto it = params_->find(key);
    if (it == params_->end()) return fallback;
    if (const auto* s = std::get_if<std::string>(&it->second)) return *s;
    throw precondition_error("parameter '" + key + "' is not a string");
  }

 private:
  const param_map* params_;
  std::uint64_t seed_;
  std::size_t thread_budget_ = 1;
};

/// A registered experiment. `default_sweep` lists, per parameter, the
/// values a plain `lcg_run` invocation sweeps (the cartesian product is
/// taken; see runner/grid.h). run() may produce any number of rows.
struct scenario {
  std::string name;         ///< e.g. "join/greedy"; '/' namespaces families
  std::string description;  ///< one line for --list
  std::vector<std::pair<std::string, std::vector<value>>> default_sweep;
  std::function<std::vector<result_row>(const scenario_context&)> run;
  /// Code-version tag mixed into the on-disk cache key (runner/cache.h).
  /// Bump it whenever run()'s observable behaviour changes: stale cached
  /// rows for exactly this scenario stop matching, everything else stays
  /// warm.
  std::string version = "0";
  /// Result columns run() emits, in emission order. Declaring them lets
  /// the reporter compute the merged CSV header from a job list alone —
  /// before (or without) running anything — which is what makes shard
  /// outputs and all-cache-hit runs share one header (runner/reporter.h).
  /// Every row of a scenario must emit exactly these columns; empty means
  /// undeclared (header then needs executed rows).
  std::vector<std::string> columns;
  /// Axes that must NOT perturb seed assignment (runner/grid.h): grid
  /// points differing only in these parameters share a seed, so their rows
  /// can be byte-compared. List knobs that select an evaluation path (the
  /// arena's provider "mode") or whose degenerate value must replay the
  /// plain run on the same stream (a churn or heterogeneity axis).
  std::vector<std::string> seed_neutral = {};
};

}  // namespace lcg::runner

#endif  // LCG_RUNNER_SCENARIO_H
