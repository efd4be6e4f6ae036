#include "core/continuous.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace lcg::core {

namespace {

constexpr double neg_inf = -std::numeric_limits<double>::infinity();

double capital_used(const model_params& params, const strategy& s) {
  double total = 0.0;
  for (const action& a : s) total += params.onchain_cost + a.lock;
  return total;
}

/// Golden-section maximisation of f over [lo, hi].
template <typename Fn>
double golden_section(Fn&& f, double lo, double hi, int iterations = 32) {
  constexpr double inv_phi = 0.6180339887498949;
  double a = lo, b = hi;
  double x1 = b - inv_phi * (b - a);
  double x2 = a + inv_phi * (b - a);
  double f1 = f(x1), f2 = f(x2);
  for (int i = 0; i < iterations; ++i) {
    if (f1 < f2) {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + inv_phi * (b - a);
      f2 = f(x2);
    } else {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - inv_phi * (b - a);
      f1 = f(x1);
    }
  }
  return f1 >= f2 ? x1 : x2;
}

struct search_state {
  strategy current;
  double value = neg_inf;
};

}  // namespace

local_search_result continuous_local_search(
    const estimated_objective& objective,
    std::span<const graph::node_id> candidates, double budget,
    const local_search_options& options) {
  LCG_EXPECTS(budget >= 0.0);
  LCG_EXPECTS(options.grid_points >= 1);
  const model_params& params = objective.model().params();

  local_search_result result;
  result.objective_value = neg_inf;
  const std::uint64_t evals_before = objective.evaluations();
  rng gen(options.seed);
  // Lock grid of the add moves: grid_points + 1 evenly spaced values in
  // [0, available], rebuilt once per round.
  std::vector<double> add_locks;
  add_locks.reserve(options.grid_points + 1);

  const auto run_from = [&](strategy start) {
    search_state state;
    state.current = std::move(start);
    state.value = objective.benefit(state.current);

    for (std::size_t round = 0; round < options.max_rounds; ++round) {
      strategy best_candidate;
      double best_value = state.value;

      const double used = capital_used(params, state.current);

      // Add moves: any unused candidate, any grid lock within budget.
      const double available = budget - used - params.onchain_cost;
      if (available >= 0.0) {
        add_locks.clear();
        for (std::size_t i = 0; i <= options.grid_points; ++i) {
          add_locks.push_back(available * static_cast<double>(i) /
                              static_cast<double>(options.grid_points));
        }
        for (const graph::node_id v : candidates) {
          const bool already = std::any_of(
              state.current.begin(), state.current.end(),
              [v](const action& a) { return a.peer == v; });
          if (already) continue;
          for (const double lock : add_locks) {
            strategy trial = state.current;
            trial.push_back(action{v, lock});
            const double value = objective.benefit(trial);
            if (value > best_value) {
              best_value = value;
              best_candidate = std::move(trial);
            }
          }
        }
      }

      // Drop moves.
      for (std::size_t i = 0; i < state.current.size(); ++i) {
        strategy trial = state.current;
        trial.erase(trial.begin() + static_cast<std::ptrdiff_t>(i));
        const double value = objective.benefit(trial);
        if (value > best_value) {
          best_value = value;
          best_candidate = std::move(trial);
        }
      }

      // Swap-peer moves (keep the lock, change the counterparty).
      for (std::size_t i = 0; i < state.current.size(); ++i) {
        for (const graph::node_id v : candidates) {
          const bool in_use = std::any_of(
              state.current.begin(), state.current.end(),
              [v](const action& a) { return a.peer == v; });
          if (in_use) continue;
          strategy trial = state.current;
          trial[i].peer = v;
          const double value = objective.benefit(trial);
          if (value > best_value) {
            best_value = value;
            best_candidate = std::move(trial);
          }
        }
      }

      // Continuous lock refinement on each action (the III-D relaxation).
      if (options.refine_locks) {
        for (std::size_t i = 0; i < state.current.size(); ++i) {
          const double others = used - params.onchain_cost -
                                state.current[i].lock;
          const double hi = budget - others - params.onchain_cost;
          if (hi <= 0.0) continue;
          strategy trial = state.current;
          const double refined = golden_section(
              [&](double lock) {
                trial[i].lock = lock;
                return objective.benefit(trial);
              },
              0.0, hi);
          trial[i].lock = refined;
          const double value = objective.benefit(trial);
          if (value > best_value) {
            best_value = value;
            best_candidate = std::move(trial);
          }
        }
      }

      if (best_value <= state.value + options.epsilon) break;
      state.current = std::move(best_candidate);
      state.value = best_value;
      ++result.rounds;
    }

    if (state.value > result.objective_value) {
      result.objective_value = state.value;
      result.chosen = state.current;
    }
  };

  // Restart 0: empty start (local search builds up greedily via add moves).
  run_from({});
  // Random restarts: a few random feasible seeds diversify the search.
  for (std::size_t r = 1; r < options.restarts; ++r) {
    strategy seed_strategy;
    double used = 0.0;
    std::vector<graph::node_id> pool(candidates.begin(), candidates.end());
    gen.shuffle(pool);
    for (const graph::node_id v : pool) {
      if (used + params.onchain_cost > budget) break;
      const double max_lock = budget - used - params.onchain_cost;
      const double lock = gen.uniform_real(0.0, max_lock);
      seed_strategy.push_back(action{v, lock});
      used += params.onchain_cost + lock;
      if (gen.bernoulli(0.5)) break;  // vary seed sizes
    }
    run_from(std::move(seed_strategy));
  }

  result.evaluations = objective.evaluations() - evals_before;
  return result;
}

}  // namespace lcg::core
