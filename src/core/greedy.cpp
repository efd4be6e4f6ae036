#include "core/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace lcg::core {

namespace {

constexpr double neg_inf = -std::numeric_limits<double>::infinity();

greedy_result finalize(greedy_result result) {
  // Return the best prefix (PU argmax), as Algorithm 1 prescribes.
  if (result.prefix_values.empty()) {
    result.objective_value = neg_inf;
    return result;
  }
  const auto best = std::max_element(result.prefix_values.begin(),
                                     result.prefix_values.end());
  const auto idx =
      static_cast<std::size_t>(best - result.prefix_values.begin());
  result.chosen = result.prefixes[idx];
  result.objective_value = *best;
  return result;
}

/// The literal Algorithm 1 loop over an arbitrary set objective; the
/// estimated-objective overloads wrap their surrogate into an objective_fn
/// (one simplified() call per evaluation, so the counters agree).
greedy_result plain_greedy(const objective_fn& objective,
                           std::span<const graph::node_id> candidates,
                           std::span<const double> locks) {
  greedy_result result;
  strategy current;
  std::vector<char> used(candidates.size(), 0);
  double current_value = neg_inf;

  for (const double lock : locks) {
    double best_value = neg_inf;
    std::size_t best_idx = candidates.size();
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (used[i]) continue;
      current.push_back(action{candidates[i], lock});
      const double value = objective(current);
      ++result.evaluations;
      current.pop_back();
      if (value > best_value) {
        best_value = value;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size() || best_value <= neg_inf) break;
    // U' is monotone under the estimated objective, but guard against a
    // step that cannot improve a disconnected -inf state.
    used[best_idx] = 1;
    current.push_back(action{candidates[best_idx], lock});
    current_value = best_value;
    result.prefixes.push_back(current);
    result.prefix_values.push_back(current_value);
  }
  return finalize(std::move(result));
}

objective_fn simplified_of(const estimated_objective& objective) {
  return [&objective](const strategy& s) { return objective.simplified(s); };
}

greedy_result celf_greedy(const estimated_objective& objective,
                          std::span<const graph::node_id> candidates,
                          double lock, std::size_t max_channels) {
  greedy_result result;
  const std::uint64_t evals_before = objective.evaluations();
  strategy current;
  double current_value = neg_inf;

  // Iteration 1: evaluate every singleton exactly (marginals from the empty
  // strategy are infinite, so CELF bounds cannot be seeded lazily).
  struct entry {
    double gain;        // upper bound on the marginal gain
    std::size_t index;  // candidate index
    std::size_t round;  // |S| when `gain` was computed
  };
  const auto cmp = [](const entry& a, const entry& b) {
    return a.gain < b.gain;
  };
  std::priority_queue<entry, std::vector<entry>, decltype(cmp)> heap(cmp);

  {
    double best_value = neg_inf;
    std::size_t best_idx = candidates.size();
    std::vector<double> singleton_value(candidates.size(), neg_inf);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const double value =
          objective.simplified(strategy{action{candidates[i], lock}});
      singleton_value[i] = value;
      if (value > best_value) {
        best_value = value;
        best_idx = i;
      }
    }
    if (best_idx == candidates.size() || best_value <= neg_inf) {
      result.evaluations = objective.evaluations() - evals_before;
      return finalize(std::move(result));
    }
    current.push_back(action{candidates[best_idx], lock});
    current_value = best_value;
    result.prefixes.push_back(current);
    result.prefix_values.push_back(current_value);
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (i == best_idx) continue;
      // No finite upper bound on marginals exists yet (marginals from the
      // empty, disconnected state are infinite), so seed stale +inf bounds:
      // every candidate is re-evaluated once before its first selection.
      heap.push(entry{std::numeric_limits<double>::infinity(), i, 0});
    }
  }

  while (current.size() < max_channels && !heap.empty()) {
    entry top = heap.top();
    heap.pop();
    if (top.round == current.size()) {
      // Bound is fresh: this candidate's true marginal dominates all others'
      // upper bounds; take it (U' is monotone, so gains are >= 0).
      current.push_back(action{candidates[top.index], lock});
      current_value += top.gain;
      result.prefixes.push_back(current);
      result.prefix_values.push_back(current_value);
    } else {
      current.push_back(action{candidates[top.index], lock});
      const double value = objective.simplified(current);
      current.pop_back();
      heap.push(entry{value - current_value, top.index, current.size()});
    }
  }
  result.evaluations = objective.evaluations() - evals_before;
  return finalize(std::move(result));
}

}  // namespace

greedy_result greedy_fixed_lock(const estimated_objective& objective,
                                std::span<const graph::node_id> candidates,
                                double lock, std::size_t max_channels,
                                bool use_celf) {
  LCG_EXPECTS(lock >= 0.0);
  const std::size_t steps = std::min(max_channels, candidates.size());
  if (use_celf) return celf_greedy(objective, candidates, lock, steps);
  const std::vector<double> locks(steps, lock);
  return plain_greedy(simplified_of(objective), candidates, locks);
}

greedy_result greedy_with_step_locks(const estimated_objective& objective,
                                     std::span<const graph::node_id> candidates,
                                     std::span<const double> locks) {
  return plain_greedy(simplified_of(objective), candidates, locks);
}

greedy_result greedy_fixed_lock(const objective_fn& objective,
                                std::span<const graph::node_id> candidates,
                                double lock, std::size_t max_channels) {
  LCG_EXPECTS(lock >= 0.0);
  const std::size_t steps = std::min(max_channels, candidates.size());
  const std::vector<double> locks(steps, lock);
  return plain_greedy(objective, candidates, locks);
}

}  // namespace lcg::core
