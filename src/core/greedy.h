// Algorithm 1: greedy channel selection with fixed funds per channel.
//
// With every channel locking the same amount l1, the budget admits at most
// M = floor(Bu / (C + l1)) channels, and greedily maximising the submodular
// monotone U' yields a (1 - 1/e)-approximation (Theorem 4). Following the
// paper, the algorithm records every greedy prefix (the PS / PU arrays) and
// returns the best one.
//
// Two engines are provided: the literal greedy (evaluates every remaining
// candidate each step, exactly Algorithm 1), and a CELF lazy-evaluation
// variant that exploits submodularity to skip re-evaluations — identical
// output, far fewer objective evaluations. CELF is only valid when all step
// locks are equal; `greedy_with_step_locks` (used by Algorithm 2) always
// runs the literal engine.

#ifndef LCG_CORE_GREEDY_H
#define LCG_CORE_GREEDY_H

#include <span>
#include <vector>

#include "core/objective.h"

namespace lcg::core {

struct greedy_result {
  strategy chosen;                    // best prefix (argmax of PU)
  double objective_value = 0.0;       // U' estimate of `chosen`
  std::vector<double> prefix_values;  // PU[i]: U' after i+1 channels
  std::vector<strategy> prefixes;     // PS[i]
  std::uint64_t evaluations = 0;      // objective evaluations consumed
};

/// Algorithm 1. `candidates` are the distinct peers u may connect to;
/// at most `max_channels` (the paper's M) are opened, each locking `lock`.
[[nodiscard]] greedy_result greedy_fixed_lock(
    const estimated_objective& objective,
    std::span<const graph::node_id> candidates, double lock,
    std::size_t max_channels, bool use_celf = true);

/// Algorithm 1 with a prescribed lock per step (step j locks locks[j]);
/// this is the constrained subroutine Algorithm 2 invokes.
[[nodiscard]] greedy_result greedy_with_step_locks(
    const estimated_objective& objective,
    std::span<const graph::node_id> candidates,
    std::span<const double> locks);

/// Algorithm 1's literal greedy engine over an ARBITRARY set objective.
/// Submodularity is not assumed, so CELF lazy evaluation never applies:
/// every remaining candidate is re-evaluated each step, exactly as the
/// paper writes the algorithm. `evaluations` counts objective calls. The
/// arena's greedy best-response oracle (src/arena/oracles.h) runs the same
/// steps on its own evaluator, and its tests take this engine as their
/// reference.
[[nodiscard]] greedy_result greedy_fixed_lock(
    const objective_fn& objective, std::span<const graph::node_id> candidates,
    double lock, std::size_t max_channels);

}  // namespace lcg::core

#endif  // LCG_CORE_GREEDY_H
