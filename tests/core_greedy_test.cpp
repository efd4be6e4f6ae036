// Algorithm 1 (Theorem 4): greedy channel selection with fixed locks.

#include "core/greedy.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/brute_force.h"
#include "core/rate_estimator.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcg::core {
namespace {

struct fixture {
  graph::digraph host;
  std::unique_ptr<utility_model> model;
  std::unique_ptr<full_connection_rate_estimator> estimator;
  std::unique_ptr<estimated_objective> objective;
  std::vector<graph::node_id> candidates;
};

fixture make_fixture(std::uint64_t seed, std::size_t n, double favg = 2.0) {
  fixture f;
  rng gen(seed);
  f.host = graph::erdos_renyi(n, 0.3, gen);
  for (graph::node_id v = 0; v < n; ++v) {
    const auto next = static_cast<graph::node_id>((v + 1) % n);
    if (f.host.find_edge(v, next) == graph::invalid_edge)
      f.host.add_bidirectional(v, next);
  }
  model_params params;
  params.onchain_cost = 1.0;
  params.opportunity_rate = 0.02;
  params.fee_avg = favg;
  params.fee_avg_tx = 0.5;
  params.user_tx_rate = 1.0;
  f.model = std::make_unique<utility_model>(
      make_zipf_model(f.host, 1.0, 10.0, params));
  for (graph::node_id v = 0; v < n; ++v) f.candidates.push_back(v);
  f.estimator = std::make_unique<full_connection_rate_estimator>(
      *f.model, f.candidates);
  f.objective = std::make_unique<estimated_objective>(*f.model, *f.estimator);
  return f;
}

TEST(Greedy, RespectsChannelLimit) {
  fixture f = make_fixture(1, 12);
  for (const std::size_t m : {1u, 3u, 5u}) {
    const greedy_result r =
        greedy_fixed_lock(*f.objective, f.candidates, 1.0, m);
    EXPECT_LE(r.chosen.size(), m);
    EXPECT_EQ(r.prefixes.size(), m);  // U' monotone: all steps succeed
  }
}

TEST(Greedy, SingleChannelIsOptimalSingleton) {
  fixture f = make_fixture(2, 10);
  const greedy_result r =
      greedy_fixed_lock(*f.objective, f.candidates, 1.0, 1);
  // Exhaustive singleton check.
  double best = -std::numeric_limits<double>::infinity();
  for (const graph::node_id v : f.candidates)
    best = std::max(best, f.objective->simplified({{v, 1.0}}));
  EXPECT_NEAR(r.objective_value, best, 1e-9);
}

TEST(Greedy, PrefixValuesAreMonotone) {
  fixture f = make_fixture(3, 12);
  const greedy_result r =
      greedy_fixed_lock(*f.objective, f.candidates, 1.0, 6);
  for (std::size_t i = 1; i < r.prefix_values.size(); ++i)
    EXPECT_GE(r.prefix_values[i], r.prefix_values[i - 1] - 1e-9);
}

TEST(Greedy, CelfMatchesPlainGreedy) {
  for (const std::uint64_t seed : {4u, 5u, 6u, 7u}) {
    fixture f = make_fixture(seed, 11);
    const greedy_result lazy =
        greedy_fixed_lock(*f.objective, f.candidates, 1.5, 5, true);
    const greedy_result plain =
        greedy_fixed_lock(*f.objective, f.candidates, 1.5, 5, false);
    ASSERT_EQ(lazy.prefix_values.size(), plain.prefix_values.size());
    for (std::size_t i = 0; i < lazy.prefix_values.size(); ++i)
      EXPECT_NEAR(lazy.prefix_values[i], plain.prefix_values[i], 1e-7)
          << "seed " << seed << " step " << i;
    // CELF must not cost more evaluations than plain greedy.
    EXPECT_LE(lazy.evaluations, plain.evaluations);
    // Theorem 4's O(M * n) bound: the literal greedy evaluates every unused
    // candidate once per step, 11 + 10 + 9 + 8 + 7 for n = 11, M = 5.
    EXPECT_EQ(plain.evaluations, 45u);
  }
}

TEST(Greedy, NoCandidates) {
  fixture f = make_fixture(8, 8);
  const greedy_result r = greedy_fixed_lock(*f.objective, {}, 1.0, 3);
  EXPECT_TRUE(r.chosen.empty());
  EXPECT_TRUE(std::isinf(r.objective_value));
}

TEST(Greedy, StepLocksAreAssignedInOrder) {
  fixture f = make_fixture(9, 10);
  const std::vector<double> locks{3.0, 1.0};
  const greedy_result r =
      greedy_with_step_locks(*f.objective, f.candidates, locks);
  ASSERT_EQ(r.chosen.size(), 2u);
  EXPECT_DOUBLE_EQ(r.chosen[0].lock, 3.0);
  EXPECT_DOUBLE_EQ(r.chosen[1].lock, 1.0);
}

// ---------------------------------------------------------------------------
// Theorem 4 property sweep: greedy >= (1 - 1/e) * OPT on random instances.
// ---------------------------------------------------------------------------

class GreedyApproximation : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GreedyApproximation, MeetsTheorem4Bound) {
  const std::uint64_t seed = GetParam();
  fixture f = make_fixture(seed, 10, /*favg=*/3.0);
  const double lock = 1.0;
  const double budget = 6.0;  // M = floor(6 / (1 + 1)) = 3 channels
  const std::size_t m =
      max_channels(f.model->params(), budget, lock);
  ASSERT_EQ(m, 3u);

  const greedy_result greedy =
      greedy_fixed_lock(*f.objective, f.candidates, lock, m);
  const brute_force_result opt = brute_force_fixed_lock(
      [&](const strategy& s) { return f.objective->simplified(s); },
      f.model->params(), f.candidates, lock, budget);

  ASSERT_GT(opt.value, 0.0) << "instance should have positive optimum";
  constexpr double bound = 1.0 - 1.0 / M_E;
  EXPECT_GE(greedy.objective_value, bound * opt.value - 1e-9)
      << "greedy " << greedy.objective_value << " vs OPT " << opt.value;
  // Sanity: greedy never exceeds the optimum.
  EXPECT_LE(greedy.objective_value, opt.value + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GreedyApproximation,
                         ::testing::Values(11, 12, 13, 14, 15, 16, 17, 18, 19,
                                           20));

}  // namespace
}  // namespace lcg::core
