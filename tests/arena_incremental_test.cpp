// The incremental provider mode's equivalence contract: mode=incremental
// (the separator filter) skips exact work, NEVER approximates a decision.
// Whole arena runs must be BITWISE identical to mode=full — same moves with
// the same utility doubles, same logical evaluation count, same outcome —
// while performing strictly fewer effective source-sweeps. DESIGN.md §8
// documents why this holds (separator identity, filter soundness under
// strict acceptance).

#include "arena/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "arena/engine.h"
#include "graph/generators.h"
#include "topology/dynamics.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::arena {
namespace {

graph::digraph make_start(const std::string& kind, std::size_t n,
                          std::uint64_t seed) {
  rng gen(seed);
  if (kind == "path") return graph::path_graph(n);
  if (kind == "cycle") return graph::cycle_graph(n);
  if (kind == "ws") return graph::watts_strogatz(n, 4, 0.1, gen);
  return graph::erdos_renyi(n, 0.15, gen);
}

arena_result run_mode(const graph::digraph& start, oracle_kind oracle,
                      activation_order order, std::size_t exact_threshold,
                      provider_mode mode, std::uint64_t seed) {
  topology::game_params params;
  params.l = 1.5;
  arena_options options;
  options.oracle = oracle;
  options.order = order;
  options.max_rounds = 8;
  options.seed = seed;
  options.oracle_opts.candidate_k = 3;
  options.oracle_opts.candidate_random = 1;
  options.oracle_opts.max_channels = 3;
  options.provider.exact_threshold = exact_threshold;
  options.provider.pivots = 8;
  options.provider.seed = seed ^ 0x7c63f8d1905bb7a3ULL;
  options.provider.mode = mode;
  return run_arena(start, params, options);
}

/// Nodes other than u with no channel to u, ascending.
std::vector<graph::node_id> non_neighbours(const strategy_state& state,
                                           graph::node_id u) {
  std::vector<graph::node_id> out;
  for (graph::node_id v = 0; v < state.player_count(); ++v) {
    if (v != u && !state.connected(u, v)) out.push_back(v);
  }
  return out;
}

/// Every observable of the two runs must agree; utilities bit for bit.
void expect_equal_runs(const arena_result& full, const arena_result& inc) {
  EXPECT_EQ(full.outcome, inc.outcome);
  EXPECT_EQ(full.rounds, inc.rounds);
  EXPECT_EQ(full.proposals, inc.proposals);
  EXPECT_EQ(full.evaluations, inc.evaluations)
      << "pruned candidates must still count one logical evaluation";
  EXPECT_EQ(full.total_gain, inc.total_gain);
  ASSERT_EQ(full.moves.size(), inc.moves.size());
  for (std::size_t i = 0; i < full.moves.size(); ++i) {
    const topology::deviation& a = full.moves[i].dev;
    const topology::deviation& b = inc.moves[i].dev;
    EXPECT_EQ(full.moves[i].round, inc.moves[i].round);
    EXPECT_EQ(a.deviator, b.deviator);
    EXPECT_EQ(a.removed_peers, b.removed_peers);
    EXPECT_EQ(a.added_peers, b.added_peers);
    EXPECT_EQ(a.utility_before, b.utility_before) << "move " << i;
    EXPECT_EQ(a.utility_after, b.utility_after) << "move " << i;
  }
  EXPECT_EQ(topology::topology_fingerprint(full.state.graph()),
            topology::topology_fingerprint(inc.state.graph()));
}

TEST(IncrementalMode, BitwiseEqualAcrossOraclesOrdersAndBackends) {
  const struct {
    const char* topology;
    std::size_t n;
    oracle_kind oracle;
    activation_order order;
    std::size_t exact_threshold;  // 0 forces the sampled backend
  } cases[] = {
      {"path", 10, oracle_kind::local, activation_order::round_robin, 192},
      {"ws", 16, oracle_kind::local, activation_order::round_robin, 0},
      {"ws", 16, oracle_kind::greedy, activation_order::round_robin, 0},
      {"er", 14, oracle_kind::local, activation_order::random, 192},
      {"er", 14, oracle_kind::greedy, activation_order::random, 0},
      {"cycle", 12, oracle_kind::local, activation_order::simultaneous, 0},
      {"ws", 24, oracle_kind::local, activation_order::round_robin, 0},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(std::string(c.topology) + " n=" + std::to_string(c.n) +
                 " oracle=" + std::string(oracle_name(c.oracle)) +
                 " threshold=" + std::to_string(c.exact_threshold));
    const graph::digraph start = make_start(c.topology, c.n, 7 * c.n + 1);
    const arena_result full = run_mode(start, c.oracle, c.order,
                                       c.exact_threshold, provider_mode::full,
                                       1234 + c.n);
    const arena_result inc = run_mode(start, c.oracle, c.order,
                                      c.exact_threshold,
                                      provider_mode::incremental, 1234 + c.n);
    expect_equal_runs(full, inc);
    EXPECT_LT(inc.sweeps.effective_sweeps(), full.sweeps.effective_sweeps());
  }
}

TEST(IncrementalMode, SweepLedgerAccountsEveryPath) {
  const graph::digraph start = make_start("ws", 20, 99);
  const arena_result inc =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::incremental, 5);
  // Incremental runs sweep G - u (forest), price sources by the separator
  // (accumulations), settle some candidates on that value (pruned) and
  // sweep the rest exactly (resweeps); the full-sweep counter only grows
  // through node_scores. Every evaluation runs one fee BFS.
  EXPECT_GT(inc.sweeps.forest, 0u);
  EXPECT_GT(inc.sweeps.accumulations, 0u);
  EXPECT_GT(inc.sweeps.pruned, 0u);
  EXPECT_GT(inc.sweeps.resweeps, 0u);
  EXPECT_EQ(inc.sweeps.support_bfs, inc.evaluations);
  // Full mode runs no filter: every evaluation sweeps every plan source
  // (full_sweeps) and nothing is priced by the separator or pruned.
  const arena_result full =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::full, 5);
  EXPECT_EQ(full.sweeps.support_bfs, full.evaluations);
  EXPECT_EQ(full.sweeps.forest, 0u);
  EXPECT_EQ(full.sweeps.resweeps, 0u);
  EXPECT_EQ(full.sweeps.accumulations, 0u);
  EXPECT_EQ(full.sweeps.pruned, 0u);
  EXPECT_GT(full.sweeps.full_sweeps, inc.sweeps.full_sweeps);
}

TEST(IncrementalMode, GreedyOracleFiltersAgainstTheStepBest) {
  // The greedy oracle passes each step's best value as the threshold, so
  // incremental greedy runs settle candidates on the separator value — and
  // stay bitwise equal to full mode, under exact and sampled backends.
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{192}}) {
    SCOPED_TRACE("threshold=" + std::to_string(threshold));
    const graph::digraph start = make_start("ws", 20, 41);
    const arena_result full =
        run_mode(start, oracle_kind::greedy, activation_order::round_robin,
                 threshold, provider_mode::full, 17);
    const arena_result inc =
        run_mode(start, oracle_kind::greedy, activation_order::round_robin,
                 threshold, provider_mode::incremental, 17);
    expect_equal_runs(full, inc);
    EXPECT_GT(inc.sweeps.pruned, 0u);
    EXPECT_LT(inc.sweeps.effective_sweeps(), full.sweeps.effective_sweeps());
  }
}

TEST(IncrementalMode, EvaluatorMatchesProviderPerCandidate) {
  // Direct per-candidate equivalence, independent of the engine: every
  // candidate own-set the local oracle would enumerate evaluates to the
  // same bits through both modes without a threshold (added channels,
  // dropped channels, the empty set), and obeys the filter contract with
  // one.
  const graph::digraph start = make_start("ws", 18, 3);
  topology::game_params params;
  params.l = 1.5;
  for (const std::size_t threshold : {std::size_t{0}, std::size_t{192}}) {
    provider_options full_opts;
    full_opts.exact_threshold = threshold;
    full_opts.pivots = 6;
    provider_options inc_opts = full_opts;
    inc_opts.mode = provider_mode::incremental;
    const utility_provider full(params, full_opts);
    const utility_provider inc(params, inc_opts);

    strategy_state state(start);
    const graph::node_id u = 5;
    const std::vector<graph::node_id> own = state.owned(u);
    const std::vector<graph::node_id> far = non_neighbours(state, u);
    ASSERT_GE(far.size(), 3u);
    const std::vector<graph::node_id> adds = {far.front(),
                                              far[far.size() / 2], far.back()};
    candidate_evaluator full_eval(full, state.graph(), u, own, adds);
    candidate_evaluator inc_eval(inc, state.graph(), u, own, adds);

    EXPECT_EQ(full_eval.base_value(), inc_eval.base_value());
    std::vector<std::vector<graph::node_id>> sets = {
        {}, {adds[0]}, {adds[1], adds[2]}, adds};
    for (const graph::node_id kept : own) sets.push_back({kept, adds[0]});
    if (!own.empty()) {
      std::vector<graph::node_id> drop_first(own.begin() + 1, own.end());
      sets.push_back(drop_first);
    }
    std::vector<double> exact;
    for (const auto& set : sets) {
      exact.push_back(full_eval.evaluate(set));
      EXPECT_EQ(exact.back(), inc_eval.evaluate(set))
          << "set size " << set.size() << " threshold " << threshold;
    }
    EXPECT_EQ(full.evaluations(), inc.evaluations());

    // Under a threshold at the median exact value, the filter settles some
    // candidates by their separator value, which must then sit at or below
    // the threshold together with the exact value; the rest come back
    // bitwise exact. Full mode ignores the threshold.
    std::vector<double> sorted = exact;
    std::sort(sorted.begin(), sorted.end());
    const double cut = sorted[sorted.size() / 2];
    full_eval.set_threshold(cut);
    inc_eval.set_threshold(cut);
    const std::uint64_t pruned_before = inc.stats().pruned;
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(full_eval.evaluate(sets[i]), exact[i]);
      const double value = inc_eval.evaluate(sets[i]);
      if (value != exact[i]) {
        EXPECT_LE(value, cut) << "set " << i;
        EXPECT_LE(exact[i], cut) << "set " << i;
      }
    }
    EXPECT_GT(inc.stats().pruned, pruned_before);
    EXPECT_EQ(full.stats().pruned, 0u);
  }
}

TEST(IncrementalMode, EvaluatorRejectsAddsThatAreNotNewChannels) {
  // An add that is u itself, repeats, or already has a channel with u (own
  // or counterparty-owned) would price a parallel channel pair no oracle
  // produces; the evaluator refuses it in both modes.
  const graph::digraph start = make_start("ws", 18, 3);
  strategy_state state(start);
  const graph::node_id u = 5;
  const std::vector<graph::node_id> own = state.owned(u);
  const std::vector<graph::node_id> far = non_neighbours(state, u);
  ASSERT_FALSE(own.empty());
  ASSERT_FALSE(far.empty());
  std::vector<std::vector<graph::node_id>> bad = {
      {u}, {far[0], far[0]}, {far[0], own[0]}};
  for (graph::node_id v = 0; v < start.node_count(); ++v) {
    if (state.connected(u, v) &&
        !std::binary_search(own.begin(), own.end(), v)) {
      bad.push_back({v});  // a counterparty-owned channel
      break;
    }
  }
  ASSERT_EQ(bad.size(), 4u);
  topology::game_params params;
  for (const provider_mode mode :
       {provider_mode::full, provider_mode::incremental}) {
    provider_options opts;
    opts.mode = mode;
    const utility_provider provider(params, opts);
    for (const std::vector<graph::node_id>& adds : bad) {
      EXPECT_THROW(
          candidate_evaluator(provider, state.graph(), u, own, adds),
          precondition_error)
          << provider_mode_name(mode) << " first add " << adds[0];
    }
    EXPECT_NO_THROW(
        candidate_evaluator(provider, state.graph(), u, own, far));
  }
}

}  // namespace
}  // namespace lcg::arena
