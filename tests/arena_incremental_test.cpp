// The incremental provider mode's equivalence contract: mode=incremental
// (separator pricing) skips exact work, NEVER approximates a decision.
// Whole arena runs must be BITWISE identical to mode=full — same moves with
// the same utility doubles, same logical evaluation count, same outcome —
// while performing strictly fewer effective source-sweeps. DESIGN.md §8
// documents why this holds (separator identity, the symmetric margin, and
// the oracles' strict acceptance and (gain, index) tie-break).

#include "arena/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <iterator>
#include <limits>
#include <optional>
#include <vector>

#include "arena/engine.h"
#include "arena/oracles.h"
#include "arena/population.h"
#include "core/greedy.h"
#include "dist/zipf.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "topology/dynamics.h"
#include "topology/game.h"
#include "util/enumeration.h"
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

/// The move from `own` to `chosen` (both sorted) as an oracle returns it.
topology::deviation diff_of(graph::node_id u,
                            const std::vector<graph::node_id>& own,
                            const std::vector<graph::node_id>& chosen,
                            double before, double after) {
  topology::deviation dev;
  dev.deviator = u;
  std::set_difference(own.begin(), own.end(), chosen.begin(), chosen.end(),
                      std::back_inserter(dev.removed_peers));
  std::set_difference(chosen.begin(), chosen.end(), own.begin(), own.end(),
                      std::back_inserter(dev.added_peers));
  dev.utility_before = before;
  dev.utility_after = after;
  return dev;
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
  const std::uint64_t plan = 8;  // the sampled backend's pivots
  const arena_result inc =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::incremental, 5);
  // The local oracle prices every candidate by the separator over sweeps of
  // G - u (forest, accumulations), settles most of them on that value
  // (pruned) and sweeps the rest exactly (resweeps, whole plans); the
  // full-sweep counter only grows through node_scores. The G - u sweeps
  // exist from the evaluator's start, so every fee is read from the rows
  // and no fee BFS runs.
  EXPECT_GT(inc.sweeps.forest, 0u);
  EXPECT_GT(inc.sweeps.accumulations, 0u);
  EXPECT_GT(inc.sweeps.pruned, 0u);
  EXPECT_GT(inc.sweeps.resweeps, 0u);
  EXPECT_EQ(inc.sweeps.support_bfs, 0u);
  EXPECT_EQ(inc.sweeps.resweeps % plan, 0u);
  EXPECT_EQ(inc.sweeps.accumulations % plan, 0u);
  EXPECT_LE(inc.sweeps.accumulations, plan * inc.evaluations);
  // A priced evaluation is settled (pruned), exact (a whole resweep plan)
  // or -inf; the base is never counted pruned.
  EXPECT_LE(inc.sweeps.pruned + inc.sweeps.resweeps / plan, inc.evaluations);
  // Full mode prices exactly: every evaluation runs the fee BFS and sweeps
  // every plan source (full_sweeps), and nothing is priced by the separator
  // or pruned.
  const arena_result full =
      run_mode(start, oracle_kind::local, activation_order::round_robin, 0,
               provider_mode::full, 5);
  EXPECT_EQ(full.sweeps.support_bfs, full.evaluations);
  EXPECT_EQ(full.sweeps.forest, 0u);
  EXPECT_EQ(full.sweeps.resweeps, 0u);
  EXPECT_EQ(full.sweeps.accumulations, 0u);
  EXPECT_EQ(full.sweeps.pruned, 0u);
  EXPECT_GT(full.sweeps.full_sweeps, inc.sweeps.full_sweeps);
  // The greedy oracle prices through the same protocol, and its -inf sets
  // (a single channel can leave some receiver unreachable) read their fees
  // from the rows too.
  const arena_result greedy =
      run_mode(start, oracle_kind::greedy, activation_order::round_robin, 0,
               provider_mode::incremental, 5);
  EXPECT_EQ(greedy.sweeps.support_bfs, 0u);
  EXPECT_GT(greedy.sweeps.pruned, 0u);
  EXPECT_LE(greedy.sweeps.pruned + greedy.sweeps.resweeps / plan,
            greedy.evaluations);
  // So does a churning population, where a joiner enters isolated and
  // leaves every other player's sets at -inf until it moves.
  const std::size_t n = 24, initial = 16;
  graph::digraph churn_start(n);
  for (const topology::channel_pair& ch :
       topology::channel_pairs(make_start("ws", initial, 5)))
    churn_start.add_bidirectional(ch.a, ch.b);
  population_options popts;
  popts.base.oracle = oracle_kind::greedy;
  popts.base.max_rounds = 6;
  popts.base.seed = 3;
  popts.base.provider.mode = provider_mode::incremental;
  popts.initial_players = initial;
  popts.churn = make_churn_schedule(n, initial, 3, 3, 5, 19);
  topology::game_params params;
  params.l = 1.5;
  const population_result churn = run_population(churn_start, params, popts);
  ASSERT_GT(churn.joins, 0u);
  EXPECT_GT(churn.base.sweeps.forest, 0u);
  EXPECT_EQ(churn.base.sweeps.support_bfs, 0u);
}

TEST(IncrementalMode, GreedyOracleSettlesStepCandidatesByPrice) {
  // Each greedy step runs the decide pass over separator prices, so
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
  // same bits through both modes (added channels, dropped channels, the
  // empty set), and its price obeys the price contract.
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

    // The price contract: an incremental price lies within its margin of
    // the exact value and is -inf exactly when the exact value is; a
    // full-mode price is the exact value.
    for (std::size_t i = 0; i < sets.size(); ++i) {
      EXPECT_EQ(full_eval.price(sets[i]), exact[i]) << "set " << i;
      const double price = inc_eval.price(sets[i]);
      if (exact[i] == -std::numeric_limits<double>::infinity()) {
        EXPECT_EQ(price, exact[i]) << "set " << i;
      } else {
        EXPECT_GT(price, -std::numeric_limits<double>::infinity());
        EXPECT_LE(std::abs(price - exact[i]), separator_margin(price))
            << "set " << i;
      }
    }
    EXPECT_EQ(full.evaluations(), inc.evaluations());
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

/// The local oracle's neighbourhood of u in enumeration order, rebuilt
/// here for a reference: candidate_random = 0, so the adds are the top
/// candidate_k non-neighbours by (score desc, id asc).
std::vector<std::vector<graph::node_id>> local_neighbourhood(
    const strategy_state& state, graph::node_id u,
    const std::vector<double>& scores, const oracle_options& opts,
    std::vector<graph::node_id>& adds) {
  adds = non_neighbours(state, u);
  std::stable_sort(adds.begin(), adds.end(),
                   [&](graph::node_id a, graph::node_id b) {
                     return scores[a] > scores[b];
                   });
  if (adds.size() > opts.candidate_k) adds.resize(opts.candidate_k);
  const std::vector<graph::node_id>& own = state.owned(u);
  std::vector<std::vector<graph::node_id>> sets;
  for (std::size_t nr = 0; nr <= std::min(opts.max_removed, own.size());
       ++nr) {
    for_each_subset_of_size(own.size(), nr,
                            [&](const std::vector<std::size_t>& rm) {
      std::vector<graph::node_id> kept;
      for (std::size_t i = 0; i < own.size(); ++i) {
        if (!std::binary_search(rm.begin(), rm.end(), i))
          kept.push_back(own[i]);
      }
      for (std::size_t na = nr == 0 ? 1 : 0;
           na <= std::min(opts.max_added, adds.size()); ++na) {
        for_each_subset_of_size(adds.size(), na,
                                [&](const std::vector<std::size_t>& ad) {
          std::vector<graph::node_id> chosen = kept;
          for (const std::size_t i : ad) chosen.push_back(adds[i]);
          std::sort(chosen.begin(), chosen.end());
          sets.push_back(chosen);
          return true;
        });
      }
      return true;
    });
  }
  return sets;
}

TEST(IncrementalMode, LocalOracleBreaksBitwiseTiesByEnumerationOrder) {
  // On symmetric hosts many local candidates tie bitwise on gain (mirror
  // chords of a cycle, leaf links of a star, dropped channels of a
  // complete graph). The two-pass oracle visits candidates by descending
  // price, yet must pick the one-pass winner: the FIRST candidate in
  // enumeration order with the largest gain. The reference is that
  // one-pass loop over exact values; both modes must match it bit for bit
  // and count the same logical evaluations. Full mode visits bitwise-tied
  // prices in enumeration order; the separator prices of some tied
  // candidates (cycle8 at s = 0.5, cycle10 at s = 2) order them the other
  // way round, so only the index rule picks the right one there.
  const struct {
    const char* name;
    graph::digraph g;
  } hosts[] = {
      {"cycle8", graph::cycle_graph(8)},
      {"cycle9", graph::cycle_graph(9)},
      {"cycle10", graph::cycle_graph(10)},
      {"star6", graph::star_graph(6)},
      {"complete5", graph::complete_graph(5)},
  };
  oracle_options opts;
  opts.candidate_k = 16;
  opts.candidate_random = 0;
  std::size_t tied_winners = 0;
  std::size_t reversed_ties = 0;  // a later tie has the higher price
  for (const auto& host : hosts) {
    for (const auto [l, zipf_s] :
         {std::pair{0.05, 1.0}, {0.3, 1.0}, {1.5, 1.0}, {4.0, 1.0},
          {0.3, 0.5}, {1.5, 0.5}, {0.3, 2.0}, {1.5, 2.0}}) {
      SCOPED_TRACE(std::string(host.name) + " l=" + std::to_string(l) +
                   " s=" + std::to_string(zipf_s));
      topology::game_params params;
      params.l = l;
      params.s = zipf_s;
      provider_options full_opts;
      provider_options inc_opts;
      inc_opts.mode = provider_mode::incremental;
      const strategy_state state(host.g);
      const utility_provider scorer(params, full_opts);
      const std::vector<double> scores = scorer.node_scores(state.graph());
      for (graph::node_id u = 0; u < state.player_count(); ++u) {
        SCOPED_TRACE("u=" + std::to_string(u));
        std::vector<graph::node_id> adds;
        const std::vector<std::vector<graph::node_id>> sets =
            local_neighbourhood(state, u, scores, opts, adds);
        const std::vector<graph::node_id>& own = state.owned(u);
        // The one-pass reference over exact values.
        const utility_provider exact_provider(params, full_opts);
        const utility_provider price_provider(params, inc_opts);
        candidate_evaluator exact(exact_provider, state.graph(), u, own,
                                  adds);
        candidate_evaluator priced(price_provider, state.graph(), u, own,
                                   adds);
        const double base = exact.base_value();
        const bool finite_base =
            base > -std::numeric_limits<double>::infinity();
        std::vector<double> values;
        std::size_t best = sets.size();
        for (std::size_t i = 0; i < sets.size(); ++i) {
          const double v = exact.evaluate(sets[i]);
          values.push_back(v);
          const bool better =
              finite_base ? v > base + opts.tolerance &&
                                (best == sets.size() ||
                                 v - base > values[best] - base)
                          : v > base &&
                                (best == sets.size() || v > values[best]);
          if (better) best = i;
        }
        std::size_t ties = 0;
        if (best < sets.size()) {
          const double g = finite_base ? values[best] - base : values[best];
          for (std::size_t i = 0; i < sets.size(); ++i) {
            const double gi = finite_base ? values[i] - base : values[i];
            if (gi == g) {
              ++ties;
              EXPECT_GE(i, best) << "a tied candidate enumerated first lost";
              if (i > best && priced.price(sets[i]) > priced.price(sets[best]))
                ++reversed_ties;
            }
          }
        }
        if (ties > 1) ++tied_winners;

        for (const provider_options& popts : {full_opts, inc_opts}) {
          SCOPED_TRACE(std::string(provider_mode_name(popts.mode)));
          const utility_provider provider(params, popts);
          rng stream(1);
          const std::optional<topology::deviation> dev =
              propose_move(oracle_kind::local, state, u, provider, opts,
                           scores, stream);
          EXPECT_EQ(provider.evaluations(), sets.size() + 1);
          ASSERT_EQ(dev.has_value(), best < sets.size());
          if (!dev) continue;
          const std::vector<graph::node_id>& chosen = sets[best];
          std::vector<graph::node_id> added;
          std::vector<graph::node_id> removed;
          std::set_difference(chosen.begin(), chosen.end(), own.begin(),
                              own.end(), std::back_inserter(added));
          std::set_difference(own.begin(), own.end(), chosen.begin(),
                              chosen.end(), std::back_inserter(removed));
          EXPECT_EQ(dev->added_peers, added);
          EXPECT_EQ(dev->removed_peers, removed);
          EXPECT_EQ(dev->utility_before, base);
          EXPECT_EQ(dev->utility_after, values[best]);
        }
      }
      // Whole runs from the symmetric host agree between modes too.
      arena_options options;
      options.oracle = oracle_kind::local;
      options.max_rounds = 6;
      options.oracle_opts = opts;
      arena_options inc_run = options;
      inc_run.provider.mode = provider_mode::incremental;
      expect_equal_runs(run_arena(host.g, params, options),
                        run_arena(host.g, params, inc_run));
    }
  }
  // The hosts must exercise the rule: winners that tie with another
  // accepted candidate bit for bit, in both visiting orders.
  EXPECT_GT(tied_winners, 0u);
  EXPECT_GT(reversed_ties, 0u);
}

/// Algorithm 1 run literally for u, the one-pass oracle the greedy oracle
/// must match: core::greedy_fixed_lock over an objective_fn of
/// topology::node_utility values, then the empty set (it wins at >=) and
/// the base (a move needs a strict gain past the tolerance).
struct literal_greedy {
  std::vector<graph::node_id> adds;                // candidate additions
  std::vector<std::vector<graph::node_id>> calls;  // every set, in order
  std::vector<double> values;                      // their utilities
  std::vector<double> prefix_values;               // step maxima
  double empty = -std::numeric_limits<double>::infinity();
  std::uint64_t evaluations = 1;  // the base alone
  std::optional<topology::deviation> expected;
};

literal_greedy run_literal_greedy(const strategy_state& state,
                                  graph::node_id u,
                                  const topology::game_params& params,
                                  const oracle_options& opts,
                                  const std::vector<double>& scores) {
  literal_greedy out;
  const std::vector<graph::node_id>& own = state.owned(u);
  (void)local_neighbourhood(state, u, scores, opts, out.adds);
  std::vector<graph::node_id> candidates = own;
  candidates.insert(candidates.end(), out.adds.begin(), out.adds.end());
  if (candidates.empty()) return out;
  // U_u with exactly the channels to `set` owned by u, on a copy of the
  // host; additions append in `adds` order, as the evaluator's slots do.
  const auto utility = [&](const std::vector<graph::node_id>& set) {
    graph::digraph g = state.graph();
    const auto in_set = [&](graph::node_id p) {
      return std::find(set.begin(), set.end(), p) != set.end();
    };
    for (const graph::node_id p : own) {
      if (!in_set(p)) {
        g.remove_edge(g.find_edge(u, p));
        g.remove_edge(g.find_edge(p, u));
      }
    }
    for (const graph::node_id p : out.adds) {
      if (in_set(p)) g.add_bidirectional(u, p);
    }
    return topology::node_utility(g, u, params).total;
  };
  // Record every objective call in order.
  const core::objective_fn objective = [&](const core::strategy& st) {
    std::vector<graph::node_id> set;
    for (const core::action& a : st) set.push_back(a.peer);
    out.calls.push_back(set);
    out.values.push_back(utility(set));
    return out.values.back();
  };
  const core::greedy_result rebuilt = core::greedy_fixed_lock(
      objective, candidates, /*lock=*/0.0, opts.max_channels);
  out.prefix_values = rebuilt.prefix_values;
  out.calls.push_back({});
  out.values.push_back(utility({}));
  out.empty = out.values.back();
  out.evaluations = rebuilt.evaluations + 2;
  std::vector<graph::node_id> chosen;
  double value = out.empty;
  if (rebuilt.objective_value > value) {
    for (const core::action& a : rebuilt.chosen) chosen.push_back(a.peer);
    std::sort(chosen.begin(), chosen.end());
    value = rebuilt.objective_value;
  }
  const double base = utility(own);
  if (chosen != own && value > base + opts.tolerance)
    out.expected = diff_of(u, own, chosen, base, value);
  return out;
}

/// The greedy oracle for u, in both provider modes, must return `want`'s
/// move bit for bit and count its evaluations; incremental mode runs no fee
/// BFS.
void expect_greedy_matches(const literal_greedy& want,
                           const strategy_state& state, graph::node_id u,
                           const topology::game_params& params,
                           const oracle_options& opts,
                           const std::vector<double>& scores) {
  provider_options inc_opts;
  inc_opts.mode = provider_mode::incremental;
  for (const provider_options& popts : {provider_options{}, inc_opts}) {
    SCOPED_TRACE(std::string(provider_mode_name(popts.mode)));
    const utility_provider provider(params, popts);
    rng stream(1);
    const std::optional<topology::deviation> dev = propose_move(
        oracle_kind::greedy, state, u, provider, opts, scores, stream);
    EXPECT_EQ(provider.evaluations(), want.evaluations);
    if (popts.mode == provider_mode::incremental) {
      EXPECT_EQ(provider.stats().support_bfs, 0u);
    }
    ASSERT_EQ(dev.has_value(), want.expected.has_value());
    if (!dev) continue;
    EXPECT_EQ(dev->added_peers, want.expected->added_peers);
    EXPECT_EQ(dev->removed_peers, want.expected->removed_peers);
    EXPECT_EQ(dev->utility_before, want.expected->utility_before);
    EXPECT_EQ(dev->utility_after, want.expected->utility_after);
  }
}

TEST(IncrementalMode, GreedyOracleMatchesLiteralAlgorithm1) {
  // The greedy oracle runs Algorithm 1's steps on the decide pass at base
  // -inf; both modes must match the literal run (literal_greedy) bit for
  // bit and count the same logical evaluations. Each step's strict argmax
  // picks the first enumerated of its bitwise ties; the separator prices
  // of some tied candidates order them the other way round, so only the
  // index rule of the decide pass picks the right one there. Fees come
  // from the G - u rows, -inf sets' included.
  const struct {
    const char* name;
    graph::digraph g;
  } hosts[] = {
      {"cycle8", graph::cycle_graph(8)},
      {"cycle9", graph::cycle_graph(9)},
      {"cycle10", graph::cycle_graph(10)},
      {"cycle13", graph::cycle_graph(13)},
      {"cycle14", graph::cycle_graph(14)},
      {"path8", graph::path_graph(8)},
      {"star6", graph::star_graph(6)},
      {"complete5", graph::complete_graph(5)},
      {"ws12", make_start("ws", 12, 5)},
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  oracle_options opts;
  opts.candidate_k = 16;
  opts.candidate_random = 0;
  std::size_t tied_steps = 0;
  std::size_t reversed_ties = 0;  // a later tie has the higher price
  std::size_t moves = 0;
  std::size_t infinite_first = 0;  // activations whose first price is -inf
  for (const auto& host : hosts) {
    for (const auto& [l, zipf_s] :
         {std::pair{0.05, 1.0}, {0.3, 1.0}, {1.5, 1.0}, {4.0, 1.0},
          {0.3, 0.5}, {1.5, 0.5}, {0.3, 2.0}, {1.5, 2.0}}) {
      SCOPED_TRACE(std::string(host.name) + " l=" + std::to_string(l) +
                   " s=" + std::to_string(zipf_s));
      topology::game_params params;
      params.l = l;
      params.s = zipf_s;
      provider_options inc_opts;
      inc_opts.mode = provider_mode::incremental;
      const strategy_state state(host.g);
      const utility_provider scorer(params, provider_options{});
      const std::vector<double> scores = scorer.node_scores(state.graph());
      for (graph::node_id u = 0; u < state.player_count(); ++u) {
        SCOPED_TRACE("u=" + std::to_string(u));
        const literal_greedy want =
            run_literal_greedy(state, u, params, opts, scores);
        const auto& calls = want.calls;
        const auto& values = want.values;
        // Bitwise ties at a step's maximum, and their separator prices.
        const utility_provider price_provider(params, inc_opts);
        candidate_evaluator priced(price_provider, state.graph(), u,
                                   state.owned(u), want.adds);
        for (std::size_t a = 0; a + 1 < calls.size(); ++a) {
          std::size_t best = a;
          std::size_t b = a;
          for (; b + 1 < calls.size() &&
                 calls[b].size() == calls[a].size();
               ++b) {
            if (values[b] > values[best]) best = b;
          }
          std::size_t ties = 0;
          for (std::size_t i = best + 1; i < b; ++i) {
            if (values[i] != values[best] || values[i] == -inf) continue;
            ++ties;
            if (priced.price(calls[i]) > priced.price(calls[best]))
              ++reversed_ties;
          }
          if (ties > 0) ++tied_steps;
          a = b - 1;
        }
        if (want.expected) ++moves;
        if (!values.empty() && values.front() == -inf) ++infinite_first;
        expect_greedy_matches(want, state, u, params, opts, scores);
      }
    }
  }
  // The hosts must exercise the rule: steps whose maximum ties bit for bit,
  // in both visiting orders, activations that move, and activations that
  // price a -inf set first.
  EXPECT_GT(tied_steps, 0u);
  EXPECT_GT(reversed_ties, 0u);
  EXPECT_GT(moves, 0u);
  EXPECT_GT(infinite_first, 0u);
}

TEST(IncrementalMode, GreedyOracleTieRulesBetweenPrefixesAndTheEmptySet) {
  // Two of Algorithm 1's tie rules decide a move only when values tie bit
  // for bit: of several best prefixes the FIRST is kept, and the empty set
  // wins when it ties the rebuilt value. With s = 0 over four receivers
  // every p_trans entry is exactly 1/4, and with a, b and l dyadic each
  // utility is an exact dyadic sum, so these hosts tie on purpose:
  //  - a newcomer (node 4) joining the path 0-1-2-3 at a = 1, b = 0,
  //    l = 1/4: past its second channel every channel saves exactly its
  //    cost, so three prefixes share the maximum;
  //  - a newcomer joining K4 at a = l = 0: it sits on no shortest path,
  //    so every prefix is worth exactly 0;
  //  - u = 1 holding the counterparty channel 0-1 and owning 1-4 on the
  //    tree 0-1, 0-2, 2-3, 0-4 at a = 1, b = 0, l = 1/2: the own channel
  //    saves 1/4 for its cost 1/2, the best channel saves exactly its
  //    cost, so the best prefix ties the empty set and both beat the base.
  // Both modes must match the literal run there.
  const auto tree = [] {
    graph::digraph g(5);
    g.add_bidirectional(0, 1);
    g.add_bidirectional(1, 4);
    g.add_bidirectional(0, 2);
    g.add_bidirectional(2, 3);
    g.add_bidirectional(0, 4);
    return g;
  };
  const auto with_newcomer = [](graph::digraph g) {
    g.add_node();
    return g;
  };
  const struct {
    const char* name;
    graph::digraph g;
    double a, b, l;
  } hosts[] = {
      {"path4+newcomer", with_newcomer(graph::path_graph(4)), 1.0, 0.0, 0.25},
      {"k4+newcomer", with_newcomer(graph::complete_graph(4)), 0.0, 1.0, 0.0},
      {"tree5", tree(), 1.0, 0.0, 0.5},
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  oracle_options opts;
  opts.candidate_k = 16;
  opts.candidate_random = 0;
  std::size_t prefix_ties = 0;  // a later best prefix decides the move
  std::size_t empty_ties = 0;   // the tied empty set decides the move
  for (const auto& host : hosts) {
    SCOPED_TRACE(host.name);
    topology::game_params params;
    params.a = host.a;
    params.b = host.b;
    params.l = host.l;
    params.s = 0.0;
    const strategy_state state(host.g);
    const utility_provider scorer(params, provider_options{});
    const std::vector<double> scores = scorer.node_scores(state.graph());
    for (graph::node_id u = 0; u < state.player_count(); ++u) {
      SCOPED_TRACE("u=" + std::to_string(u));
      const literal_greedy want =
          run_literal_greedy(state, u, params, opts, scores);
      const auto& steps = want.prefix_values;
      const auto best = std::max_element(steps.begin(), steps.end());
      if (want.expected && best != steps.end() && *best > want.empty &&
          std::find(best + 1, steps.end(), *best) != steps.end())
        ++prefix_ties;
      if (want.expected && !state.owned(u).empty() && want.empty > -inf &&
          best != steps.end() && *best == want.empty)
        ++empty_ties;
      expect_greedy_matches(want, state, u, params, opts, scores);
    }
  }
  EXPECT_GT(prefix_ties, 0u);
  EXPECT_GT(empty_ties, 0u);
}

TEST(IncrementalMode, FeesFromSeparatorRowsMatchTheBfs) {
  // Once the G - u sweeps exist, E_fees reads d(u, t) from them: bitwise
  // the fee of a BFS of the candidate graph (full mode's path) and of
  // topology::node_utility, per candidate. Dropped channels that cut u off
  // some receiver give +inf on both paths (the -inf short cut), and u's
  // own p_trans entry, where the fold has no distance, is 0.
  topology::game_params params;
  params.a = 0.7;
  std::size_t infinite = 0;
  std::size_t finite = 0;
  const struct {
    const char* name;
    graph::digraph g;
  } hosts[] = {
      {"ws", make_start("ws", 18, 3)},
      {"er", make_start("er", 16, 11)},
      {"path", graph::path_graph(7)},
      {"star", graph::star_graph(5)},
  };
  for (const auto& host : hosts) {
    SCOPED_TRACE(host.name);
    const strategy_state state(host.g);
    const std::vector<std::size_t> in_deg = graph::in_degrees(host.g);
    const std::vector<double> masses =
        dist::zipf_rank_masses(host.g.node_count(), params.s);
    for (graph::node_id u = 0; u < state.player_count(); ++u) {
      for (const dist::rank_basis basis :
           {dist::rank_basis::keep_sender_edges,
            dist::rank_basis::drop_sender_edges}) {
        EXPECT_EQ(dist::sender_row(host.g, in_deg, u, basis, nullptr,
                                   masses)[u],
                  0.0);
      }
      const std::vector<graph::node_id>& own = state.owned(u);
      std::vector<graph::node_id> adds = non_neighbours(state, u);
      if (adds.size() > 3) adds.resize(3);
      std::vector<std::vector<graph::node_id>> sets = {own, {}, adds};
      for (std::size_t i = 0; i < own.size(); ++i) {
        sets.push_back(own);
        sets.back().erase(sets.back().begin() + static_cast<long>(i));
        for (const graph::node_id a : adds) {
          sets.push_back(sets.back());
          sets.back().push_back(a);
          std::sort(sets.back().begin(), sets.back().end());
        }
      }
      provider_options inc_opts;
      inc_opts.mode = provider_mode::incremental;
      const utility_provider full(params, provider_options{});
      const utility_provider inc(params, inc_opts);
      candidate_evaluator bfs(full, state.graph(), u, own, adds);
      candidate_evaluator rows(inc, state.graph(), u, own, adds);
      // The G - u sweeps run when the evaluator starts.
      ASSERT_GT(inc.stats().forest, 0u);
      ASSERT_EQ(inc.stats().support_bfs, 0u);
      for (const auto& set : sets) {
        graph::digraph g = host.g;
        for (const graph::node_id p : own) {
          if (!std::binary_search(set.begin(), set.end(), p)) {
            g.remove_edge(g.find_edge(u, p));
            g.remove_edge(g.find_edge(p, u));
          }
        }
        for (const graph::node_id p : set) {
          if (!std::binary_search(own.begin(), own.end(), p))
            g.add_bidirectional(u, p);
        }
        const double reference = topology::node_utility(g, u, params).fees;
        const double fee = rows.fees(set);
        EXPECT_EQ(fee, bfs.fees(set)) << "u=" << u << " |set|=" << set.size();
        EXPECT_EQ(fee, reference) << "u=" << u << " |set|=" << set.size();
        if (std::isinf(fee)) {
          ++infinite;
          EXPECT_EQ(rows.price(set), -std::numeric_limits<double>::infinity());
        } else {
          ++finite;
        }
      }
      EXPECT_EQ(inc.stats().support_bfs, 0u)
          << "u=" << u << ": an incremental fee ran the BFS";
    }
  }
  // Both sides of the short cut are exercised.
  EXPECT_GT(infinite, 0u);
  EXPECT_GT(finite, 0u);
}


TEST(IncrementalMode, PlanRowsSweptUnlessEverySetLeavesAReceiverUnreachable) {
  // The evaluator sweeps G - u when it starts: the rows of every node u can
  // have an out-edge to (the fee rows), then the plan sources' rows. An
  // active receiver that no fee row reaches — here an isolated node z — is
  // unreachable from u in every set, so every set prices -inf and the plan
  // rows are skipped. Offering z as a candidate, or taking it out of the
  // population, lets sets be finite: then every plan row is swept, and each
  // price lies within its margin of the exact value.
  topology::game_params params;
  params.l = 0.5;
  graph::digraph g = make_start("ws", 12, 5);
  const graph::node_id z = g.add_node();
  const strategy_state state(g);
  const graph::node_id u = 0;
  const std::vector<graph::node_id>& own = state.owned(u);
  const std::vector<graph::node_id> far = non_neighbours(state, u);
  ASSERT_GE(far.size(), 3u);
  ASSERT_EQ(far.back(), z);
  const std::vector<graph::node_id> near_adds = {far[0], far[1]};
  const std::vector<graph::node_id> z_adds = {far[0], z};
  std::vector<char> without_z(g.node_count(), 1);
  without_z[z] = 0;
  const struct {
    const char* name;
    const std::vector<graph::node_id>& adds;
    const std::vector<char>* active;
    bool skipped;
  } arms[] = {
      {"z isolated", near_adds, nullptr, true},
      {"z offered", z_adds, nullptr, false},
      {"z departed", near_adds, &without_z, false},
  };
  constexpr double inf = std::numeric_limits<double>::infinity();
  for (const auto& arm : arms) {
    SCOPED_TRACE(arm.name);
    provider_options inc_opts;
    inc_opts.mode = provider_mode::incremental;
    utility_provider full(params, provider_options{});
    utility_provider inc(params, inc_opts);
    full.set_active(arm.active);
    inc.set_active(arm.active);
    candidate_evaluator exact(full, g, u, own, arm.adds);
    candidate_evaluator priced(inc, g, u, own, arm.adds);
    // Under the exact backend every node but u is a plan source.
    std::vector<graph::node_id> fee_roots = g.out_neighbors(u);
    fee_roots.insert(fee_roots.end(), arm.adds.begin(), arm.adds.end());
    std::sort(fee_roots.begin(), fee_roots.end());
    fee_roots.erase(std::unique(fee_roots.begin(), fee_roots.end()),
                    fee_roots.end());
    EXPECT_EQ(inc.stats().forest,
              arm.skipped ? fee_roots.size() : g.node_count() - 1);
    std::vector<std::vector<graph::node_id>> sets = {own, {}};
    for (const graph::node_id a : arm.adds) {
      sets.push_back(own);
      sets.back().push_back(a);
      std::sort(sets.back().begin(), sets.back().end());
    }
    for (std::size_t i = 0; i < own.size(); ++i) {
      sets.push_back(own);
      sets.back().erase(sets.back().begin() + static_cast<long>(i));
      sets.back().push_back(arm.adds.back());
      std::sort(sets.back().begin(), sets.back().end());
    }
    std::size_t finite = 0;
    for (const auto& set : sets) {
      const double want = exact.price(set);
      const double got = priced.price(set);
      if (want == -inf) {
        EXPECT_EQ(got, -inf) << "|set|=" << set.size();
        continue;
      }
      ++finite;
      EXPECT_NEAR(got, want, separator_margin(got)) << "|set|=" << set.size();
    }
    EXPECT_EQ(finite > 0, !arm.skipped);
    EXPECT_EQ(inc.stats().support_bfs, 0u);
  }
}

// --- activation lanes -----------------------------------------------------

/// The bits of a double, so -0.0, +0.0 and NaN payloads all count.
std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

TEST(ArenaLanes, BitwiseAcrossLaneCounts) {
  // The G - u sweeps, separator prices and exact phases run on the
  // provider's lanes and merge per index in ascending order (DESIGN.md
  // §8.6): every move, utility, gain, logical evaluation and sweep-ledger
  // field must be the same bits at every lane count.
  struct config {
    std::string name;
    graph::digraph start;
    population_options options;
  };
  std::vector<config> configs;
  const graph::digraph ws = make_start("ws", 24, 11);
  for (const oracle_kind oracle : {oracle_kind::local, oracle_kind::greedy}) {
    for (const provider_mode mode :
         {provider_mode::full, provider_mode::incremental}) {
      for (const activation_order order :
           {activation_order::round_robin, activation_order::random,
            activation_order::simultaneous}) {
        population_options popts;
        popts.base.oracle = oracle;
        popts.base.order = order;
        popts.base.max_rounds = 4;
        popts.base.seed = 31;
        popts.base.oracle_opts.candidate_k = 3;
        popts.base.oracle_opts.candidate_random = 1;
        popts.base.oracle_opts.max_channels = 3;
        // Local runs sweep every source (the exact backend), greedy runs
        // the sampled one.
        popts.base.provider.exact_threshold =
            oracle == oracle_kind::local ? 192 : 0;
        popts.base.provider.pivots = 8;
        popts.base.provider.seed = 77;
        popts.base.provider.mode = mode;
        configs.push_back({std::string(oracle_name(oracle)) + "/" +
                               std::string(provider_mode_name(mode)) + "/" +
                               std::string(order_name(order)),
                           ws, popts});
      }
    }
  }
  {
    // A churning population: spare slots join, players leave.
    const std::size_t n = 24, initial = 16;
    const graph::digraph core = make_start("ws", initial, 5);
    graph::digraph start(n);
    for (const topology::channel_pair& ch : topology::channel_pairs(core))
      start.add_bidirectional(ch.a, ch.b);
    population_options popts;
    popts.base.oracle = oracle_kind::local;
    popts.base.max_rounds = 6;
    popts.base.seed = 3;
    popts.base.provider.mode = provider_mode::incremental;
    popts.initial_players = initial;
    popts.churn = make_churn_schedule(n, initial, 3, 3, 5, 19);
    configs.push_back({"churn", start, popts});
  }

  topology::game_params params;
  params.l = 1.5;
  for (config& c : configs) {
    SCOPED_TRACE(c.name);
    c.options.base.provider.threads = 1;
    const population_result one = run_population(c.start, params, c.options);
    ASSERT_FALSE(one.base.moves.empty());
    for (const std::size_t threads : {2u, 3u, 8u}) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      c.options.base.provider.threads = threads;
      const population_result many =
          run_population(c.start, params, c.options);
      const arena_result& a = one.base;
      const arena_result& b = many.base;
      EXPECT_EQ(a.outcome, b.outcome);
      EXPECT_EQ(a.rounds, b.rounds);
      EXPECT_EQ(a.proposals, b.proposals);
      EXPECT_EQ(bits(a.total_gain), bits(b.total_gain));
      EXPECT_EQ(a.evaluations, b.evaluations);
      EXPECT_EQ(a.sweeps.full_sweeps, b.sweeps.full_sweeps);
      EXPECT_EQ(a.sweeps.forest, b.sweeps.forest);
      EXPECT_EQ(a.sweeps.resweeps, b.sweeps.resweeps);
      EXPECT_EQ(a.sweeps.accumulations, b.sweeps.accumulations);
      EXPECT_EQ(a.sweeps.support_bfs, b.sweeps.support_bfs);
      EXPECT_EQ(a.sweeps.pruned, b.sweeps.pruned);
      EXPECT_EQ(one.joins, many.joins);
      EXPECT_EQ(one.leaves, many.leaves);
      ASSERT_EQ(a.moves.size(), b.moves.size());
      for (std::size_t i = 0; i < a.moves.size(); ++i) {
        const topology::deviation& x = a.moves[i].dev;
        const topology::deviation& y = b.moves[i].dev;
        EXPECT_EQ(a.moves[i].round, b.moves[i].round) << "move " << i;
        EXPECT_EQ(x.deviator, y.deviator) << "move " << i;
        EXPECT_EQ(x.removed_peers, y.removed_peers) << "move " << i;
        EXPECT_EQ(x.added_peers, y.added_peers) << "move " << i;
        EXPECT_EQ(bits(x.utility_before), bits(y.utility_before))
            << "move " << i;
        EXPECT_EQ(bits(x.utility_after), bits(y.utility_after))
            << "move " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lcg::arena
