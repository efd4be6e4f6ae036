// The large-population arena (src/arena/): small-n correctness against the
// certified topo/best_response dynamics, provider exactness below the
// backend threshold, and engine determinism.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>

#include "arena/engine.h"
#include "arena/incremental.h"
#include "runner/fixtures.h"
#include "topology/dynamics.h"
#include "topology/game.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::arena {
namespace {

topology::game_params params_with_l(double l) {
  topology::game_params p;
  p.l = l;
  return p;
}

graph::digraph start_graph(const std::string& name, std::size_t n,
                           std::uint64_t seed = 7) {
  rng gen(seed);
  return runner::make_topology(name, n, gen);
}

// --- the ISSUE's pin: brute oracle == certified dynamics at n <= 6 --------

TEST(ArenaEquivalence, BruteOracleReproducesCertifiedDynamicsOutcomes) {
  // The arena with the exhaustive brute oracle must replay
  // topology::best_response_dynamics exactly — same deviations (including
  // equal-gain tie-breaks), same outcome, same round count, same terminal
  // topology — on the paper's small starts. This is what anchors the
  // restricted large-n oracles to the certified n <= 8 reference.
  for (const char* topo : {"path", "cycle", "er"}) {
    for (const double l : {0.3, 1.5}) {
      const graph::digraph start = start_graph(topo, 6);
      const topology::game_params p = params_with_l(l);

      topology::dynamics_options dyn_options;
      dyn_options.max_rounds = 16;
      const topology::dynamics_result expected =
          topology::best_response_dynamics(start, p, dyn_options);

      arena_options options;
      options.oracle = oracle_kind::brute;
      options.order = activation_order::round_robin;
      options.max_rounds = 16;
      const arena_result got = run_arena(start, p, options);

      SCOPED_TRACE(std::string(topo) + " l=" + std::to_string(l));
      EXPECT_EQ(got.outcome, expected.outcome);
      EXPECT_EQ(got.rounds, expected.rounds);
      ASSERT_EQ(got.moves.size(), expected.applied.size());
      for (std::size_t i = 0; i < got.moves.size(); ++i) {
        EXPECT_EQ(got.moves[i].dev.deviator, expected.applied[i].deviator);
        EXPECT_EQ(got.moves[i].dev.removed_peers,
                  expected.applied[i].removed_peers);
        EXPECT_EQ(got.moves[i].dev.added_peers,
                  expected.applied[i].added_peers);
        EXPECT_DOUBLE_EQ(got.moves[i].dev.gain(), expected.applied[i].gain());
      }
      EXPECT_EQ(topology::topology_fingerprint(got.state.graph()),
                topology::topology_fingerprint(expected.final_graph));
      EXPECT_EQ(topology::classify_topology(got.state.graph()),
                topology::classify_topology(expected.final_graph));
    }
  }
}

// --- provider -------------------------------------------------------------

/// U_u(g) through the arena's evaluation path: a candidate_evaluator over
/// u's owned channels with no candidate additions.
double evaluated_utility(const utility_provider& provider,
                         const graph::digraph& g, graph::node_id u) {
  const strategy_state state(g);
  return candidate_evaluator(provider, g, u, state.owned(u), {}).base_value();
}

TEST(UtilityProvider, ExactBackendMatchesNodeUtilityBitForBit) {
  // Below the threshold the evaluator sweeps every source in ascending
  // order, the float sequence of the serial sweep topology::node_utility
  // runs — so the utility must match exactly, for every node, in both
  // provider modes.
  const graph::digraph g = start_graph("ba", 24);
  const topology::game_params p = params_with_l(0.7);
  for (const provider_mode mode :
       {provider_mode::full, provider_mode::incremental}) {
    provider_options opts;
    opts.exact_threshold = 100;  // 24 <= 100: exact
    opts.threads = 4;            // must not change results
    opts.mode = mode;
    const utility_provider provider(p, opts);
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      EXPECT_EQ(evaluated_utility(provider, g, u),
                topology::node_utility(g, u, p).total)
          << provider_mode_name(mode) << " u=" << u;
    }
    EXPECT_EQ(provider.evaluations(), g.node_count());
  }
}

TEST(UtilityProvider, SampledBackendCoveringAllPivotsIsExact) {
  // sample_pivots >= population degenerates to the exact sweep
  // (graph/betweenness.h), so a "sampled" provider with enough pivots must
  // agree with the exact one even above the threshold, in both modes.
  const graph::digraph g = start_graph("ws", 30);
  const topology::game_params p = params_with_l(1.0);
  for (const provider_mode mode :
       {provider_mode::full, provider_mode::incremental}) {
    provider_options sampled;
    sampled.exact_threshold = 0;  // always sampled
    sampled.pivots = g.node_count();
    sampled.seed = 99;
    sampled.mode = mode;
    const utility_provider provider(p, sampled);
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      EXPECT_EQ(evaluated_utility(provider, g, u),
                topology::node_utility(g, u, p).total)
          << provider_mode_name(mode) << " u=" << u;
    }
  }
}

TEST(UtilityProvider, ThresholdSwitchesBackend) {
  provider_options opts;
  opts.exact_threshold = 64;
  opts.pivots = 8;
  const utility_provider provider(params_with_l(1.0), opts);
  EXPECT_EQ(provider.backend_for(64).backend,
            graph::betweenness_backend::parallel);
  EXPECT_EQ(provider.backend_for(65).backend,
            graph::betweenness_backend::sampled);
  EXPECT_EQ(provider.backend_for(65).sample_pivots, 8u);
  EXPECT_FALSE(provider.sampled_at(64));
  EXPECT_TRUE(provider.sampled_at(65));
}

TEST(UtilityProvider, RejectsDropSenderEdgesBasis) {
  // The evaluator's lanes price p_trans rows from a degree state and a slot
  // mask, which is the row only when the sender's own channels stay in the
  // ranking: the provider takes keep_sender_edges alone, and the error
  // names the basis it refused.
  topology::game_params p = params_with_l(1.0);
  p.basis = dist::rank_basis::drop_sender_edges;
  try {
    const utility_provider provider(p, provider_options{});
    ADD_FAILURE() << "drop_sender_edges was accepted";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("drop_sender_edges"),
              std::string::npos)
        << e.what();
  }
  p.basis = dist::rank_basis::keep_sender_edges;
  EXPECT_NO_THROW({ const utility_provider keep(p, provider_options{}); });
}

// --- strategy state -------------------------------------------------------

TEST(StrategyState, SeedsOwnershipAndStaysInSyncUnderMoves) {
  const graph::digraph start = start_graph("path", 8);
  strategy_state state(start);
  // A path 0-1-...-7 seeds 7 channels, each owned by its lower endpoint.
  std::size_t owned_total = 0;
  for (graph::node_id u = 0; u < state.player_count(); ++u)
    owned_total += state.owned(u).size();
  EXPECT_EQ(owned_total, 7u);
  EXPECT_EQ(state.channel_count(), 7u);
  EXPECT_EQ(topology::topology_fingerprint(state.graph()),
            topology::topology_fingerprint(state.rebuild()));

  topology::deviation dev;
  dev.deviator = 3;
  dev.removed_peers = {4};  // owned by 3
  dev.added_peers = {0, 7};
  state.apply(dev);
  EXPECT_TRUE(state.connected(3, 0));
  EXPECT_TRUE(state.connected(3, 7));
  EXPECT_FALSE(state.connected(3, 4));
  EXPECT_EQ(state.channel_count(), 8u);
  // 3 owned only 3-4 (2-3 belongs to the lower endpoint 2).
  EXPECT_EQ(state.owned(3), (std::vector<graph::node_id>{0, 7}));
  EXPECT_EQ(state.owned(2), (std::vector<graph::node_id>{3}));
  // The incremental graph and a from-scratch rebuild agree.
  EXPECT_EQ(topology::topology_fingerprint(state.graph()),
            topology::topology_fingerprint(state.rebuild()));

  // Removing a channel OWNED BY THE PEER (2 owns 2-3) updates 2's set.
  topology::deviation drop;
  drop.deviator = 3;
  drop.removed_peers = {2};
  state.apply(drop);
  EXPECT_TRUE(state.owned(2).empty());
  EXPECT_FALSE(state.connected(2, 3));
}

// --- engine determinism and dynamics --------------------------------------

TEST(ArenaEngine, SameSeedReplaysByteForByte) {
  const graph::digraph start = start_graph("ws", 32);
  const topology::game_params p = params_with_l(1.5);
  arena_options options;
  options.oracle = oracle_kind::greedy;
  options.order = activation_order::random;
  options.seed = 1234;
  options.provider.exact_threshold = 16;  // exercise the sampled path
  options.provider.pivots = 12;
  options.provider.seed = 77;

  const arena_result a = run_arena(start, p, options);
  arena_options more_threads = options;
  more_threads.provider.threads = 8;  // must not change anything
  const arena_result b = run_arena(start, p, more_threads);

  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.total_gain, b.total_gain);
  ASSERT_EQ(a.moves.size(), b.moves.size());
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    EXPECT_EQ(a.moves[i].dev.deviator, b.moves[i].dev.deviator);
    EXPECT_EQ(a.moves[i].dev.added_peers, b.moves[i].dev.added_peers);
    EXPECT_EQ(a.moves[i].dev.removed_peers, b.moves[i].dev.removed_peers);
  }
  EXPECT_EQ(topology::topology_fingerprint(a.state.graph()),
            topology::topology_fingerprint(b.state.graph()));
}

TEST(ArenaEngine, GreedyDynamicsImproveAndTerminate) {
  const graph::digraph start = start_graph("path", 20);
  const topology::game_params p = params_with_l(1.5);
  arena_options options;
  options.oracle = oracle_kind::greedy;
  const arena_result res = run_arena(start, p, options);
  EXPECT_GT(res.moves.size(), 0u);
  EXPECT_GT(res.total_gain, 0.0);
  EXPECT_GT(res.evaluations, 0u);
  EXPECT_EQ(res.outcome, topology::dynamics_outcome::converged);
  // Every applied move carried a strictly positive proposal-time gain.
  for (const arena_move& m : res.moves) EXPECT_GT(m.dev.gain(), 1e-9);
  // Terminal state invariant: ownership covers exactly the live channels.
  std::size_t owned_total = 0;
  for (graph::node_id u = 0; u < res.state.player_count(); ++u) {
    for (const graph::node_id peer : res.state.owned(u))
      EXPECT_TRUE(res.state.connected(u, peer));
    owned_total += res.state.owned(u).size();
  }
  EXPECT_EQ(owned_total, res.state.channel_count());
}

TEST(ArenaEngine, LocalOracleRespectsItsNeighbourhoodCaps) {
  const graph::digraph start = start_graph("cycle", 12);
  arena_options options;
  options.oracle = oracle_kind::local;
  options.oracle_opts.max_removed = 1;
  options.oracle_opts.max_added = 1;
  const arena_result res = run_arena(start, params_with_l(1.5), options);
  for (const arena_move& m : res.moves) {
    EXPECT_LE(m.dev.removed_peers.size(), 1u);
    EXPECT_LE(m.dev.added_peers.size(), 1u);
  }
  EXPECT_NE(res.rounds, 0u);
}

TEST(ArenaEngine, LocalOracleFromMinusInfinityPicksTheBestCandidate) {
  // Node 9 is isolated from a 9-cycle, so it cannot reach any receiver and
  // rests at U = -inf: every finite candidate's gain is +inf. The oracle
  // must still return the best candidate of its neighbourhood (by utility),
  // not the first finite one it meets.
  graph::digraph g(10);
  for (graph::node_id v = 0; v < 9; ++v) g.add_bidirectional(v, (v + 1) % 9);
  const strategy_state state(g);
  const graph::node_id mover = 9;
  oracle_options opts;
  opts.candidate_k = 4;
  opts.candidate_random = 0;
  opts.max_added = 2;
  for (const provider_mode mode :
       {provider_mode::full, provider_mode::incremental}) {
    provider_options popts;
    popts.mode = mode;
    const utility_provider provider(params_with_l(0.2), popts);
    const std::vector<double> scores = provider.node_scores(state.graph());
    // The oracle's add candidates: the top candidate_k by (score, id).
    std::vector<graph::node_id> adds(9);
    for (graph::node_id v = 0; v < 9; ++v) adds[v] = v;
    std::stable_sort(adds.begin(), adds.end(),
                     [&](graph::node_id a, graph::node_id b) {
                       return scores[a] > scores[b];
                     });
    adds.resize(opts.candidate_k);
    candidate_evaluator evaluator(provider, state.graph(), mover, {}, adds);
    EXPECT_EQ(evaluator.base_value(), -std::numeric_limits<double>::infinity());
    double best = -std::numeric_limits<double>::infinity();
    std::vector<graph::node_id> best_set;
    for (std::size_t i = 0; i < adds.size(); ++i) {
      for (std::size_t j = i; j < adds.size(); ++j) {
        std::vector<graph::node_id> set{adds[i]};
        if (j != i) set.push_back(adds[j]);
        std::sort(set.begin(), set.end());
        const double value = evaluator.evaluate(set);
        if (value > best) {
          best = value;
          best_set = set;
        }
      }
    }
    ASSERT_EQ(best_set.size(), 2u);  // one channel alone is not the best

    rng stream(1);
    const std::optional<topology::deviation> dev = propose_move(
        oracle_kind::local, state, mover, provider, opts, scores, stream);
    ASSERT_TRUE(dev.has_value()) << provider_mode_name(mode);
    EXPECT_EQ(dev->added_peers, best_set) << provider_mode_name(mode);
    EXPECT_EQ(dev->utility_after, best) << provider_mode_name(mode);
  }
}

TEST(ArenaEngine, SimultaneousOrderAppliesOnlyStructurallyValidProposals) {
  const graph::digraph start = start_graph("path", 10);
  arena_options options;
  options.oracle = oracle_kind::greedy;
  options.order = activation_order::simultaneous;
  options.seed = 5;
  const arena_result a = run_arena(start, params_with_l(1.5), options);
  const arena_result b = run_arena(start, params_with_l(1.5), options);
  // Deterministic replay, and applied <= proposed (invalidated proposals
  // are skipped, never half-applied — state.apply would throw otherwise).
  EXPECT_EQ(a.moves.size(), b.moves.size());
  EXPECT_LE(a.moves.size(), a.proposals);
  EXPECT_EQ(topology::topology_fingerprint(a.state.graph()),
            topology::topology_fingerprint(b.state.graph()));
}

TEST(ArenaEngine, OrderAndOracleNamesRoundTrip) {
  for (const auto kind :
       {oracle_kind::greedy, oracle_kind::local, oracle_kind::brute}) {
    EXPECT_EQ(oracle_from_name(oracle_name(kind)), kind);
  }
  for (const auto order :
       {activation_order::round_robin, activation_order::random,
        activation_order::simultaneous}) {
    EXPECT_EQ(order_from_name(order_name(order)), order);
  }
  EXPECT_THROW((void)oracle_from_name("exhaustive"), precondition_error);
  EXPECT_THROW((void)order_from_name("serial"), precondition_error);
}

}  // namespace
}  // namespace lcg::arena
