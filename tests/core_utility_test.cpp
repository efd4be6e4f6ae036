#include "core/utility.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <string>

#include "core/objective.h"
#include "core/rate_estimator.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcg::core {
namespace {

constexpr double kTol = 1e-9;

/// Host: star with centre 0 and leaves 1..3. Uniform demand, each sender
/// rate 1. Newcomer transacts uniformly with all four host nodes.
utility_model star_model(model_params params) {
  const graph::digraph host = graph::star_graph(3);
  const dist::uniform_transaction_distribution uniform;
  dist::demand_model demand(host, uniform, 4.0);
  std::vector<double> newcomer(4, 0.25);
  return utility_model(host, std::move(demand), std::move(newcomer), params);
}

model_params base_params() {
  model_params p;
  p.onchain_cost = 1.0;
  p.opportunity_rate = 0.1;
  p.fee_avg = 1.0;
  p.fee_avg_tx = 1.0;
  p.user_tx_rate = 2.0;
  p.deposit_mode = counterparty_deposit::match;
  return p;
}

TEST(UtilityModel, EmptyStrategyIsDisconnected) {
  const utility_model m = star_model(base_params());
  EXPECT_TRUE(std::isinf(m.expected_fees({})));
  EXPECT_EQ(m.utility({}), -std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(m.expected_revenue({}), 0.0);
}

TEST(UtilityModel, SingleChannelToCenterHandComputed) {
  const utility_model m = star_model(base_params());
  const strategy s{{0, 5.0}};
  // A leaf routes nothing.
  EXPECT_NEAR(m.expected_revenue(s), 0.0, kTol);
  // Distances: centre 1, each leaf 2; p = 0.25 each; N_u * f^T = 2.
  EXPECT_NEAR(m.expected_fees(s), 2.0 * (1 * 0.25 + 3 * 2 * 0.25), kTol);
  EXPECT_NEAR(m.channel_costs(s), 1.0 + 0.1 * 5.0, kTol);
  EXPECT_NEAR(m.utility(s), 0.0 - 3.5 - 1.5, kTol);
  // Benefit adds C_u = N_u * C / 2 = 1.
  EXPECT_NEAR(m.benefit(s), 1.0 - 5.0, kTol);
  EXPECT_NEAR(m.simplified_utility(s), -3.5, kTol);
}

TEST(UtilityModel, TwoLeafChannelsEarnSplitRevenue) {
  const utility_model m = star_model(base_params());
  const strategy s{{1, 1.0}, {2, 1.0}};
  // Ordered pair (1,2)/(2,1): two shortest paths (via centre, via u);
  // u carries 1/2 of each; weight = 1 * 1/3 -> E_rev = 2 * (1/3) * 1/2.
  EXPECT_NEAR(m.expected_revenue(s), 1.0 / 3.0, kTol);
  // Distances from u: leaf1 1, leaf2 1, centre 2, leaf3 3.
  EXPECT_NEAR(m.expected_fees(s), 2.0 * 0.25 * (1 + 1 + 2 + 3), kTol);
}

TEST(UtilityModel, EdgeRateModeDoubleCountsThroughTraffic) {
  model_params p = base_params();
  const utility_model node_mode = star_model(p);
  p.rev_mode = revenue_mode::edge_rates;
  const utility_model edge_mode = star_model(p);
  const strategy s{{1, 1.0}, {2, 1.0}};
  // Eq. (3) literal counts each forwarded tx on the in-edge and out-edge.
  EXPECT_NEAR(edge_mode.expected_revenue(s),
              2.0 * node_mode.expected_revenue(s), kTol);
}

TEST(UtilityModel, IntermediariesFeeModeSubtractsOneHop) {
  model_params p = base_params();
  p.fee_mode = fee_distance_mode::intermediaries;
  const utility_model m = star_model(p);
  const strategy s{{0, 5.0}};
  // (d - 1): centre 0, leaves 1 -> 2 * (0 * .25 + 3 * 1 * .25) = 1.5.
  EXPECT_NEAR(m.expected_fees(s), 1.5, kTol);
}

TEST(UtilityModel, CapacityReductionBlocksSmallChannels) {
  model_params p = base_params();
  p.tx_size = 2.0;
  const utility_model m = star_model(p);
  // Host edges have capacity 1 < tx_size: routing beyond direct channels is
  // impossible, fees are infinite.
  const strategy s{{0, 5.0}};
  EXPECT_TRUE(std::isinf(m.expected_fees(s)));
  // Connecting to everything makes all nodes directly reachable again.
  const strategy all{{0, 5.0}, {1, 5.0}, {2, 5.0}, {3, 5.0}};
  EXPECT_FALSE(std::isinf(m.expected_fees(all)));
}

TEST(UtilityModel, CounterpartyDepositModeAffectsReducedGraph) {
  model_params p = base_params();
  p.tx_size = 2.0;
  p.deposit_mode = counterparty_deposit::none;
  const utility_model m = star_model(p);
  // Without a counterparty deposit the v->u direction has zero capacity, so
  // u cannot receive or be routed through; but u -> v works: distances via
  // outgoing edges still exist if the rest of the graph carries tx_size.
  // Host capacities are 1 < 2, so only u's own locked edges survive.
  const strategy all{{0, 5.0}, {1, 5.0}, {2, 5.0}, {3, 5.0}};
  EXPECT_FALSE(std::isinf(m.expected_fees(all)));  // direct u->v edges
  EXPECT_NEAR(m.expected_revenue(all), 0.0, kTol);  // nothing enters u
}

TEST(UtilityModel, JoinBuildsExpectedTopology) {
  const utility_model m = star_model(base_params());
  const strategy s{{0, 3.0}, {2, 1.5}};
  const auto joined = m.join(s);
  EXPECT_EQ(joined.g.node_count(), 5u);
  EXPECT_EQ(joined.u, 4u);
  EXPECT_NE(joined.g.find_edge(joined.u, 0), graph::invalid_edge);
  EXPECT_NE(joined.g.find_edge(2, joined.u), graph::invalid_edge);
  EXPECT_EQ(joined.g.find_edge(joined.u, 1), graph::invalid_edge);
  const graph::edge_id out = joined.g.find_edge(joined.u, 0);
  EXPECT_DOUBLE_EQ(joined.g.edge_at(out).capacity, 3.0);
}

TEST(UtilityModel, MakeZipfModelWiresDistributions) {
  const graph::digraph host = graph::star_graph(4);
  const utility_model m = make_zipf_model(host, 1.0, 5.0, base_params());
  // Newcomer probability mass concentrates on the centre.
  const auto& probs = m.newcomer_probabilities();
  EXPECT_GT(probs[0], probs[1]);
  double total = 0.0;
  for (const double p : probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(UtilityModel, RejectsInvalidConstruction) {
  const graph::digraph host = graph::star_graph(3);
  const dist::uniform_transaction_distribution uniform;
  dist::demand_model demand(host, uniform, 4.0);
  std::vector<double> bad_probs(4, 0.5);  // sums to 2
  EXPECT_THROW(
      utility_model(host, demand, bad_probs, base_params()),
      precondition_error);
}

TEST(UtilityModel, StrategyHelpers) {
  const model_params p = base_params();
  const strategy s{{0, 5.0}, {1, 3.0}};
  EXPECT_NEAR(strategy_cost(p, s), (1.0 + 0.5) + (1.0 + 0.3), kTol);
  EXPECT_TRUE(within_budget(p, s, 10.0));   // capital = 2C + 8 = 10
  EXPECT_FALSE(within_budget(p, s, 9.9));
  EXPECT_EQ(max_channels(p, 10.0, 4.0), 2u);
  EXPECT_EQ(max_channels(p, 0.5, 4.0), 0u);
}

// --- estimated_objective's fee path vs the reference ---------------------
//
// The objective computes E_fees from cached per-peer host BFS rows
// (d(u, v) = 1 + min over kept peers of d_H(w, v)); the reference copies the
// host, joins u and runs one BFS. Both end in fees_from_distances, so they
// must agree bit for bit, infinities included.

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// A BA or ER host with mixed per-direction capacities (so a tx_size
/// reduction cuts some host edges), one removed edge pair, and a trailing
/// isolated node. Receiver probabilities are random with zeros mixed in;
/// the isolated node's probability is `isolated_p` before normalising.
utility_model fee_model(bool barabasi, std::uint64_t seed, double isolated_p,
                        model_params params) {
  rng gen(seed);
  constexpr std::size_t n = 24;
  const graph::digraph shape = barabasi ? graph::barabasi_albert(n, 2, gen)
                                        : graph::erdos_renyi(n, 0.15, gen);
  const double caps[] = {0.5, 1.0, 2.0, 3.0};
  graph::digraph host(n + 1);
  for (graph::edge_id e = 0; e < shape.edge_slots(); ++e) {
    const graph::edge& ed = shape.edge_at(e);
    host.add_edge(ed.src, ed.dst, caps[gen.uniform_int(0, 3)]);
  }
  host.remove_edge(0);
  std::vector<double> probs(n + 1, 0.0);
  for (graph::node_id v = 0; v < n; ++v)
    probs[v] = gen.bernoulli(0.25) ? 0.0 : gen.uniform_real(0.1, 1.0);
  probs[n] = isolated_p;
  double total = 0.0;
  for (const double p : probs) total += p;
  for (double& p : probs) p /= total;
  const dist::uniform_transaction_distribution uniform;
  dist::demand_model demand(host, uniform, 10.0);
  return utility_model(std::move(host), std::move(demand), std::move(probs),
                       params);
}

/// Random strategies of 0..5 actions over every host node, repeating a
/// peer now and then, with locks below, equal to and above tx_size.
std::vector<strategy> random_strategies(const utility_model& m,
                                        std::uint64_t seed) {
  rng gen(seed);
  const auto last = static_cast<std::int64_t>(m.host().node_count()) - 1;
  const double x = m.params().tx_size;
  const double locks[] = {0.0, 0.5 * x, x, x + 0.5, 2.0 * x + 1.0};
  std::vector<strategy> out;
  for (int i = 0; i < 60; ++i) {
    strategy s;
    const std::int64_t size = gen.uniform_int(0, 5);
    for (std::int64_t k = 0; k < size; ++k) {
      const bool repeat = !s.empty() && gen.bernoulli(0.2);
      const graph::node_id peer =
          repeat ? s.front().peer
                 : static_cast<graph::node_id>(gen.uniform_int(0, last));
      s.push_back({peer, locks[gen.uniform_int(0, 4)]});
    }
    out.push_back(std::move(s));
  }
  return out;
}

TEST(ObjectiveFees, MatchReferenceBitForBit) {
  std::size_t finite = 0, infinite = 0, isolated_peer_finite = 0;
  for (const bool barabasi : {true, false}) {
    for (const double isolated_p : {0.0, 0.3}) {
      for (const double tx_size : {0.0, 1.0}) {
        for (const auto fee_mode : {fee_distance_mode::path_length,
                                    fee_distance_mode::intermediaries}) {
          for (const auto deposit :
               {counterparty_deposit::match, counterparty_deposit::none}) {
            model_params p = base_params();
            p.tx_size = tx_size;
            p.fee_mode = fee_mode;
            p.deposit_mode = deposit;
            const std::uint64_t seed = barabasi ? 11 : 12;
            const utility_model m = fee_model(barabasi, seed, isolated_p, p);
            degree_share_rate_estimator est(m);
            const estimated_objective obj(m, est);
            for (const strategy& s : random_strategies(m, seed + 100)) {
              const double reference = m.expected_fees(s);
              ASSERT_EQ(bits(obj.fees(s)), bits(reference))
                  << "tx_size " << tx_size << ", " << s.size() << " actions";
              if (std::isinf(reference)) {
                ++infinite;
                EXPECT_EQ(obj.simplified(s),
                          -std::numeric_limits<double>::infinity());
                continue;
              }
              ++finite;
              if (isolated_p > 0.0) ++isolated_peer_finite;
              double rate = 0.0;
              for (const action& a : s) rate += est.estimate(a.peer, a.lock);
              EXPECT_EQ(bits(obj.simplified(s)),
                        bits(rate * p.fee_avg - reference));
            }
            EXPECT_EQ(bits(obj.fees({})), bits(m.expected_fees({})));
          }
        }
      }
    }
  }
  // Both outcomes are exercised: the isolated receiver with p > 0, and
  // reductions that cut every path, give the infinite ones; a strategy
  // that peers with the isolated receiver reaches it.
  EXPECT_GT(finite, 100u);
  EXPECT_GT(infinite, 100u);
  EXPECT_GT(isolated_peer_finite, 0u);
}

TEST(ObjectiveFees, EvaluationOrderChangesNoResult) {
  model_params p = base_params();
  p.tx_size = 1.0;
  const utility_model m = fee_model(false, 9, 0.0, p);
  degree_share_rate_estimator est(m);
  const estimated_objective forward(m, est);
  const estimated_objective backward(m, est);
  const std::vector<strategy> all = random_strategies(m, 77);
  std::vector<double> backward_fees(all.size());
  for (std::size_t i = all.size(); i-- > 0;)
    backward_fees[i] = backward.fees(all[i]);
  std::vector<graph::node_id> kept_peers;
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(bits(forward.fees(all[i])), bits(backward_fees[i])) << i;
    for (const action& a : all[i])
      if (a.lock >= p.tx_size) kept_peers.push_back(a.peer);
  }
  // Rows are filled lazily, once per distinct peer of a kept action.
  std::sort(kept_peers.begin(), kept_peers.end());
  kept_peers.erase(std::unique(kept_peers.begin(), kept_peers.end()),
                   kept_peers.end());
  EXPECT_EQ(forward.fee_rows(), kept_peers.size());
  EXPECT_EQ(backward.fee_rows(), kept_peers.size());
  // fees() is not an objective evaluation.
  EXPECT_EQ(forward.evaluations(), 0u);
}

TEST(ObjectiveFees, PreconditionsMatchReferenceInOrder) {
  const utility_model m = fee_model(true, 3, 0.0, base_params());
  degree_share_rate_estimator est(m);
  const estimated_objective obj(m, est);
  const auto outside = static_cast<graph::node_id>(m.host().node_count());
  // The first failing action decides, peer before lock, on both paths.
  const auto failed_check = [](const auto& fees) {
    try {
      (void)fees();
    } catch (const precondition_error& e) {
      const std::string what = e.what();
      if (what.find("has_node") != std::string::npos) return "peer";
      if (what.find("lock") != std::string::npos) return "lock";
      return "other";
    }
    return "none";
  };
  for (const strategy& s : {strategy{{0, 1.0}, {outside, -1.0}},
                            strategy{{0, -1.0}, {outside, 1.0}},
                            strategy{{outside, 1.0}}, strategy{{2, -0.5}}}) {
    const std::string expected = s[0].lock < 0.0 ? "lock" : "peer";
    EXPECT_EQ(failed_check([&] { return m.expected_fees(s); }), expected);
    EXPECT_EQ(failed_check([&] { return obj.fees(s); }), expected);
    EXPECT_EQ(failed_check([&] { return obj.benefit(s); }), expected);
  }
}

}  // namespace
}  // namespace lcg::core
