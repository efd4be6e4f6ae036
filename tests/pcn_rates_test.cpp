#include "pcn/rates.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace lcg::pcn {
namespace {

constexpr double kTol = 1e-9;

dist::demand_model uniform_demand(const graph::digraph& g, double total) {
  const dist::uniform_transaction_distribution u;
  return dist::demand_model(g, u, total);
}

TEST(EdgeRates, PathGraphHandComputed) {
  // 0 - 1 - 2, uniform demand, each sender rate 1 (total 3).
  // Edge (0,1): pairs (0,1) and (0,2), each weight 1 * 1/2 -> rate 1.
  const graph::digraph g = graph::path_graph(3);
  const auto demand = uniform_demand(g, 3.0);
  const rate_result rates = edge_transaction_rates(g, demand);
  EXPECT_NEAR(rates.edge_rate[g.find_edge(0, 1)], 1.0, kTol);
  EXPECT_NEAR(rates.edge_rate[g.find_edge(1, 2)], 1.0, kTol);
  EXPECT_NEAR(rates.edge_rate[g.find_edge(1, 0)], 1.0, kTol);
  EXPECT_NEAR(rates.unroutable_rate, 0.0, kTol);
}

TEST(EdgeRates, TotalFlowConservation) {
  // Sum over edges of rate == sum over pairs of weight * distance
  // (each transaction crosses d(s,r) edges).
  rng gen(5);
  const graph::digraph g = graph::erdos_renyi(10, 0.4, gen);
  const auto demand = uniform_demand(g, 10.0);
  const rate_result rates = edge_transaction_rates(g, demand);

  double total_edge_rate = 0.0;
  for (const double r : rates.edge_rate) total_edge_rate += r;

  double expected = 0.0;
  for (graph::node_id s = 0; s < g.node_count(); ++s) {
    const auto dist = graph::bfs_distances(g, s);
    for (graph::node_id r = 0; r < g.node_count(); ++r) {
      if (s == r || dist[r] == graph::unreachable) continue;
      expected += demand.pair_weight(s, r) * dist[r];
    }
  }
  EXPECT_NEAR(total_edge_rate, expected, 1e-7);
}

TEST(EdgeRates, CapacityReductionDropsEdges) {
  graph::digraph g(3);
  g.add_bidirectional(0, 1, 10.0, 10.0);
  g.add_bidirectional(1, 2, 0.5, 10.0);  // direction 1->2 too small for x=1
  const auto demand = uniform_demand(g, 3.0);
  const rate_result rates = edge_transaction_rates(g, demand, 1.0);
  EXPECT_NEAR(rates.edge_rate[g.find_edge(1, 2)], 0.0, kTol);
  // Demand (0->2) and (1->2) cannot be routed: weight 2 * 1/2 = 1.
  EXPECT_NEAR(rates.unroutable_rate, 1.0, kTol);
  // The reverse direction still carries its flow.
  EXPECT_GT(rates.edge_rate[g.find_edge(2, 1)], 0.0);
}

TEST(EdgeRates, ZipfWeightsBiasTowardHighDegree) {
  // Star: all leaf pairs route through the centre; with a Zipf demand most
  // traffic goes leaf -> centre directly (distance 1), so centre-adjacent
  // edges carry everything.
  const graph::digraph g = graph::star_graph(4);
  const dist::zipf_transaction_distribution zipf(2.0);
  const dist::demand_model demand(g, zipf, 4.0);
  const rate_result rates = edge_transaction_rates(g, demand);
  // Every leaf sends mostly to the centre; edge (leaf, centre) rate must
  // dominate edge (centre, leaf).
  const double leaf_to_center = rates.edge_rate[g.find_edge(1, 0)];
  const double center_to_leaf = rates.edge_rate[g.find_edge(0, 1)];
  EXPECT_GT(leaf_to_center, center_to_leaf);
}

TEST(NodeThroughRate, StarCenter) {
  // Star with 3 leaves, uniform demand, sender rate 1: ordered leaf pairs
  // 3 * 2 = 6, each weight 1/3 -> through rate 2.
  const graph::digraph g = graph::star_graph(3);
  const auto demand = uniform_demand(g, 4.0);
  EXPECT_NEAR(node_through_rate(g, demand, 0), 2.0, kTol);
  EXPECT_NEAR(node_through_rate(g, demand, 1), 0.0, kTol);
}

TEST(NodeThroughRate, CapacityReductionApplies) {
  graph::digraph g(3);
  g.add_bidirectional(0, 1, 10.0, 10.0);
  g.add_bidirectional(1, 2, 10.0, 10.0);
  const auto demand = uniform_demand(g, 3.0);
  EXPECT_GT(node_through_rate(g, demand, 1), 0.0);
  // With tx size above every capacity nothing routes.
  EXPECT_NEAR(node_through_rate(g, demand, 1, 100.0), 0.0, kTol);
}

}  // namespace
}  // namespace lcg::pcn
