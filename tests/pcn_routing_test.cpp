// Routing extensions: fee-weighted (cheapest) paths and uniform tie-break
// sampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <queue>
#include <string>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "pcn/network.h"

namespace lcg::pcn {
namespace {

TEST(CheapestRouting, AvoidsExpensiveIntermediary) {
  // Two 2-hop routes 0->{1,2}->3; node 1 charges 1.0, node 2 charges 0.1.
  network net(4);
  net.open_channel(0, 1, 10.0, 10.0);
  net.open_channel(1, 3, 10.0, 10.0);
  net.open_channel(0, 2, 10.0, 10.0);
  net.open_channel(2, 3, 10.0, 10.0);
  const dist::constant_fee pricey(1.0);
  const dist::constant_fee cheap(0.1);
  const std::vector<const dist::fee_function*> node_fees{nullptr, &pricey,
                                                         &cheap, nullptr};
  const payment_result res =
      net.execute_payment_cheapest(0, 3, 2.0, node_fees);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.path, (std::vector<graph::node_id>{0, 2, 3}));
  EXPECT_DOUBLE_EQ(res.total_fee, 0.1);
  EXPECT_DOUBLE_EQ(net.fees_earned(2), 0.1);
  EXPECT_DOUBLE_EQ(net.fees_earned(1), 0.0);
}

TEST(CheapestRouting, TakesLongerPathWhenFeesJustifyIt) {
  // Direct 2-hop route through a 5.0-fee hub vs a 3-hop route through two
  // 0.5-fee nodes: the longer route costs 1.0 < 5.0.
  network net(5);
  net.open_channel(0, 1, 10.0, 10.0);  // hub route
  net.open_channel(1, 4, 10.0, 10.0);
  net.open_channel(0, 2, 10.0, 10.0);  // detour
  net.open_channel(2, 3, 10.0, 10.0);
  net.open_channel(3, 4, 10.0, 10.0);
  const dist::constant_fee hub_fee(5.0);
  const dist::constant_fee small_fee(0.5);
  const std::vector<const dist::fee_function*> node_fees{
      nullptr, &hub_fee, &small_fee, &small_fee, nullptr};
  const payment_result res =
      net.execute_payment_cheapest(0, 4, 1.0, node_fees);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.path, (std::vector<graph::node_id>{0, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(res.total_fee, 1.0);
}

TEST(CheapestRouting, UniformFeeOverloadMatchesShortestHops) {
  network net(4);
  net.open_channel(0, 1, 10.0, 10.0);
  net.open_channel(1, 3, 10.0, 10.0);
  net.open_channel(0, 2, 10.0, 10.0);
  net.open_channel(2, 3, 10.0, 10.0);
  const dist::constant_fee fee(0.5);
  const payment_result res = net.execute_payment_cheapest(0, 3, 1.0, fee);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.intermediaries(), 1u);  // a 2-hop route, either one
  EXPECT_DOUBLE_EQ(res.total_fee, 0.5);
}

TEST(CheapestRouting, RespectsCapacity) {
  // The cheap route lacks capacity: fall back to the pricier feasible one.
  network net(4);
  net.open_channel(0, 1, 10.0, 10.0);
  net.open_channel(1, 3, 10.0, 10.0);
  net.open_channel(0, 2, 0.5, 10.0);  // cannot carry 2.0
  net.open_channel(2, 3, 10.0, 10.0);
  const dist::constant_fee pricey(1.0);
  const dist::constant_fee cheap(0.1);
  const std::vector<const dist::fee_function*> node_fees{nullptr, &pricey,
                                                         &cheap, nullptr};
  const payment_result res =
      net.execute_payment_cheapest(0, 3, 2.0, node_fees);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res.path, (std::vector<graph::node_id>{0, 1, 3}));
}

TEST(CheapestRouting, ReportsErrors) {
  network net(3);
  net.open_channel(0, 1, 1.0, 1.0);
  const dist::constant_fee fee(0.1);
  EXPECT_EQ(net.execute_payment_cheapest(0, 0, 1.0, fee).error,
            payment_error::same_endpoints);
  EXPECT_EQ(net.execute_payment_cheapest(0, 2, 1.0, fee).error,
            payment_error::no_feasible_path);
  EXPECT_EQ(net.execute_payment_cheapest(0, 1, -1.0, fee).error,
            payment_error::non_positive_amount);
}

TEST(TieBreakRouting, SamplesBothShortestPathsEvenly) {
  // Diamond 0 -> {1, 2} -> 3 with equal hops: the random tie-breaker must
  // route through both intermediaries roughly half the time.
  network net(4);
  net.open_channel(0, 1, 1e9, 1e9);
  net.open_channel(1, 3, 1e9, 1e9);
  net.open_channel(0, 2, 1e9, 1e9);
  net.open_channel(2, 3, 1e9, 1e9);
  rng tie(123);
  std::map<graph::node_id, int> via;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    const payment_result res =
        net.execute_payment(0, 3, 1.0, nullptr, &tie);
    ASSERT_TRUE(res.ok());
    ++via[res.path[1]];
    // Send it back to keep balances symmetric.
    ASSERT_TRUE(net.execute_payment(3, 0, 1.0, nullptr, &tie).ok());
  }
  EXPECT_NEAR(via[1], trials / 2, trials * 0.06);
  EXPECT_NEAR(via[2], trials / 2, trials * 0.06);
}

TEST(TieBreakRouting, UnevenPathCountsWeightSampling) {
  // 0 -> 3 via 1 (one route) or via {2a, 2b} -> ... build: 0->1->4, and
  // 0->2->4, 0->3->4: three 2-hop routes; each should get ~1/3.
  network net(5);
  net.open_channel(0, 1, 1e9, 1e9);
  net.open_channel(1, 4, 1e9, 1e9);
  net.open_channel(0, 2, 1e9, 1e9);
  net.open_channel(2, 4, 1e9, 1e9);
  net.open_channel(0, 3, 1e9, 1e9);
  net.open_channel(3, 4, 1e9, 1e9);
  rng tie(7);
  std::map<graph::node_id, int> via;
  const int trials = 3000;
  for (int i = 0; i < trials; ++i) {
    const payment_result res =
        net.execute_payment(0, 4, 1.0, nullptr, &tie);
    ASSERT_TRUE(res.ok());
    ++via[res.path[1]];
    ASSERT_TRUE(net.execute_payment(4, 0, 1.0, nullptr, &tie).ok());
  }
  for (const graph::node_id mid : {1u, 2u, 3u}) {
    EXPECT_NEAR(via[mid], trials / 3, trials * 0.06) << mid;
  }
}

/// The sigma-weighted sampler execute_payment used before it ran on
/// graph/traversal's body, verbatim: a path-counting BFS over the edges
/// with capacity >= amount that stops once the receiver's level is
/// settled, then a backward walk drawing each predecessor edge in
/// proportion to its tail's sigma.
std::vector<graph::edge_id> oracle_sample(const graph::digraph& g_,
                                          graph::node_id sender,
                                          graph::node_id receiver,
                                          double amount, rng* tie_breaker) {
  const std::size_t n = g_.node_count();
  std::vector<std::int32_t> dist(n, graph::unreachable);
  std::vector<double> sigma(n, 0.0);
  std::vector<std::vector<graph::edge_id>> pred(n);
  std::queue<graph::node_id> frontier;
  dist[sender] = 0;
  sigma[sender] = 1.0;
  frontier.push(sender);
  while (!frontier.empty()) {
    const graph::node_id v = frontier.front();
    frontier.pop();
    if (dist[receiver] != graph::unreachable && dist[v] >= dist[receiver])
      break;  // receiver level fully settled
    g_.for_each_out(v, [&](graph::edge_id e, const graph::edge& ed) {
      if (ed.capacity < amount) return;
      if (dist[ed.dst] == graph::unreachable) {
        dist[ed.dst] = dist[v] + 1;
        frontier.push(ed.dst);
      }
      if (dist[ed.dst] == dist[v] + 1) {
        sigma[ed.dst] += sigma[v];
        pred[ed.dst].push_back(e);
      }
    });
  }
  if (dist[receiver] == graph::unreachable) return {};
  std::vector<graph::edge_id> path;
  graph::node_id v = receiver;
  std::vector<double> weights;
  while (v != sender) {
    weights.clear();
    for (const graph::edge_id e : pred[v])
      weights.push_back(sigma[g_.edge_at(e).src]);
    const graph::edge_id e =
        pred[v][tie_breaker->discrete(weights)];
    path.push_back(e);
    v = g_.edge_at(e).src;
  }
  std::reverse(path.begin(), path.end());
  return path;
}

/// A channel per undirected pair of `host`, with random deposits (some
/// sides empty) and a second parallel channel on some pairs.
network random_network(const graph::digraph& host, rng& gen) {
  network net(host.node_count());
  const auto deposit = [&] {
    return gen.bernoulli(0.15) ? 0.0 : gen.uniform_real(0.5, 10.0);
  };
  for (graph::node_id v = 0; v < host.node_count(); ++v)
    host.for_each_out(v, [&](graph::edge_id, const graph::edge& ed) {
      if (v > ed.dst) return;
      const int copies = gen.bernoulli(0.2) ? 2 : 1;
      for (int i = 0; i < copies; ++i) {
        const double da = deposit();
        const double db = deposit();
        net.open_channel(v, ed.dst, da == 0.0 && db == 0.0 ? 1.0 : da, db);
      }
    });
  return net;
}

TEST(TieBreakRouting, MatchesVerbatimSamplerOnEveryPayment) {
  // The library pays on `net`; the oracle picks the route on `twin` and
  // pays it with execute_route. Both tie-breakers share a seed, so equal
  // routes on every payment also leave the two rng streams in step.
  rng gen(20231014);
  std::vector<std::pair<std::string, graph::digraph>> hosts;
  hosts.emplace_back("ws", graph::watts_strogatz(80, 2, 0.2, gen));
  hosts.emplace_back("ba", graph::barabasi_albert(90, 2, gen));
  hosts.emplace_back("er", graph::erdos_renyi(70, 0.06, gen));
  hosts.emplace_back("grid", graph::grid_graph(8, 9));
  std::size_t delivered = 0, failed = 0, sampled = 0;
  for (const auto& [name, host] : hosts) {
    network net = random_network(host, gen);
    network twin = net;
    rng tie(gen.uniform_int(0, 1 << 30));
    rng twin_tie = tie;
    const auto n = static_cast<std::int64_t>(host.node_count());
    for (int i = 0; i < 3000; ++i) {
      const auto s = static_cast<graph::node_id>(gen.uniform_int(0, n - 1));
      auto r = static_cast<graph::node_id>(gen.uniform_int(0, n - 2));
      if (r >= s) ++r;
      const double amount = gen.uniform_real(0.05, 6.0);
      const payment_result got = net.execute_payment(s, r, amount, nullptr, &tie);
      const std::vector<graph::edge_id> want =
          oracle_sample(twin.topology(), s, r, amount, &twin_tie);
      ASSERT_EQ(got.edges, want) << name << " payment " << i << ": " << s
                                 << " -> " << r << " amount " << amount;
      if (want.empty()) {
        ASSERT_EQ(got.error, payment_error::no_feasible_path);
        ++failed;
        continue;
      }
      ASSERT_TRUE(twin.execute_route(s, want, amount).ok()) << name;
      ++delivered;
      if (want.size() > 1) ++sampled;
    }
    EXPECT_EQ(tie(), twin_tie()) << name;
  }
  EXPECT_GT(delivered, 6000u);
  EXPECT_GT(failed, 0u);
  EXPECT_GT(sampled, delivered / 2);
}

}  // namespace
}  // namespace lcg::pcn
