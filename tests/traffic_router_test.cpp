// traffic::find_route against the one-sided BFS it replaced. The router
// grows a forward and a backward ball and then walks the lexicographically
// smallest shortest usable path; that must be, edge for edge, the path the
// old first-found BFS returned. The oracle below is that BFS verbatim
// (std::queue, seen, parent_edge), with the view's beliefs re-derived from a
// snapshot the test keeps itself. The corpus runs thousands of consecutive
// queries on one view per host, so the epoch-stamped scratch is reused
// across hits, misses, refreshes and moving balances.

#include "traffic/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>

#include "graph/generators.h"
#include "util/rng.h"

namespace lcg::traffic {
namespace {

/// What the view believes: live balances when fresh, else the snapshot of
/// the last refresh (by edge id), except the sender's own edges.
struct belief {
  const pcn::network* net;
  bool fresh;
  std::vector<double> snapshot;

  void refresh() {
    if (fresh) return;
    const graph::digraph& g = net->topology();
    snapshot.resize(g.edge_slots());
    for (graph::edge_id e = 0; e < g.edge_slots(); ++e)
      snapshot[e] = g.edge_at(e).capacity;
  }
  [[nodiscard]] double believed(graph::edge_id e, graph::node_id src,
                                graph::node_id sender) const {
    if (fresh || src == sender) return net->topology().edge_at(e).capacity;
    return snapshot[e];
  }
};

/// The one-sided first-found BFS the router replaced, verbatim.
std::vector<graph::edge_id> oracle_route(
    const pcn::network& net, const balance_view& view, const belief& beliefs,
    graph::node_id sender, graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded) {
  const graph::csr_graph& c = view.frozen();
  std::vector<graph::edge_id> parent_edge(c.node_count(),
                                          graph::invalid_edge);
  std::vector<char> seen(c.node_count(), 0);
  std::queue<graph::node_id> frontier;
  seen[sender] = 1;
  frontier.push(sender);
  while (!frontier.empty() && !seen[receiver]) {
    const graph::node_id v = frontier.front();
    frontier.pop();
    for (graph::csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v);
         ++k) {
      const graph::node_id dst = c.edge_dst(k);
      if (seen[dst]) continue;
      const graph::edge_id e = c.edge_slot(k);
      if (beliefs.believed(e, v, sender) < amount) continue;
      if (std::find(excluded.begin(), excluded.end(), e) != excluded.end())
        continue;
      seen[dst] = 1;
      parent_edge[dst] = e;
      frontier.push(dst);
    }
  }
  if (!seen[receiver]) return {};
  const graph::digraph& g = net.topology();
  std::vector<graph::edge_id> route;
  graph::node_id v = receiver;
  while (v != sender) {
    const graph::edge_id e = parent_edge[v];
    route.push_back(e);
    v = g.edge_at(e).src;
  }
  std::reverse(route.begin(), route.end());
  return route;
}

/// Channels over `host`'s undirected pairs in shuffled order (so per-node
/// adjacency order is not edge-id order), random deposits (some sides
/// empty), a second parallel channel on some pairs, a few channels closed
/// (inactive slots), and `isolated` extra nodes with no channel at all.
pcn::network make_network(const graph::digraph& host, rng& gen,
                          std::size_t isolated) {
  std::vector<std::pair<graph::node_id, graph::node_id>> pairs;
  for (graph::node_id v = 0; v < host.node_count(); ++v)
    host.for_each_out(v, [&](graph::edge_id, const graph::edge& ed) {
      if (v < ed.dst) pairs.emplace_back(v, ed.dst);
    });
  for (std::size_t i = pairs.size(); i > 1; --i) {
    const auto j = gen.uniform_int(0, static_cast<std::int64_t>(i) - 1);
    std::swap(pairs[i - 1], pairs[static_cast<std::size_t>(j)]);
  }
  pcn::network net(host.node_count() + isolated);
  const auto deposit = [&] {
    return gen.bernoulli(0.15) ? 0.0 : gen.uniform_real(0.5, 10.0);
  };
  std::vector<pcn::channel_id> opened;
  for (const auto& [a, b] : pairs) {
    const int copies = gen.bernoulli(0.2) ? 2 : 1;
    for (int i = 0; i < copies; ++i) {
      double da = deposit();
      const double db = deposit();
      if (da == 0.0 && db == 0.0) da = 1.0;
      opened.push_back(gen.bernoulli(0.5) ? net.open_channel(a, b, da, db)
                                          : net.open_channel(b, a, db, da));
    }
  }
  for (const pcn::channel_id id : opened)
    if (gen.bernoulli(0.05))
      net.close_channel(id, pcn::close_mode::collaborative);
  return net;
}

/// Moves coins across a few random channels (lock + settle), so live
/// balances drift away from a stale view's snapshot.
void drift_balances(pcn::network& net, rng& gen, int moves) {
  const graph::digraph& g = net.topology();
  if (g.edge_slots() == 0) return;
  for (int i = 0; i < moves; ++i) {
    const auto e = static_cast<graph::edge_id>(
        gen.uniform_int(0, static_cast<std::int64_t>(g.edge_slots()) - 1));
    if (!g.edge_at(e).active) continue;
    const double amount = gen.uniform_real(0.1, 4.0);
    if (net.try_lock_htlc(e, amount)) net.settle_htlc(e, amount);
  }
}

struct corpus_stats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t multi_hop = 0;
};

/// `queries` consecutive queries on ONE view of `net`, each compared with
/// the oracle, with balances drifting and (stale views) periodic refreshes.
void check_host(pcn::network& net, bool fresh, rng& gen, int queries,
                const std::string& label, corpus_stats& stats) {
  balance_view view(net, fresh);
  belief beliefs{&net, fresh, {}};
  beliefs.refresh();
  const graph::digraph& g = net.topology();
  const auto n = static_cast<std::int64_t>(net.node_count());
  std::vector<graph::edge_id> previous;
  std::vector<graph::edge_id> route{7, 7, 7};  // stale contents get cleared
  for (int q = 0; q < queries; ++q) {
    if (q % 97 == 0) drift_balances(net, gen, 8);
    if (!fresh && q % 250 == 0) {
      view.refresh();
      beliefs.refresh();
    }
    const auto sender = static_cast<graph::node_id>(gen.uniform_int(0, n - 1));
    const auto receiver = gen.bernoulli(0.02)
                              ? sender
                              : static_cast<graph::node_id>(
                                    gen.uniform_int(0, n - 1));
    const double amount = gen.bernoulli(0.1) ? gen.uniform_real(8.0, 12.0)
                                             : gen.uniform_real(0.05, 5.0);
    std::vector<graph::edge_id> excluded;
    const auto drops = gen.uniform_int(0, 3);
    for (std::int64_t i = 0; i < drops && g.edge_slots() > 0; ++i)
      excluded.push_back(static_cast<graph::edge_id>(gen.uniform_int(
          0, static_cast<std::int64_t>(g.edge_slots()) - 1)));
    if (!previous.empty() && gen.bernoulli(0.5))
      excluded.push_back(previous[static_cast<std::size_t>(gen.uniform_int(
          0, static_cast<std::int64_t>(previous.size()) - 1))]);

    const std::vector<graph::edge_id> expected = oracle_route(
        net, view, beliefs, sender, receiver, amount, excluded);
    find_route(view, sender, receiver, amount, excluded, route);
    ASSERT_EQ(route, expected)
        << label << " query " << q << ": " << sender << " -> " << receiver
        << " amount " << amount << " excluded " << excluded.size();
    ASSERT_EQ(find_route(net, view, sender, receiver, amount, excluded),
              expected)
        << label << " query " << q << " (by-value form)";

    (route.empty() ? stats.misses : stats.hits) += 1;
    if (route.size() > 1) ++stats.multi_hop;
    if (!route.empty()) previous = route;
  }
}

struct host_case {
  std::string name;
  graph::digraph host;
};

std::vector<host_case> hosts(rng& gen) {
  std::vector<host_case> out;
  out.push_back({"ws", graph::watts_strogatz(80, 2, 0.2, gen)});
  out.push_back({"ba", graph::barabasi_albert(90, 2, gen)});
  out.push_back({"er", graph::erdos_renyi(70, 0.05, gen)});
  out.push_back({"path", graph::path_graph(40)});
  out.push_back({"cycle", graph::cycle_graph(45)});
  out.push_back({"grid", graph::grid_graph(7, 9)});
  out.push_back({"star", graph::star_graph(30)});
  out.push_back({"pair", graph::path_graph(2)});
  return out;
}

TEST(TrafficRouter, MatchesOneSidedBfsOnEveryQuery) {
  rng gen(20230713);
  corpus_stats total;
  for (host_case& h : hosts(gen)) {
    for (const bool fresh : {true, false}) {
      pcn::network net = make_network(h.host, gen, /*isolated=*/2);
      const std::string label = h.name + (fresh ? "/fresh" : "/stale");
      corpus_stats s;
      check_host(net, fresh, gen, 2500, label, s);
      if (HasFatalFailure()) return;
      EXPECT_GT(s.hits, 0u) << label;
      EXPECT_GT(s.misses, 0u) << label;
      total.hits += s.hits;
      total.misses += s.misses;
      total.multi_hop += s.multi_hop;
    }
  }
  // The corpus must exercise long routes, not just direct channels.
  EXPECT_GT(total.multi_hop, total.hits / 2);
}

TEST(TrafficRouter, StaleViewUsesSendersLiveEdges) {
  // 0 - 1 - 2 with 1 -> 2 drained after the snapshot: 0 still believes
  // the old balance and routes through it, 1 sees its own channel live and
  // finds nothing, and after a refresh nobody routes over it.
  pcn::network net(3);
  net.open_channel(0, 1, 5.0, 5.0);
  const pcn::channel_id c12 = net.open_channel(1, 2, 5.0, 5.0);
  balance_view view(net, /*fresh=*/false);
  const graph::edge_id e12 = net.channel_at(c12).edge_ab;
  ASSERT_TRUE(net.try_lock_htlc(e12, 4.0));
  net.settle_htlc(e12, 4.0);  // 1 -> 2 now holds 1.0 live, 5.0 believed
  std::vector<graph::edge_id> route;
  find_route(view, 0, 2, 3.0, {}, route);
  EXPECT_EQ(route.size(), 2u);
  find_route(view, 1, 2, 3.0, {}, route);
  EXPECT_TRUE(route.empty());
  view.refresh();
  find_route(view, 0, 2, 3.0, {}, route);
  EXPECT_TRUE(route.empty());
}

TEST(TrafficRouter, CountsEdgesExamined) {
  pcn::network net(4);
  for (graph::node_id v = 0; v + 1 < 4; ++v) net.open_channel(v, v + 1, 2, 2);
  balance_view view(net, /*fresh=*/true);
  EXPECT_EQ(view.route_scans(), 0u);
  std::vector<graph::edge_id> route;
  find_route(view, 0, 3, 1.0, {}, route);
  EXPECT_EQ(route.size(), 3u);
  const std::uint64_t hit = view.route_scans();
  EXPECT_GT(hit, 0u);
  find_route(view, 2, 2, 1.0, {}, route);  // sender == receiver: no search
  EXPECT_TRUE(route.empty());
  EXPECT_EQ(view.route_scans(), hit);
}

}  // namespace
}  // namespace lcg::traffic
