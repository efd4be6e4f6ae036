#include "topology/game.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/traversal.h"
#include "util/error.h"

namespace lcg::topology {

void game_params::validate() const {
  LCG_EXPECTS(a >= 0.0);
  LCG_EXPECTS(b >= 0.0);
  LCG_EXPECTS(l >= 0.0);
  LCG_EXPECTS(s >= 0.0);
  LCG_EXPECTS(cost_share > 0.0 && cost_share <= 1.0);
}

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<utility_breakdown> all_utilities(const graph::digraph& g,
                                             const game_params& params) {
  params.validate();
  const std::size_t n = g.node_count();

  // p_trans rows for every sender (modified Zipf, re-ranked on g).
  const std::vector<std::vector<double>> p =
      dist::transaction_probability_matrix(g, params.s, params.basis);

  // Revenue for all nodes in one weighted Brandes sweep:
  // weight(s, t) = b * p_trans(s, t).
  const graph::betweenness_result bw = graph::weighted_betweenness(
      g, [&p](graph::node_id s, graph::node_id t) { return p[s][t]; });

  std::vector<utility_breakdown> result(n);
  for (graph::node_id u = 0; u < n; ++u) {
    utility_breakdown& out = result[u];
    out.revenue = params.b * bw.node[u];
    out.fees = graph::expected_hop_cost(p[u], graph::bfs_distances(g, u), 1,
                                       params.a);
    out.cost = params.l * params.cost_share *
               static_cast<double>(g.out_degree(u));
    out.total = std::isinf(out.fees) ? -inf
                                     : out.revenue - out.fees - out.cost;
  }
  return result;
}

utility_breakdown node_utility(const graph::digraph& g, graph::node_id u,
                               const game_params& params) {
  params.validate();
  LCG_EXPECTS(g.has_node(u));

  const std::vector<std::vector<double>> p =
      dist::transaction_probability_matrix(g, params.s, params.basis);
  utility_breakdown out;
  out.revenue =
      params.b *
      graph::node_betweenness_of(
          g, u, [&p](graph::node_id s, graph::node_id t) { return p[s][t]; });
  out.fees = graph::expected_hop_cost(p[u], graph::bfs_distances(g, u), 1,
                                       params.a);
  out.cost =
      params.l * params.cost_share * static_cast<double>(g.out_degree(u));
  out.total = std::isinf(out.fees) ? -inf : out.revenue - out.fees - out.cost;
  return out;
}

std::vector<channel_pair> channel_pairs(const graph::digraph& g) {
  std::vector<channel_pair> pairs;
  const std::vector<graph::edge_id> partner = graph::channel_partners(g);
  for (graph::edge_id e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_active(e) || partner[e] < e) continue;
    // graphs must be channel-paired
    LCG_ENSURES(partner[e] != graph::invalid_edge);
    const graph::edge& ed = g.edge_at(e);
    pairs.push_back(channel_pair{e, partner[e], ed.src, ed.dst});
  }
  return pairs;
}

}  // namespace lcg::topology
