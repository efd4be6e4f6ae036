#include "core/utility.h"

#include <cmath>
#include <limits>
#include <numeric>

#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "pcn/rates.h"

namespace lcg::core {

utility_model::utility_model(graph::digraph host, dist::demand_model demand,
                             std::vector<double> newcomer_probs,
                             model_params params)
    : host_(std::move(host)),
      demand_(std::move(demand)),
      newcomer_probs_(std::move(newcomer_probs)),
      params_(params) {
  params_.validate();
  LCG_EXPECTS(demand_.node_count() == host_.node_count());
  LCG_EXPECTS(newcomer_probs_.size() == host_.node_count());
  const double total = std::accumulate(newcomer_probs_.begin(),
                                       newcomer_probs_.end(), 0.0);
  LCG_EXPECTS(host_.node_count() == 0 || std::abs(total - 1.0) < 1e-6);
}

utility_model::joined_network utility_model::join(const strategy& s) const {
  joined_network result;
  result.g = host_;  // copy
  result.u = result.g.add_node();
  for (const action& a : s) {
    LCG_EXPECTS(host_.has_node(a.peer));
    LCG_EXPECTS(a.lock >= 0.0);
    const double peer_side =
        params_.deposit_mode == counterparty_deposit::match ? a.lock : 0.0;
    result.g.add_bidirectional(result.u, a.peer, a.lock, peer_side);
  }
  return result;
}

double utility_model::expected_revenue(const strategy& s) const {
  if (s.empty()) return 0.0;
  const joined_network net = join(s);

  const graph::digraph* g = &net.g;
  graph::subgraph_result reduced;
  if (params_.tx_size > 0.0) {
    reduced = graph::reduced_by_capacity(net.g, params_.tx_size);
    g = &reduced.graph;
  }

  switch (params_.rev_mode) {
    case revenue_mode::node_betweenness:
      return params_.fee_avg *
             graph::node_betweenness_of(*g, net.u,
                                        demand_.weight_fn_without(net.u));
    case revenue_mode::edge_rates: {
      // Eq. (3) literal: sum lambda over u's incident directed edges.
      const graph::betweenness_result b = graph::weighted_betweenness(
          *g, demand_.weight_fn_without(net.u));
      double sum = 0.0;
      g->for_each_out(net.u,
                      [&](graph::edge_id e, const graph::edge&) { sum += b.edge[e]; });
      g->for_each_in(net.u,
                     [&](graph::edge_id e, const graph::edge&) { sum += b.edge[e]; });
      return params_.fee_avg * sum;
    }
  }
  LCG_ENSURES(false);
  return 0.0;
}

double utility_model::expected_fees(const strategy& s) const {
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (s.empty()) {
    // Disconnected: infinite distance to every node it would transact with.
    for (const double p : newcomer_probs_) {
      if (p > 0.0) return inf;
    }
    return 0.0;
  }
  const joined_network net = join(s);
  // Fee routing uses the same reduced subgraph as revenue when tx_size > 0.
  std::vector<std::int32_t> dist_from_u;
  if (params_.tx_size > 0.0) {
    const graph::subgraph_result reduced =
        graph::reduced_by_capacity(net.g, params_.tx_size);
    dist_from_u = graph::bfs_distances(reduced.graph, net.u);
  } else {
    dist_from_u = graph::bfs_distances(net.g, net.u);
  }
  return fees_from_distances(dist_from_u);
}

double utility_model::fees_from_distances(
    std::span<const std::int32_t> dist_from_u) const {
  const std::int32_t hop_offset =
      params_.fee_mode == fee_distance_mode::intermediaries ? 1 : 0;
  return graph::expected_hop_cost(newcomer_probs_, dist_from_u, hop_offset,
                                  params_.user_tx_rate * params_.fee_avg_tx);
}

double utility_model::utility(const strategy& s) const {
  const double fees = expected_fees(s);
  if (std::isinf(fees)) return -std::numeric_limits<double>::infinity();
  return expected_revenue(s) - fees - channel_costs(s);
}

double utility_model::simplified_utility(const strategy& s) const {
  const double fees = expected_fees(s);
  if (std::isinf(fees)) return -std::numeric_limits<double>::infinity();
  return expected_revenue(s) - fees;
}

double utility_model::benefit(const strategy& s) const {
  return params_.onchain_alternative_cost() + utility(s);
}

utility_model make_zipf_model(const graph::digraph& host, double zipf_s,
                              double total_rate, model_params params) {
  dist::zipf_transaction_distribution zipf(zipf_s);
  dist::demand_model demand(host, zipf, total_rate);
  std::vector<double> newcomer =
      dist::newcomer_transaction_probabilities(host, zipf_s);
  return utility_model(host, std::move(demand), std::move(newcomer), params);
}

}  // namespace lcg::core
