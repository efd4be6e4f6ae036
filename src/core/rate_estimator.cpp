#include "core/rate_estimator.h"

#include <algorithm>
#include <string>

#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/properties.h"

namespace lcg::core {

namespace {

double capacity_discount(const dist::tx_size_distribution* sizes,
                         double lock) {
  return sizes ? sizes->cdf(lock) : 1.0;
}

}  // namespace

double rate_estimator::estimate(graph::node_id v, double lock) {
  ++calls_;
  return do_estimate(v, lock);
}

full_connection_rate_estimator::full_connection_rate_estimator(
    const utility_model& model, std::span<const graph::node_id> candidates,
    const dist::tx_size_distribution* sizes,
    const graph::betweenness_options& options)
    : sizes_(sizes) {
  // Join u to every candidate and run one weighted Brandes sweep. A
  // forwarded transaction crosses u exactly once: it enters on one
  // candidate edge and leaves on another. Attributing (in + out)/2 to each
  // channel keeps the attribution symmetric and preserves the invariant
  // sum over all candidates == total through-traffic.
  graph::digraph g = model.host();
  const graph::node_id u = g.add_node();
  std::vector<graph::edge_id> out_edge(model.host().node_count(),
                                       graph::invalid_edge);
  std::vector<graph::edge_id> in_edge(model.host().node_count(),
                                      graph::invalid_edge);
  for (const graph::node_id v : candidates) {
    LCG_EXPECTS(model.host().has_node(v));
    // A second edge pair would split v's through-traffic and leave only
    // the last pair's share readable.
    if (out_edge[v] != graph::invalid_edge) {
      throw precondition_error("full_connection_rate_estimator: candidate " +
                               std::to_string(v) + " is listed twice");
    }
    out_edge[v] = g.add_edge(u, v, 1.0);
    in_edge[v] = g.add_edge(v, u, 1.0);
  }
  const graph::betweenness_result b = graph::weighted_betweenness(
      graph::freeze(g), model.demand().weight_fn_without(u), options);
  rate_.assign(model.host().node_count(), 0.0);
  for (graph::node_id v = 0; v < rate_.size(); ++v) {
    if (in_edge[v] != graph::invalid_edge)
      rate_[v] = (b.edge[in_edge[v]] + b.edge[out_edge[v]]) / 2.0;
  }
}

double full_connection_rate_estimator::do_estimate(graph::node_id v,
                                                   double lock) {
  LCG_EXPECTS(v < rate_.size());
  return rate_[v] * capacity_discount(sizes_, lock);
}

anchor_pair_rate_estimator::anchor_pair_rate_estimator(
    const utility_model& model, const dist::tx_size_distribution* sizes,
    const graph::betweenness_options& options)
    : model_(model),
      anchor_(graph::max_degree_node(model.host())),
      cache_(model.host().node_count(), -1.0),
      sizes_(sizes),
      options_(options) {}

double anchor_pair_rate_estimator::do_estimate(graph::node_id v, double lock) {
  LCG_EXPECTS(v < cache_.size());
  if (cache_[v] < 0.0) {
    // Attach u to v and to the anchor (or the second-highest-degree node
    // when v *is* the anchor): through traffic crossing u estimates the
    // channel pair's usefulness; we attribute the into-u direction of (v,u).
    graph::digraph g = model_.host();
    const graph::node_id u = g.add_node();
    graph::node_id other = anchor_;
    if (other == v) {
      // Pick the best alternative anchor by degree.
      std::size_t best_degree = 0;
      other = graph::invalid_node;
      for (graph::node_id w = 0; w < model_.host().node_count(); ++w) {
        if (w == v) continue;
        const std::size_t d = g.in_degree(w) + g.out_degree(w);
        if (other == graph::invalid_node || d > best_degree) {
          best_degree = d;
          other = w;
        }
      }
    }
    double rate = 0.0;
    if (other != graph::invalid_node) {
      const graph::edge_id uv = g.add_edge(u, v, 1.0);
      const graph::edge_id vu = g.add_edge(v, u, 1.0);
      g.add_edge(u, other, 1.0);
      g.add_edge(other, u, 1.0);
      const graph::betweenness_result b = graph::weighted_betweenness(
          graph::freeze(g), model_.demand().weight_fn_without(u), options_);
      rate = (b.edge[vu] + b.edge[uv]) / 2.0;
    }
    cache_[v] = rate;
  }
  return cache_[v] * capacity_discount(sizes_, lock);
}

degree_share_rate_estimator::degree_share_rate_estimator(
    const utility_model& model, const dist::tx_size_distribution* sizes)
    : sizes_(sizes) {
  const graph::digraph& g = model.host();
  share_.assign(g.node_count(), 0.0);
  double total_degree = 0.0;
  for (graph::node_id v = 0; v < g.node_count(); ++v)
    total_degree += static_cast<double>(g.in_degree(v));
  if (total_degree <= 0.0) return;
  const double total_rate = model.demand().total_rate();
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    share_[v] = total_rate * static_cast<double>(g.in_degree(v)) /
                total_degree;
  }
}

double degree_share_rate_estimator::do_estimate(graph::node_id v,
                                                double lock) {
  LCG_EXPECTS(v < share_.size());
  return share_[v] * capacity_discount(sizes_, lock);
}

}  // namespace lcg::core
