// Weighted shortest paths (Dijkstra).
//
// The paper measures distance in hops, but real Lightning routing minimises
// *fees*: each hop charges base + rate * amount, so path costs are additive
// edge weights. pcn::network::execute_payment_cheapest, the fee-weighted
// router, builds on this module; II-B itself cites Dijkstra as the estimation
// workhorse. Weights are supplied per edge by a callback so callers can
// price edges by fee, latency, or any composite.

#ifndef LCG_GRAPH_DIJKSTRA_H
#define LCG_GRAPH_DIJKSTRA_H

#include <functional>
#include <limits>
#include <vector>

#include "graph/digraph.h"

namespace lcg::graph {

/// Weight of traversing an edge; return infinity to forbid it.
/// Finite weights must be >= 0 (Dijkstra's precondition, checked).
using edge_weight_fn = std::function<double(edge_id, const edge&)>;

inline constexpr double unreachable_cost =
    std::numeric_limits<double>::infinity();

struct dijkstra_result {
  std::vector<double> cost;          // accumulated weight; inf if unreachable
  std::vector<edge_id> parent_edge;  // tree edge into each node
};

/// Single-source cheapest paths over active edges.
[[nodiscard]] dijkstra_result dijkstra(const digraph& g, node_id src,
                                       const edge_weight_fn& weight);

/// Cheapest src -> dst path as an edge sequence (empty if unreachable or
/// src == dst).
[[nodiscard]] std::vector<edge_id> cheapest_path(const digraph& g,
                                                 node_id src, node_id dst,
                                                 const edge_weight_fn& weight);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_DIJKSTRA_H
