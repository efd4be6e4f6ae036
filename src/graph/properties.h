// Whole-graph structural properties: connectivity, diameter, eccentricity,
// degree statistics, and the "longest shortest path through a node" quantity
// that Theorem 6 bounds for hubs in stable networks.

#ifndef LCG_GRAPH_PROPERTIES_H
#define LCG_GRAPH_PROPERTIES_H

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/traversal.h"

namespace lcg::graph {

/// True if every node can reach every other node over active directed edges.
[[nodiscard]] bool is_strongly_connected(const digraph& g);

/// Max hop distance from `v` to any reachable node; `unreachable` (-1) if
/// some node cannot be reached.
[[nodiscard]] std::int32_t eccentricity(const digraph& g, node_id v);

/// Max finite shortest-path length over all ordered pairs; `unreachable` if
/// the graph is not strongly connected.
[[nodiscard]] std::int32_t diameter(const digraph& g);

/// The longest shortest path through a node: its length and endpoints.
struct through_path {
  std::int32_t d = unreachable;  // hops
  node_id s = invalid_node;
  node_id t = invalid_node;
};

/// Length of the longest shortest path that has `v` as an interior or end
/// node: max over ordered reachable pairs (s, t) whose shortest-path
/// distance decomposes as d(s,v) + d(v,t) = d(s,t), with the first such
/// pair in (s, t) order that reaches it. `unreachable` and no pair when
/// no pair s != t qualifies.
/// Theorem 6 upper-bounds this value when v is a hub in a stable network.
[[nodiscard]] through_path longest_shortest_path_through(const digraph& g,
                                                         node_id v);

/// Active in-degrees of all nodes (paper ranks nodes by in-degree in II-B).
[[nodiscard]] std::vector<std::size_t> in_degrees(const digraph& g);

/// Node with the maximum total (in + out) active degree; ties broken toward
/// the smallest id. The natural "hub" choice for Theorem 6 experiments.
[[nodiscard]] node_id max_degree_node(const digraph& g);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_PROPERTIES_H
