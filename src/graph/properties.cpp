#include "graph/properties.h"

#include <algorithm>

#include "graph/traversal.h"

namespace lcg::graph {

bool is_strongly_connected(const digraph& g) {
  if (g.node_count() <= 1) return true;
  // Node 0 reaches every node and every node reaches node 0.
  const auto reached = [](const std::vector<std::int32_t>& dist) {
    return std::none_of(dist.begin(), dist.end(),
                        [](std::int32_t d) { return d == unreachable; });
  };
  return reached(bfs_distances(g, 0)) && reached(bfs_distances_to(g, 0));
}

std::int32_t eccentricity(const digraph& g, node_id v) {
  const auto dist = bfs_distances(g, v);
  std::int32_t ecc = 0;
  for (node_id t = 0; t < g.node_count(); ++t) {
    if (dist[t] == unreachable) return unreachable;
    ecc = std::max(ecc, dist[t]);
  }
  return ecc;
}

std::int32_t diameter(const digraph& g) {
  std::int32_t diam = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    const std::int32_t ecc = eccentricity(g, v);
    if (ecc == unreachable) return unreachable;
    diam = std::max(diam, ecc);
  }
  return diam;
}

through_path longest_shortest_path_through(const digraph& g, node_id v) {
  LCG_EXPECTS(g.has_node(v));
  const std::size_t n = g.node_count();
  const auto to_v = bfs_distances_to(g, v);  // d(s, v)
  const auto from_v = bfs_distances(g, v);   // d(v, t)
  through_path best;
  for (node_id s = 0; s < n; ++s) {
    if (to_v[s] == unreachable) continue;
    const auto dist_s = bfs_distances(g, s);
    for (node_id t = 0; t < n; ++t) {
      if (t == s || dist_s[t] == unreachable || from_v[t] == unreachable)
        continue;
      if (to_v[s] + from_v[t] == dist_s[t] && dist_s[t] > best.d)
        best = {dist_s[t], s, t};
    }
  }
  return best;
}

std::vector<std::size_t> in_degrees(const digraph& g) {
  std::vector<std::size_t> degrees(g.node_count());
  for (node_id v = 0; v < g.node_count(); ++v) degrees[v] = g.in_degree(v);
  return degrees;
}

node_id max_degree_node(const digraph& g) {
  LCG_EXPECTS(g.node_count() > 0);
  node_id best = 0;
  std::size_t best_degree = 0;
  for (node_id v = 0; v < g.node_count(); ++v) {
    const std::size_t d = g.in_degree(v) + g.out_degree(v);
    if (d > best_degree) {
      best_degree = d;
      best = v;
    }
  }
  return best;
}

}  // namespace lcg::graph
