#include "graph/subgraph.h"

namespace lcg::graph {

subgraph_result filtered(const digraph& g, const edge_filter& keep) {
  subgraph_result result;
  result.graph = digraph(g.node_count());
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_active(e)) continue;
    const edge& ed = g.edge_at(e);
    if (!keep(e, ed)) continue;
    result.graph.add_edge(ed.src, ed.dst, ed.capacity);
    result.original_edge.push_back(e);
  }
  return result;
}

subgraph_result reduced_by_capacity(const digraph& g, double min_capacity) {
  return filtered(g, [min_capacity](edge_id, const edge& ed) {
    return ed.capacity >= min_capacity;
  });
}

}  // namespace lcg::graph
