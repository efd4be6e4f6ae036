// Capacity-reduced subgraphs.
//
// II-B: "all our proposed algorithms for a given transaction of size x are
// computed on a subgraph G' of the original PCN G that only takes into
// account directed edges that have enough capacity to forward x."
// `reduced_by_capacity` materialises exactly that G'. Node ids are preserved
// (so distances/betweenness on G' index identically to G); the edge-id
// mapping back to G is returned alongside.

#ifndef LCG_GRAPH_SUBGRAPH_H
#define LCG_GRAPH_SUBGRAPH_H

#include <vector>

#include "graph/digraph.h"

namespace lcg::graph {

struct subgraph_result {
  digraph graph;                      // same node set as the original
  std::vector<edge_id> original_edge; // new edge id -> original edge id
};

/// Keeps active edges whose capacity is >= `min_capacity`.
[[nodiscard]] subgraph_result reduced_by_capacity(const digraph& g,
                                                  double min_capacity);

/// Keeps active edges satisfying an arbitrary predicate.
[[nodiscard]] subgraph_result filtered(const digraph& g,
                                       const edge_filter& keep);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_SUBGRAPH_H
