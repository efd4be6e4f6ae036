// Breadth-first shortest paths and shortest-path counting.
//
// The paper measures distance in hops (each intermediary charges f^T_avg per
// hop, II-C), so BFS is the shortest-path engine. `shortest_path_dag` is the
// Brandes front-end: besides distances it records the number of shortest
// paths sigma(v) and the shortest-path predecessor DAG, which both the
// betweenness computation (Eq. 2) and the rate estimator consume.
//
// Every hop-count sweep below, over the adjacency-list digraph and over the
// frozen csr_graph (graph/csr.h) alike, runs ONE BFS body in traversal.cpp.
// Both representations yield each node's active out-edges in the same order
// (the freeze contract), so the two give bitwise-equal dist, sigma and
// order; only the edge keys in `pred` differ (original ids vs packed
// indices). Callers that never read predecessors (`bfs_distances`,
// `shortest_path_counts`) record none. The same body also walks a digraph
// reversed (`bfs_distances_to`) and filtered by an edge predicate
// (`first_found_path`, the filtered `shortest_path_dag`): the payment
// routes of pcn::network, the rebalancing cycles of sim/rebalancing and
// the reverse reachability of graph/properties are hop searches on it.

#ifndef LCG_GRAPH_TRAVERSAL_H
#define LCG_GRAPH_TRAVERSAL_H

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "graph/digraph.h"

namespace lcg::graph {

class csr_graph;  // graph/csr.h

/// Distance value for unreachable nodes.
inline constexpr std::int32_t unreachable = -1;

/// Hop distances from `src` over active edges. dist[src] = 0,
/// dist[v] = `unreachable` if no path exists.
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const digraph& g,
                                                      node_id src);
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const csr_graph& c,
                                                      node_id src);
/// Hop distances TO `dst` over active edges: dist[v] = d(v, dst), the same
/// sweep over the reversed edges.
[[nodiscard]] std::vector<std::int32_t> bfs_distances_to(const digraph& g,
                                                         node_id dst);
/// The same distances written in place into `dist` (g.node_count()
/// entries, any previous contents); `order` is overwritten and serves as
/// the FIFO, so a caller re-running BFS into warm buffers allocates
/// nothing.
void bfs_distances(const digraph& g, node_id src, std::span<std::int32_t> dist,
                   std::vector<node_id>& order);

/// scale * sum of p[v] * max(dist[v] - hop_offset, 0) over the v < p.size()
/// with p[v] > 0, summed in node order; +infinity as soon as such a v is
/// `unreachable`. With `dist` the BFS row of a sender u and `p` its
/// transaction probabilities this is the paper's E_fees (II-C):
/// hop_offset 0 charges every hop, 1 only intermediaries (a direct channel
/// is free). The join objective and the Section IV game utilities both
/// take their fee term from here. Requires dist.size() >= p.size().
[[nodiscard]] double expected_hop_cost(std::span<const double> p,
                                       std::span<const std::int32_t> dist,
                                       std::int32_t hop_offset, double scale);

/// Predecessor edge lists of every node of a shortest-path DAG, stored flat:
/// list v holds v's DAG in-edges in discovery order. It reads like a
/// vector<vector<edge_id>> — size() lists, operator[] a span — but is built
/// without one allocation per node, and a re-fill reuses its buffers.
class pred_lists {
 public:
  /// Number of lists (the node count of the sweep).
  [[nodiscard]] std::size_t size() const noexcept { return offset_.size() - 1; }
  [[nodiscard]] std::span<const edge_id> operator[](node_id v) const {
    return {keys_.data() + offset_[v], offset_[v + 1] - offset_[v]};
  }
  friend bool operator==(const pred_lists& a, const pred_lists& b) {
    return a.offset_ == b.offset_ && a.keys_ == b.keys_;
  }

  /// Filling protocol: reset(n), then add() every DAG edge in discovery
  /// order, then group() to bucket them by head node (stable).
  void reset(std::size_t n);
  void add(node_id v, edge_id key) { staged_.emplace_back(v, key); }
  void group();

 private:
  std::vector<std::uint32_t> offset_{0};  // list v: [offset_[v], offset_[v+1])
  std::vector<edge_id> keys_;
  std::vector<std::pair<node_id, edge_id>> staged_;  // (head, key) as added
};

/// Result of a single-source shortest-path-DAG computation.
struct sp_dag {
  std::vector<std::int32_t> dist;  // hop distance or `unreachable`
  std::vector<double> sigma;       // number of shortest paths from src
  pred_lists pred;                 // DAG: shortest-path in-edges of v
  std::vector<node_id> order;      // nodes in non-decreasing distance

  /// Sizes every field for an n-node sweep with nothing reached yet,
  /// keeping all buffers' capacity (the in-place overloads' preamble).
  void reset(std::size_t n);
};

/// BFS from `src` computing distances, path counts and the predecessor DAG.
/// sigma is stored as double: path counts grow exponentially with graph
/// size and only the ratios sigma_sv/sigma_sw are consumed downstream.
/// Over a csr_graph, `pred` holds PACKED indices (map them through
/// csr_graph::edge_slot to compare with the digraph's); every other field
/// is bitwise the digraph overload's.
[[nodiscard]] sp_dag shortest_path_dag(const digraph& g, node_id src);
[[nodiscard]] sp_dag shortest_path_dag(const csr_graph& c, node_id src);

/// The same DAG written into `out`, reusing its buffers; `order` doubles as
/// the BFS FIFO, so a re-sweep into a warm `out` allocates nothing. Any
/// previous contents (any node count) are overwritten; the result equals
/// the by-value overload field for field.
void shortest_path_dag(const digraph& g, node_id src, sp_dag& out);
void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& out);

/// The DAG of graph::filtered(g, keep) toward `dst`, written into `out`
/// without a copy: the sweep runs over the active edges `keep` accepts,
/// `pred` holds their original edge ids, and it ends once dst's level is
/// settled. dist, sigma and pred are final for every node no farther than
/// dst (for every node when dst is unreachable); nothing is promised
/// beyond.
void shortest_path_dag(const digraph& g, node_id src, node_id dst,
                       const edge_filter& keep, sp_dag& out);

/// The dist, sigma and order of shortest_path_dag(c, src), with no
/// predecessor lists: `dist` and `sigma` (c.node_count() entries each, any
/// previous contents) are overwritten in place, so a caller can sweep into
/// rows of its own flat arrays; `order` is overwritten too and serves as
/// the FIFO.
void shortest_path_counts(const csr_graph& c, node_id src,
                          std::span<std::int32_t> dist,
                          std::span<double> sigma, std::vector<node_id>& order);

/// The first-found shortest path src -> dst over the active edges `keep`
/// accepts, as edge ids from src on, empty if dst is unreachable or is
/// src. Each node's parent is its discovering edge (the first in scan
/// order from the earliest-queued node before it), and the sweep ends once
/// dst is discovered.
[[nodiscard]] std::vector<edge_id> first_found_path(const digraph& g,
                                                    node_id src, node_id dst,
                                                    const edge_filter& keep);

/// The first-found shortest path over every active edge as a node
/// sequence, src first; empty if dst is unreachable.
[[nodiscard]] std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                                 node_id dst);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_TRAVERSAL_H
