// Directed multigraph.
//
// The PCN model of the paper represents each bidirectional payment channel
// as two directed edges (one per direction) so the two channel ends can have
// different balances (II-A). The graph layer is balance-agnostic: it stores
// pure topology plus a caller-supplied capacity per edge, and supports
// parallel edges because a strategy may open several channels to the same
// counterparty (II-C).
//
// Edges are identified by dense `edge_id`s that stay stable across removals;
// removal deactivates an edge, and iteration only visits active edges.

#ifndef LCG_GRAPH_DIGRAPH_H
#define LCG_GRAPH_DIGRAPH_H

#include <cstdint>
#include <functional>
#include <vector>

#include "util/error.h"

namespace lcg::graph {

using node_id = std::uint32_t;
using edge_id = std::uint32_t;

inline constexpr node_id invalid_node = static_cast<node_id>(-1);
inline constexpr edge_id invalid_edge = static_cast<edge_id>(-1);

struct edge {
  node_id src = invalid_node;
  node_id dst = invalid_node;
  double capacity = 0.0;  // max value this direction can forward
  bool active = true;
};

/// Edge predicate of the filtered views (graph::filtered, the filtered
/// searches of graph/traversal.h): true keeps the active edge.
using edge_filter = std::function<bool(edge_id, const edge&)>;

class digraph {
 public:
  digraph() = default;
  explicit digraph(std::size_t node_count);

  /// Adds an isolated node; returns its id (ids are dense, 0-based).
  node_id add_node();

  /// Adds `count` isolated nodes; returns the id of the first.
  node_id add_nodes(std::size_t count);

  /// Adds a directed edge. Requires both endpoints to exist and differ
  /// (self-loops carry no meaning in a PCN). Capacity must be >= 0.
  edge_id add_edge(node_id src, node_id dst, double capacity = 1.0);

  /// Convenience: adds edges (u,v) and (v,u); returns the id of (u,v)
  /// (the reverse edge is always the next id).
  edge_id add_bidirectional(node_id u, node_id v, double capacity_uv = 1.0,
                            double capacity_vu = 1.0);

  /// Deactivates an edge. Ids of other edges are unaffected.
  void remove_edge(edge_id e);

  /// Reactivates a previously removed edge.
  void restore_edge(edge_id e);

  std::size_t node_count() const noexcept { return out_.size(); }
  /// Count of *active* edges.
  std::size_t edge_count() const noexcept { return active_edges_; }
  /// Total slots including deactivated edges (= highest edge_id + 1).
  std::size_t edge_slots() const noexcept { return edges_.size(); }

  bool has_node(node_id v) const noexcept { return v < out_.size(); }
  bool edge_active(edge_id e) const;

  const edge& edge_at(edge_id e) const;

  void set_capacity(edge_id e, double capacity);

  /// Edge ids leaving / entering `v`, including inactive ones; callers
  /// iterating adjacency should skip `!edge_active(e)`. The visit helpers
  /// below do that skipping for you.
  const std::vector<edge_id>& out_edge_ids(node_id v) const;
  const std::vector<edge_id>& in_edge_ids(node_id v) const;

  /// Calls fn(edge_id, edge) for each active out-edge of v.
  template <typename Fn>
  void for_each_out(node_id v, Fn&& fn) const {
    for (const edge_id e : out_edge_ids(v)) {
      if (edges_[e].active) fn(e, edges_[e]);
    }
  }

  /// Calls fn(edge_id, edge) for each active in-edge of v.
  template <typename Fn>
  void for_each_in(node_id v, Fn&& fn) const {
    for (const edge_id e : in_edge_ids(v)) {
      if (edges_[e].active) fn(e, edges_[e]);
    }
  }

  /// Active out-degree / in-degree (counts parallel edges separately).
  std::size_t out_degree(node_id v) const;
  std::size_t in_degree(node_id v) const;

  /// Distinct active out-neighbors (parallel edges counted once).
  std::vector<node_id> out_neighbors(node_id v) const;

  /// First active edge from src to dst, or invalid_edge.
  edge_id find_edge(node_id src, node_id dst) const;

 private:
  std::vector<edge> edges_;
  std::vector<std::vector<edge_id>> out_;
  std::vector<std::vector<edge_id>> in_;
  std::size_t active_edges_ = 0;
};

/// The channel partner of every edge slot: the greedy reverse pairing of
/// the active edges in slot order (each edge takes the first unpaired
/// active reverse edge among its head's out-edges), invalid_edge for an
/// unpaired or inactive slot. A pair's first edge has the lower id. The
/// DOT and CSV writers and topology::channel_pairs all read channels
/// through this one rule.
[[nodiscard]] std::vector<edge_id> channel_partners(const digraph& g);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_DIGRAPH_H
