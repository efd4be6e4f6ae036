// Flat compressed-sparse-row (CSR) read-only graph view.
//
// The adjacency-list digraph is the right structure for *mutation* — arena
// moves toggle channels in place, construction appends — but its per-node
// edge-id vectors scatter the hot read path (Brandes sweeps, BFS, routing)
// across the heap, which ROADMAP names as the ceiling on host size for
// 10^5–10^6-node snapshots. `csr_graph` is the frozen counterpart: one
// contiguous `row` offset array plus parallel flat arrays (dst, src,
// capacity, original edge id) packed in EXACTLY the digraph's active
// out-edge order.
//
// That order pin is the whole contract. Because freeze() preserves the
// per-node adjacency sequence (out_edge_ids order with inactive slots
// skipped), every traversal kernel below visits edges in the same order as
// the digraph's for_each_out, so BFS frontiers, shortest-path DAGs, sigma
// accumulation and Brandes dependency sweeps execute the identical float
// operation sequence — results over a frozen view are BITWISE equal to the
// adjacency-list path (tests/graph_csr_test.cpp and the CSR axis of
// tests/graph_betweenness_property_test.cpp pin this; bench_betweenness
// enforces it by exit code).
//
// `edge_slot(k)` maps a packed index back to the ORIGINAL digraph edge id,
// so per-edge results (betweenness_result::edge, route edge lists) keep the
// digraph's indexing and can be compared — or handed back to mutable-side
// code — without translation.
//
// freeze() is O(n + m) and allocation-lean; the intended pattern is: mutate
// the digraph, freeze once, run many read-only sweeps on the view, throw it
// away (or thaw() back to a compact digraph for interchange).

#ifndef LCG_GRAPH_CSR_H
#define LCG_GRAPH_CSR_H

#include <cstdint>
#include <vector>

#include "graph/digraph.h"
#include "graph/traversal.h"

namespace lcg::graph {

class csr_graph {
 public:
  /// Packed edge index type; `npos` marks "no edge" (bucket_dijkstra
  /// parents, unreachable nodes).
  using packed_id = std::uint32_t;
  static constexpr packed_id npos = static_cast<packed_id>(-1);

  csr_graph() = default;

  [[nodiscard]] std::size_t node_count() const noexcept {
    return node_count_;
  }
  /// Packed (active) edge count.
  [[nodiscard]] std::size_t edge_count() const noexcept { return col_.size(); }
  /// Edge slots of the SOURCE digraph (highest original edge id + 1) — the
  /// size of per-edge result vectors, so csr results align with digraph
  /// results element for element.
  [[nodiscard]] std::size_t edge_slots() const noexcept { return edge_slots_; }

  [[nodiscard]] bool has_node(node_id v) const noexcept {
    return v < node_count_;
  }

  /// Packed index range [row_begin(v), row_end(v)) of v's out-edges, in the
  /// source digraph's active out-edge order.
  [[nodiscard]] packed_id row_begin(node_id v) const { return row_[v]; }
  [[nodiscard]] packed_id row_end(node_id v) const { return row_[v + 1]; }

  [[nodiscard]] node_id edge_src(packed_id k) const { return src_[k]; }
  [[nodiscard]] node_id edge_dst(packed_id k) const { return col_[k]; }
  [[nodiscard]] double edge_capacity(packed_id k) const { return cap_[k]; }
  /// Original digraph edge id of packed edge k.
  [[nodiscard]] edge_id edge_slot(packed_id k) const { return orig_[k]; }

  /// Calls fn(packed_id, dst) for each out-edge of v, in the frozen order.
  template <typename Fn>
  void for_each_out(node_id v, Fn&& fn) const {
    for (packed_id k = row_[v]; k < row_[v + 1]; ++k) fn(k, col_[k]);
  }

  [[nodiscard]] std::size_t out_degree(node_id v) const {
    return row_[v + 1] - row_[v];
  }

  /// The flat arrays, exposed for tests and serialisation.
  [[nodiscard]] const std::vector<packed_id>& rows() const noexcept {
    return row_;
  }
  [[nodiscard]] const std::vector<node_id>& cols() const noexcept {
    return col_;
  }
  [[nodiscard]] const std::vector<node_id>& srcs() const noexcept {
    return src_;
  }
  [[nodiscard]] const std::vector<double>& capacities() const noexcept {
    return cap_;
  }
  [[nodiscard]] const std::vector<edge_id>& slots() const noexcept {
    return orig_;
  }

  friend bool operator==(const csr_graph& a, const csr_graph& b) {
    return a.node_count_ == b.node_count_ && a.edge_slots_ == b.edge_slots_ &&
           a.row_ == b.row_ && a.col_ == b.col_ && a.cap_ == b.cap_ &&
           a.orig_ == b.orig_;
  }

  friend csr_graph freeze(const digraph& g);

 private:
  std::size_t node_count_ = 0;
  std::size_t edge_slots_ = 0;
  std::vector<packed_id> row_{0};  // size node_count + 1
  std::vector<node_id> col_;       // dst per packed edge
  std::vector<node_id> src_;       // src per packed edge
  std::vector<double> cap_;        // capacity per packed edge
  std::vector<edge_id> orig_;      // original digraph edge id per packed edge
};

/// O(n + m) flat snapshot of the active edges, per-node order preserved.
[[nodiscard]] csr_graph freeze(const digraph& g);

/// Mutable digraph with the SAME topology, capacities and per-node
/// adjacency order as the view. Edge ids are compacted to the packed
/// indices 0..m-1 (inactive source slots do not survive a freeze), so
/// freeze(thaw(c)) reproduces c's row/col/capacity arrays exactly with
/// edge_slot(k) == k; when the source digraph had no inactive slots and its
/// edge ids were already grouped by source node, thaw(freeze(g)) == g edge
/// for edge.
[[nodiscard]] digraph thaw(const csr_graph& c);

/// Hop distances from `src` (same contract as the digraph overload in
/// graph/traversal.h; bitwise-equal output).
[[nodiscard]] std::vector<std::int32_t> bfs_distances(const csr_graph& c,
                                                      node_id src);

/// Brandes front-end over the flat view. The returned sp_dag is
/// field-for-field bitwise equal to the digraph overload's EXCEPT that
/// `pred` holds PACKED indices (map through edge_slot() to compare); dist,
/// sigma and order match the digraph's exactly.
[[nodiscard]] sp_dag shortest_path_dag(const csr_graph& c, node_id src);

/// In-place form with the digraph overload's buffer reuse (see
/// graph/traversal.h): a warm `out` is re-swept without allocating.
void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& out);

/// Dial bucket-queue single-source shortest paths for small non-negative
/// integer edge weights — the uniform-weight (hop metric) replacement for
/// the binary-heap Dijkstra on frozen hosts. `weight` gives the cost of
/// each PACKED edge and must be >= 1 everywhere (checked); empty means
/// uniform weight 1, where the result's dist is exactly bfs_distances.
/// O(m + n + max_dist) with a circular bucket array of max_weight + 1
/// buckets, no heap, no comparisons beyond the bucket scan.
struct bucket_sssp_result {
  std::vector<std::int32_t> dist;           // -1 (unreachable) like BFS
  std::vector<csr_graph::packed_id> parent; // packed edge into v, npos if none
};
[[nodiscard]] bucket_sssp_result bucket_dijkstra(
    const csr_graph& c, node_id src,
    const std::vector<std::uint32_t>& weight = {});

}  // namespace lcg::graph

#endif  // LCG_GRAPH_CSR_H
