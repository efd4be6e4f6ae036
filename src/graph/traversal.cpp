#include "graph/traversal.h"

#include <algorithm>

#include "graph/csr.h"

namespace lcg::graph {

namespace {

/// Calls fn(key, head) for each active out-edge of v, in the
/// representation's order (the same for a digraph and its freeze): the key
/// is the original edge id of a digraph, the packed index of a csr_graph.
template <typename Fn>
void for_each_head(const digraph& g, node_id v, Fn&& fn) {
  g.for_each_out(v, [&](edge_id e, const edge& ed) { fn(e, ed.dst); });
}
template <typename Fn>
void for_each_head(const csr_graph& c, node_id v, Fn&& fn) {
  c.for_each_out(v, fn);
}

/// The two other views of a digraph: `reversed` yields v's active
/// in-edges with the tail as head, so a sweep from dst leaves
/// dist[v] = d(v, dst); `kept` yields only the out-edges `keep` accepts.
/// Keys are original edge ids, as on the plain digraph.
struct reversed {
  const digraph& g;
  [[nodiscard]] std::size_t node_count() const { return g.node_count(); }
};
struct kept {
  const digraph& g;
  const edge_filter& keep;
  [[nodiscard]] std::size_t node_count() const { return g.node_count(); }
};
template <typename Fn>
void for_each_head(const reversed& r, node_id v, Fn&& fn) {
  r.g.for_each_in(v, [&](edge_id e, const edge& ed) { fn(e, ed.src); });
}
template <typename Fn>
void for_each_head(const kept& k, node_id v, Fn&& fn) {
  k.g.for_each_out(v, [&](edge_id e, const edge& ed) {
    if (k.keep(e, ed)) fn(e, ed.dst);
  });
}

/// The `stop` of a sweep over everything src reaches.
constexpr auto sweep_all = [](node_id) { return false; };

/// The one hop-count BFS. `dist` arrives all `unreachable` and leaves with
/// the hop distances from `src`; `order` arrives empty and is the FIFO, so
/// it leaves with the nodes in discovery order. tight(v, w, key) is called
/// for every edge on a shortest path (dist[w] == dist[v] + 1), in scan
/// order, so a node's first tight edge is the one that discovered it; a
/// no-op `tight` leaves plain BFS. stop(v) is asked before each dequeued
/// node is expanded and true ends the sweep: a caller stops only once the
/// levels it reads are settled.
template <typename Graph, typename Tight, typename Stop>
void bfs(const Graph& g, node_id src, std::span<std::int32_t> dist,
         std::vector<node_id>& order, Tight&& tight, Stop&& stop) {
  LCG_EXPECTS(src < g.node_count() && dist.size() == g.node_count());
  // Each node enters the FIFO once, so a reserved vector with a read head
  // replaces std::queue's chunked deque.
  order.reserve(g.node_count());
  dist[src] = 0;
  order.push_back(src);
  for (std::size_t head = 0; head < order.size(); ++head) {
    const node_id v = order[head];
    if (stop(v)) return;
    const std::int32_t next = dist[v] + 1;
    for_each_head(g, v, [&](auto key, node_id w) {
      if (dist[w] == unreachable) {
        dist[w] = next;
        order.push_back(w);
      }
      if (dist[w] == next) tight(v, w, key);
    });
  }
}

/// bfs that also counts shortest paths: `sigma` arrives all zero; each
/// tight edge adds sigma[v] to sigma[w] and is passed on as pred(w, key).
template <typename Graph, typename Pred, typename Stop>
void count_paths(const Graph& g, node_id src, std::span<std::int32_t> dist,
                 std::span<double> sigma, std::vector<node_id>& order,
                 Pred&& pred, Stop&& stop) {
  sigma[src] = 1.0;
  bfs(
      g, src, dist, order,
      [&](node_id v, node_id w, auto key) {
        sigma[w] += sigma[v];
        pred(w, key);
      },
      stop);
}

template <typename Graph>
std::vector<std::int32_t> distances(const Graph& g, node_id src) {
  std::vector<std::int32_t> dist(g.node_count(), unreachable);
  std::vector<node_id> order;
  bfs(g, src, dist, order, [](node_id, node_id, auto) {}, sweep_all);
  return dist;
}

template <typename Graph, typename Stop>
void dag_into(const Graph& g, node_id src, sp_dag& out, Stop&& stop) {
  out.reset(g.node_count());
  count_paths(
      g, src, out.dist, out.sigma, out.order,
      [&](node_id w, auto key) { out.pred.add(w, key); }, stop);
  out.pred.group();
}

}  // namespace

std::vector<std::int32_t> bfs_distances(const digraph& g, node_id src) {
  return distances(g, src);
}

std::vector<std::int32_t> bfs_distances(const csr_graph& c, node_id src) {
  return distances(c, src);
}

std::vector<std::int32_t> bfs_distances_to(const digraph& g, node_id dst) {
  return distances(reversed{g}, dst);
}

void bfs_distances(const digraph& g, node_id src, std::span<std::int32_t> dist,
                   std::vector<node_id>& order) {
  std::fill(dist.begin(), dist.end(), unreachable);
  order.clear();
  bfs(g, src, dist, order, [](node_id, node_id, auto) {}, sweep_all);
}

double expected_hop_cost(std::span<const double> p,
                         std::span<const std::int32_t> dist,
                         std::int32_t hop_offset, double scale) {
  LCG_EXPECTS(dist.size() >= p.size());
  double total = 0.0;
  for (std::size_t v = 0; v < p.size(); ++v) {
    if (p[v] <= 0.0) continue;
    if (dist[v] == unreachable) return std::numeric_limits<double>::infinity();
    total += static_cast<double>(std::max(dist[v] - hop_offset, 0)) * p[v];
  }
  return scale * total;
}

void pred_lists::reset(std::size_t n) {
  offset_.assign(n + 1, 0);
  keys_.clear();
  staged_.clear();
}

void pred_lists::group() {
  // Counting sort by head node: count into offset_[v + 1], prefix-sum, then
  // scatter with offset_[v] as v's cursor (which leaves it at v's end) and
  // shift the offsets back one slot.
  for (const auto& [v, key] : staged_) ++offset_[v + 1];
  const std::size_t n = size();
  for (std::size_t v = 0; v < n; ++v) offset_[v + 1] += offset_[v];
  keys_.resize(staged_.size());
  for (const auto& [v, key] : staged_) keys_[offset_[v]++] = key;
  for (std::size_t v = n; v > 0; --v) offset_[v] = offset_[v - 1];
  offset_[0] = 0;
}

void sp_dag::reset(std::size_t n) {
  dist.assign(n, unreachable);
  sigma.assign(n, 0.0);
  pred.reset(n);
  order.clear();
  order.reserve(n);
}

sp_dag shortest_path_dag(const digraph& g, node_id src) {
  sp_dag result;
  dag_into(g, src, result, sweep_all);
  return result;
}

sp_dag shortest_path_dag(const csr_graph& c, node_id src) {
  sp_dag result;
  dag_into(c, src, result, sweep_all);
  return result;
}

void shortest_path_dag(const digraph& g, node_id src, sp_dag& out) {
  dag_into(g, src, out, sweep_all);
}

void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& out) {
  dag_into(c, src, out, sweep_all);
}

void shortest_path_dag(const digraph& g, node_id src, node_id dst,
                       const edge_filter& keep, sp_dag& out) {
  LCG_EXPECTS(g.has_node(dst));
  dag_into(kept{g, keep}, src, out, [&](node_id v) {
    return out.dist[dst] != unreachable && out.dist[v] >= out.dist[dst];
  });
}

void shortest_path_counts(const csr_graph& c, node_id src,
                          std::span<std::int32_t> dist,
                          std::span<double> sigma,
                          std::vector<node_id>& order) {
  LCG_EXPECTS(sigma.size() == c.node_count());
  std::fill(dist.begin(), dist.end(), unreachable);
  std::fill(sigma.begin(), sigma.end(), 0.0);
  order.clear();
  count_paths(c, src, dist, sigma, order, [](node_id, edge_id) {}, sweep_all);
}

std::vector<edge_id> first_found_path(const digraph& g, node_id src,
                                      node_id dst, const edge_filter& keep) {
  LCG_EXPECTS(g.has_node(dst));
  std::vector<std::int32_t> dist(g.node_count(), unreachable);
  std::vector<edge_id> parent(g.node_count(), invalid_edge);
  std::vector<node_id> order;
  bfs(
      kept{g, keep}, src, dist, order,
      [&](node_id, node_id w, edge_id e) {
        if (parent[w] == invalid_edge) parent[w] = e;
      },
      [&](node_id) { return dist[dst] != unreachable; });
  if (dist[dst] == unreachable) return {};
  std::vector<edge_id> path(static_cast<std::size_t>(dist[dst]));
  node_id v = dst;
  for (std::size_t k = path.size(); k > 0; --k) {
    path[k - 1] = parent[v];
    v = g.edge_at(parent[v]).src;
  }
  return path;
}

std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                   node_id dst) {
  LCG_EXPECTS(g.has_node(src));
  const std::vector<edge_id> edges = first_found_path(
      g, src, dst, [](edge_id, const edge&) { return true; });
  if (edges.empty() && src != dst) return {};
  std::vector<node_id> path{src};
  for (const edge_id e : edges) path.push_back(g.edge_at(e).dst);
  return path;
}

}  // namespace lcg::graph
