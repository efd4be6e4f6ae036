#include "graph/traversal.h"

#include <algorithm>

namespace lcg::graph {

std::vector<std::int32_t> bfs_distances(const digraph& g, node_id src) {
  LCG_EXPECTS(g.has_node(src));
  std::vector<std::int32_t> dist(g.node_count(), unreachable);
  // Each node enters the FIFO once, so a reserved vector with a read head
  // replaces std::queue's chunked deque.
  std::vector<node_id> frontier;
  frontier.reserve(g.node_count());
  dist[src] = 0;
  frontier.push_back(src);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const node_id v = frontier[head];
    g.for_each_out(v, [&](edge_id, const edge& e) {
      if (dist[e.dst] == unreachable) {
        dist[e.dst] = dist[v] + 1;
        frontier.push_back(e.dst);
      }
    });
  }
  return dist;
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
  shortest_path_dag(g, src, result);
  return result;
}

void shortest_path_dag(const digraph& g, node_id src, sp_dag& out) {
  LCG_EXPECTS(g.has_node(src));
  out.reset(g.node_count());
  out.dist[src] = 0;
  out.sigma[src] = 1.0;
  out.order.push_back(src);
  // `order` is the FIFO: nodes are appended when discovered and visited in
  // that order, which is exactly the dequeue order a queue would give.
  for (std::size_t head = 0; head < out.order.size(); ++head) {
    const node_id v = out.order[head];
    g.for_each_out(v, [&](edge_id e, const edge& ed) {
      const node_id w = ed.dst;
      if (out.dist[w] == unreachable) {
        out.dist[w] = out.dist[v] + 1;
        out.order.push_back(w);
      }
      if (out.dist[w] == out.dist[v] + 1) {
        out.sigma[w] += out.sigma[v];
        out.pred.add(w, e);
      }
    });
  }
  out.pred.group();
}

std::vector<std::vector<std::int32_t>> all_pairs_distances(const digraph& g) {
  std::vector<std::vector<std::int32_t>> dist;
  dist.reserve(g.node_count());
  for (node_id s = 0; s < g.node_count(); ++s)
    dist.push_back(bfs_distances(g, s));
  return dist;
}

std::vector<node_id> shortest_path(const digraph& g, node_id src,
                                   node_id dst) {
  LCG_EXPECTS(g.has_node(src) && g.has_node(dst));
  const sp_dag dag = shortest_path_dag(g, src);
  if (dag.dist[dst] == unreachable) return {};
  std::vector<node_id> path;
  node_id v = dst;
  path.push_back(v);
  while (v != src) {
    const edge_id e = dag.pred[v].front();
    v = g.edge_at(e).src;
    path.push_back(v);
  }
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace lcg::graph
