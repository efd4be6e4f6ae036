#include "graph/traversal.h"

#include <algorithm>
#include <queue>

namespace lcg::graph {

std::vector<std::int32_t> bfs_distances(const digraph& g, node_id src) {
  LCG_EXPECTS(g.has_node(src));
  std::vector<std::int32_t> dist(g.node_count(), unreachable);
  std::queue<node_id> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const node_id v = frontier.front();
    frontier.pop();
    g.for_each_out(v, [&](edge_id, const edge& e) {
      if (dist[e.dst] == unreachable) {
        dist[e.dst] = dist[v] + 1;
        frontier.push(e.dst);
      }
    });
  }
  return dist;
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
