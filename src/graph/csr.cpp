#include "graph/csr.h"

#include <algorithm>
#include <queue>

#include "obs/registry.h"
#include "obs/span.h"
#include "util/error.h"

namespace lcg::graph {

namespace {

/// freeze() runs once per utility evaluation in the arena hot loop, so
/// its obs cost matters: one relaxed load disabled, a counter bump and a
/// histogram record enabled.
struct view_metrics {
  obs::counter& freeze;
  obs::counter& thaw;
  obs::histogram& freeze_seconds;
  obs::histogram& thaw_seconds;
  static const view_metrics& get() {
    auto& reg = obs::registry::global();
    static const std::vector<double> bounds{1e-6, 1e-5, 1e-4, 1e-3,
                                            0.01, 0.1,  1,    10};
    static const view_metrics m{
        reg.get_counter("graph/freeze_view"),
        reg.get_counter("graph/thaw_view"),
        reg.get_histogram("graph/freeze_seconds", bounds),
        reg.get_histogram("graph/thaw_seconds", bounds),
    };
    return m;
  }
};

}  // namespace

csr_graph freeze(const digraph& g) {
  obs::scoped_timer timer(view_metrics::get().freeze_seconds);
  view_metrics::get().freeze.add();
  const std::size_t n = g.node_count();
  csr_graph c;
  c.node_count_ = n;
  c.edge_slots_ = g.edge_slots();
  c.row_.assign(n + 1, 0);
  const std::size_t m = g.edge_count();
  c.col_.reserve(m);
  c.src_.reserve(m);
  c.cap_.reserve(m);
  c.orig_.reserve(m);
  for (node_id v = 0; v < n; ++v) {
    // The digraph's active out-edge order IS the frozen order — the pin
    // every bitwise-equivalence guarantee in this module rests on.
    g.for_each_out(v, [&](edge_id e, const edge& ed) {
      c.col_.push_back(ed.dst);
      c.src_.push_back(v);
      c.cap_.push_back(ed.capacity);
      c.orig_.push_back(e);
    });
    c.row_[v + 1] = static_cast<csr_graph::packed_id>(c.col_.size());
  }
  LCG_ENSURES(c.col_.size() == m);
  return c;
}

digraph thaw(const csr_graph& c) {
  obs::scoped_timer timer(view_metrics::get().thaw_seconds);
  view_metrics::get().thaw.add();
  digraph g(c.node_count());
  for (node_id v = 0; v < c.node_count(); ++v) {
    c.for_each_out(v, [&](csr_graph::packed_id k, node_id dst) {
      g.add_edge(v, dst, c.edge_capacity(k));
    });
  }
  return g;
}

std::vector<std::int32_t> bfs_distances(const csr_graph& c, node_id src) {
  LCG_EXPECTS(c.has_node(src));
  std::vector<std::int32_t> dist(c.node_count(), unreachable);
  std::queue<node_id> frontier;
  dist[src] = 0;
  frontier.push(src);
  while (!frontier.empty()) {
    const node_id v = frontier.front();
    frontier.pop();
    for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
      const node_id w = c.edge_dst(k);
      if (dist[w] == unreachable) {
        dist[w] = dist[v] + 1;
        frontier.push(w);
      }
    }
  }
  return dist;
}

sp_dag shortest_path_dag(const csr_graph& c, node_id src) {
  sp_dag result;
  shortest_path_dag(c, src, result);
  return result;
}

void shortest_path_dag(const csr_graph& c, node_id src, sp_dag& out) {
  LCG_EXPECTS(c.has_node(src));
  out.reset(c.node_count());
  out.dist[src] = 0;
  out.sigma[src] = 1.0;
  out.order.push_back(src);
  for (std::size_t head = 0; head < out.order.size(); ++head) {
    const node_id v = out.order[head];
    for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
      const node_id w = c.edge_dst(k);
      if (out.dist[w] == unreachable) {
        out.dist[w] = out.dist[v] + 1;
        out.order.push_back(w);
      }
      if (out.dist[w] == out.dist[v] + 1) {
        out.sigma[w] += out.sigma[v];
        out.pred.add(w, k);  // packed index, not original edge id
      }
    }
  }
  out.pred.group();
}

bucket_sssp_result bucket_dijkstra(const csr_graph& c, node_id src,
                                   const std::vector<std::uint32_t>& weight) {
  LCG_EXPECTS(c.has_node(src));
  LCG_EXPECTS(weight.empty() || weight.size() == c.edge_count());
  std::uint32_t max_w = 1;
  for (const std::uint32_t w : weight) {
    LCG_EXPECTS(w >= 1);  // zero-weight edges would need a deque variant
    max_w = std::max(max_w, w);
  }

  bucket_sssp_result result;
  result.dist.assign(c.node_count(), unreachable);
  result.parent.assign(c.node_count(), csr_graph::npos);
  if (c.node_count() == 0) return result;

  // Dial's algorithm: tentative distances live in max_w + 1 circular
  // buckets (any two coexisting tentative values differ by at most max_w).
  // Stale entries are skipped on pop, like the heap variant's lazy delete.
  const std::size_t wheel = static_cast<std::size_t>(max_w) + 1;
  std::vector<std::vector<node_id>> buckets(wheel);
  result.dist[src] = 0;
  buckets[0].push_back(src);
  std::size_t remaining = 1;
  for (std::int64_t d = 0; remaining > 0; ++d) {
    std::vector<node_id>& bucket = buckets[static_cast<std::size_t>(d) % wheel];
    std::vector<node_id> settled;
    settled.swap(bucket);
    remaining -= settled.size();
    for (const node_id v : settled) {
      if (result.dist[v] != static_cast<std::int32_t>(d)) continue;  // stale
      for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
        const node_id w = c.edge_dst(k);
        const std::uint32_t ew = weight.empty() ? 1u : weight[k];
        const auto candidate = static_cast<std::int32_t>(d + ew);
        if (result.dist[w] == unreachable || candidate < result.dist[w]) {
          result.dist[w] = candidate;
          result.parent[w] = k;
          buckets[static_cast<std::size_t>(candidate) % wheel].push_back(w);
          ++remaining;
        }
      }
    }
  }
  return result;
}

}  // namespace lcg::graph
