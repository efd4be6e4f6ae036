#include "graph/digraph.h"

#include <algorithm>

namespace lcg::graph {

digraph::digraph(std::size_t node_count) : out_(node_count), in_(node_count) {}

node_id digraph::add_node() {
  out_.emplace_back();
  in_.emplace_back();
  return static_cast<node_id>(out_.size() - 1);
}

node_id digraph::add_nodes(std::size_t count) {
  const auto first = static_cast<node_id>(out_.size());
  out_.resize(out_.size() + count);
  in_.resize(in_.size() + count);
  return first;
}

edge_id digraph::add_edge(node_id src, node_id dst, double capacity) {
  LCG_EXPECTS(has_node(src) && has_node(dst));
  LCG_EXPECTS(src != dst);
  LCG_EXPECTS(capacity >= 0.0);
  const auto e = static_cast<edge_id>(edges_.size());
  edges_.push_back(edge{src, dst, capacity, true});
  out_[src].push_back(e);
  in_[dst].push_back(e);
  ++active_edges_;
  return e;
}

edge_id digraph::add_bidirectional(node_id u, node_id v, double capacity_uv,
                                   double capacity_vu) {
  const edge_id forward = add_edge(u, v, capacity_uv);
  add_edge(v, u, capacity_vu);
  return forward;
}

void digraph::remove_edge(edge_id e) {
  LCG_EXPECTS(e < edges_.size());
  if (edges_[e].active) {
    edges_[e].active = false;
    --active_edges_;
  }
}

void digraph::restore_edge(edge_id e) {
  LCG_EXPECTS(e < edges_.size());
  if (!edges_[e].active) {
    edges_[e].active = true;
    ++active_edges_;
  }
}

bool digraph::edge_active(edge_id e) const {
  LCG_EXPECTS(e < edges_.size());
  return edges_[e].active;
}

const edge& digraph::edge_at(edge_id e) const {
  LCG_EXPECTS(e < edges_.size());
  return edges_[e];
}

void digraph::set_capacity(edge_id e, double capacity) {
  LCG_EXPECTS(e < edges_.size());
  LCG_EXPECTS(capacity >= 0.0);
  edges_[e].capacity = capacity;
}

const std::vector<edge_id>& digraph::out_edge_ids(node_id v) const {
  LCG_EXPECTS(has_node(v));
  return out_[v];
}

const std::vector<edge_id>& digraph::in_edge_ids(node_id v) const {
  LCG_EXPECTS(has_node(v));
  return in_[v];
}

std::size_t digraph::out_degree(node_id v) const {
  LCG_EXPECTS(has_node(v));
  return static_cast<std::size_t>(
      std::count_if(out_[v].begin(), out_[v].end(),
                    [this](edge_id e) { return edges_[e].active; }));
}

std::size_t digraph::in_degree(node_id v) const {
  LCG_EXPECTS(has_node(v));
  return static_cast<std::size_t>(
      std::count_if(in_[v].begin(), in_[v].end(),
                    [this](edge_id e) { return edges_[e].active; }));
}

std::vector<node_id> digraph::out_neighbors(node_id v) const {
  LCG_EXPECTS(has_node(v));
  std::vector<node_id> result;
  result.reserve(out_[v].size());
  for (const edge_id e : out_[v]) {
    if (edges_[e].active) result.push_back(edges_[e].dst);
  }
  std::sort(result.begin(), result.end());
  result.erase(std::unique(result.begin(), result.end()), result.end());
  return result;
}

edge_id digraph::find_edge(node_id src, node_id dst) const {
  LCG_EXPECTS(has_node(src) && has_node(dst));
  for (const edge_id e : out_[src]) {
    if (edges_[e].active && edges_[e].dst == dst) return e;
  }
  return invalid_edge;
}

std::vector<edge_id> channel_partners(const digraph& g) {
  std::vector<edge_id> partner(g.edge_slots(), invalid_edge);
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_active(e) || partner[e] != invalid_edge) continue;
    const edge& ed = g.edge_at(e);
    // Slots below e are settled; one above e is free until claimed.
    for (const edge_id r : g.out_edge_ids(ed.dst)) {
      if (r > e && partner[r] == invalid_edge && g.edge_active(r) &&
          g.edge_at(r).dst == ed.src) {
        partner[e] = r;
        partner[r] = e;
        break;
      }
    }
  }
  return partner;
}

}  // namespace lcg::graph
