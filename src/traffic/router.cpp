#include "traffic/router.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/error.h"

namespace lcg::traffic {

balance_view::balance_view(const pcn::network& net, bool fresh)
    : net_(&net), fresh_(fresh), csr_(graph::freeze(net.topology())) {
  const std::size_t n = csr_.node_count();
  const auto m = static_cast<packed_id>(csr_.edge_count());
  // In-edge index: a counting sort of the packed edges by head node.
  in_row_.assign(n + 1, 0);
  for (packed_id k = 0; k < m; ++k) ++in_row_[csr_.edge_dst(k) + 1];
  for (std::size_t v = 0; v < n; ++v) in_row_[v + 1] += in_row_[v];
  in_edge_.resize(m);
  in_src_.resize(m);
  std::vector<packed_id> cursor(in_row_.begin(), in_row_.end() - 1);
  for (packed_id k = 0; k < m; ++k) {
    const packed_id j = cursor[csr_.edge_dst(k)]++;
    in_edge_[j] = k;
    in_src_[j] = csr_.edge_src(k);
  }
  packed_of_.assign(csr_.edge_slots(), graph::csr_graph::npos);
  for (packed_id k = 0; k < m; ++k) packed_of_[csr_.edge_slot(k)] = k;

  fwd_.assign(n, 0);
  bwd_.assign(n, 0);
  parent_.resize(n);
  excluded_.assign(m, 0);
  fwd_queue_.reserve(n);
  bwd_queue_.reserve(n);
  if (!fresh_) refresh();
}

void balance_view::refresh() {
  if (fresh_) return;
  const graph::digraph& g = net_->topology();
  believed_.resize(csr_.edge_count());
  for (packed_id k = 0; k < believed_.size(); ++k)
    believed_[k] = g.edge_at(csr_.edge_slot(k)).capacity;
  ++refreshes_;
}

void balance_view::next_epoch() {
  // A query writes values < n above its epoch, so n + 1 clears them all.
  const auto span = static_cast<std::uint32_t>(csr_.node_count() + 1);
  if (epoch_ > std::numeric_limits<std::uint32_t>::max() - 2 * span) {
    std::fill(fwd_.begin(), fwd_.end(), 0);
    std::fill(bwd_.begin(), bwd_.end(), 0);
    std::fill(excluded_.begin(), excluded_.end(), 0);
    epoch_ = 0;
  }
  epoch_ += span;
}

void find_route(balance_view& view, graph::node_id sender,
                graph::node_id receiver, double amount,
                const std::vector<graph::edge_id>& excluded,
                std::vector<graph::edge_id>& route) {
  using packed_id = balance_view::packed_id;
  const graph::csr_graph& c = view.csr_;
  LCG_EXPECTS(c.has_node(sender) && c.has_node(receiver));
  route.clear();
  if (sender == receiver) return;
  view.next_epoch();
  const std::uint32_t epoch = view.epoch_;
  std::vector<std::uint32_t>& fwd = view.fwd_;
  std::vector<std::uint32_t>& bwd = view.bwd_;
  std::vector<packed_id>& parent = view.parent_;
  const std::vector<packed_id>& in_row = view.in_row_;
  const std::vector<packed_id>& in_edge = view.in_edge_;
  const std::vector<graph::node_id>& in_src = view.in_src_;
  const graph::digraph& live = view.net_->topology();
  std::uint64_t scans = 0;
  std::vector<std::uint32_t>& barred = view.excluded_;
  for (const graph::edge_id e : excluded) {
    // Ids past the slots or of closed channels name no edge of the view.
    if (e >= view.packed_of_.size()) continue;
    const packed_id k = view.packed_of_[e];
    if (k != graph::csr_graph::npos) barred[k] = epoch;
  }

  // Packed edge k (leaving `src`) can carry the payment on the sender's
  // belief and is not excluded.
  const auto usable = [&](packed_id k, graph::node_id src) {
    const double balance = view.fresh_ || src == sender
                               ? live.edge_at(c.edge_slot(k)).capacity
                               : view.believed_[k];
    return balance >= amount && barred[k] != epoch;
  };

  // 1. Grow both balls a whole level at a time, the smaller frontier first,
  // until they touch. [f_lo, f_hi) is the last complete forward level,
  // [b_lo, b_hi) backward level b. `meet` becomes the queue position of the
  // first forward node (in BFS order) with a usable edge into level b.
  std::vector<graph::node_id>& fq = view.fwd_queue_;
  std::vector<graph::node_id>& bq = view.bwd_queue_;
  fq.assign(1, sender);
  bq.assign(1, receiver);
  fwd[sender] = epoch;
  bwd[receiver] = epoch;
  std::size_t f_lo = 0, f_hi = 1, b_lo = 0, b_hi = 1;
  std::uint32_t b = 0;
  constexpr std::size_t none = static_cast<std::size_t>(-1);
  std::size_t meet = none;
  while (meet == none) {
    if (f_lo == f_hi || b_lo == b_hi) {  // one side exhausted: no route
      view.route_scans_ += scans;
      return;
    }
    if (f_hi - f_lo <= b_hi - b_lo) {
      // Same scan as the one-sided BFS: the first usable edge into the
      // backward ball leaves the earliest forward node that has one.
      for (std::size_t i = f_lo; i < f_hi && meet == none; ++i) {
        const graph::node_id u = fq[i];
        for (packed_id k = c.row_begin(u); k < c.row_end(u); ++k) {
          ++scans;
          const graph::node_id w = c.edge_dst(k);
          if (fwd[w] >= epoch || !usable(k, u)) continue;
          if (bwd[w] >= epoch) {
            meet = i;
            break;
          }
          fwd[w] = epoch + static_cast<std::uint32_t>(fq.size());
          parent[w] = k;
          fq.push_back(w);
        }
      }
      if (meet == none) f_lo = std::exchange(f_hi, fq.size());
    } else {
      // Every forward node this level reaches is on the last forward
      // level; finish the level to find the earliest of them.
      for (std::size_t i = b_lo; i < b_hi; ++i) {
        const graph::node_id v = bq[i];
        for (packed_id j = in_row[v]; j < in_row[v + 1]; ++j) {
          ++scans;
          const graph::node_id u = in_src[j];
          if (bwd[u] >= epoch || !usable(in_edge[j], u)) continue;
          if (fwd[u] >= epoch) {
            meet = std::min<std::size_t>(meet, fwd[u] - epoch);
          } else if (meet == none) {
            bwd[u] = epoch + b + 1;
            bq.push_back(u);
          }
        }
      }
      if (meet == none) {
        b_lo = std::exchange(b_hi, bq.size());
        ++b;
      }
    }
  }

  // 2. The BFS tree path to the meeting node, then greedily the first
  // usable out-edge into a node one backward level closer.
  graph::node_id x = fq[meet];
  while (x != sender) {
    const packed_id k = parent[x];
    route.push_back(c.edge_slot(k));
    x = c.edge_src(k);
  }
  std::reverse(route.begin(), route.end());
  x = fq[meet];
  for (std::uint32_t left = b + 1; left-- > 0;) {
    packed_id k = c.row_begin(x);
    for (;; ++k) {
      LCG_ENSURES(k < c.row_end(x));  // x lies on a shortest path
      ++scans;
      if (bwd[c.edge_dst(k)] == epoch + left && usable(k, x)) break;
    }
    route.push_back(c.edge_slot(k));
    x = c.edge_dst(k);
  }
  view.route_scans_ += scans;
}

std::vector<graph::edge_id> find_route(
    const pcn::network& net, balance_view& view, graph::node_id sender,
    graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded) {
  LCG_EXPECTS(&net == &view.network());
  std::vector<graph::edge_id> route;
  find_route(view, sender, receiver, amount, excluded, route);
  return route;
}

}  // namespace lcg::traffic
