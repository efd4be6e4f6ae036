// Source routing on a (possibly stale) balance view.
//
// Lightning routers do not see live channel balances: they learn capacities
// through gossip and route on that belief, so a feasible-looking route can
// fail mid-flight when a hop's real balance has since depleted — the
// failure mode the traffic engine exists to measure. `balance_view` models
// a global gossip horizon: all routers share one belief refreshed every
// `gossip_refresh` time units (refresh period 0 = always fresh). A sender
// always knows its OWN channels' live balances (it is a party to them), so
// first hops never fail on staleness.
//
// Routing itself is the same rule as pcn::network::execute_payment's
// deterministic mode — the path a BFS from the sender finds first, among
// the shortest paths all of whose edges have (believed) balance >= amount
// — plus per-payment edge exclusions from the retry policy. With a fresh
// view and no exclusions it returns exactly the path execute_payment would
// take, which is what the degenerate-equivalence test pins
// (tests/traffic_engine_test.cpp).
//
// The search is bidirectional and still returns exactly that path. Call an
// edge usable when its believed balance is >= amount (live for the
// sender's own edges) and it is not excluded, and write a path as the
// sequence of its edges' positions in their source's out-edge row. The
// one-sided BFS's first-found path is the LEXICOGRAPHICALLY SMALLEST
// shortest usable path: by induction on the level, the BFS queue holds
// each level in lexicographic order of its nodes' smallest paths, and a
// node's parent edge is the first usable edge from the earliest queued
// predecessor, i.e. that predecessor's smallest path extended by the
// smallest position. Two consequences make a bidirectional search exact:
//
//   * a prefix of the smallest route is the smallest path to its end, so
//     the route's level-a node is the EARLIEST node in the level-a queue
//     that lies on a shortest route, and the route up to it is the BFS
//     tree path;
//   * among shortest continuations the smallest is what a greedy walk
//     takes: at each node the first usable out-edge into a node one step
//     closer to the receiver.
//
// So find_route grows a forward BFS from the sender (the old BFS, same
// scan order and parent edges, a whole level at a time) and a backward
// BFS over in-edges from the receiver, always the side with the smaller
// frontier, until a usable edge joins them; with backward levels 0..b
// complete the distance is a + b + 1. The meeting node is the earliest
// queued forward node with a usable edge into backward level b: the node
// being expanded when the forward side finds the edge, or the earliest of
// all the nodes that backward level reaches when the backward side does.
// The route is its BFS tree path followed by the greedy walk down the
// backward levels b, b - 1, ..., 0. If either frontier empties first there
// is no route, so a miss no longer costs a whole-component BFS. Every
// route, and so every event count and fee bit, is the one-sided BFS's
// (tests/traffic_router_test.cpp compares the two query by query).
//
// A view owns per-node scratch (forward queue positions and parent edges,
// backward levels, the excluded-edge marks) stamped with a per-query
// epoch, so a query allocates nothing. That makes a view single-threaded:
// one view per traffic run, which is how the engine uses it.

#ifndef LCG_TRAFFIC_ROUTER_H
#define LCG_TRAFFIC_ROUTER_H

#include <cstdint>
#include <vector>

#include "graph/csr.h"
#include "pcn/network.h"

namespace lcg::traffic {

class balance_view {
 public:
  /// `fresh` == true: the view always reports live balances (no copy is
  /// kept). Otherwise the belief is captured now and on every refresh().
  /// Either way the TOPOLOGY is frozen to a CSR view here (with an in-edge
  /// index beside it): channel structure is static for the lifetime of a
  /// traffic run (only balances move), so every route search walks flat
  /// arrays instead of the adjacency lists.
  balance_view(const pcn::network& net, bool fresh);

  /// Re-learns every edge's current balance (a global gossip sweep).
  void refresh();

  [[nodiscard]] bool fresh() const noexcept { return fresh_; }
  [[nodiscard]] std::uint64_t refreshes() const noexcept { return refreshes_; }
  /// Edges examined by every find_route on this view so far (ball growth,
  /// marking and the walk) — a deterministic work counter.
  [[nodiscard]] std::uint64_t route_scans() const noexcept {
    return route_scans_;
  }

  /// The frozen topology all routing runs on (per-node edge order identical
  /// to the digraph's, so routes match the adjacency-list BFS exactly).
  [[nodiscard]] const graph::csr_graph& frozen() const noexcept {
    return csr_;
  }
  [[nodiscard]] const pcn::network& network() const noexcept { return *net_; }

 private:
  friend void find_route(balance_view& view, graph::node_id sender,
                         graph::node_id receiver, double amount,
                         const std::vector<graph::edge_id>& excluded,
                         std::vector<graph::edge_id>& route);

  using packed_id = graph::csr_graph::packed_id;

  /// Starts a query: every scratch stamp from earlier queries goes stale.
  void next_epoch();

  const pcn::network* net_;
  bool fresh_;
  graph::csr_graph csr_;  // frozen topology (structure, not balances)
  std::vector<packed_id> in_row_;       // in-edge index: offsets, size n + 1
  std::vector<packed_id> in_edge_;      // packed ids of each node's in-edges
  std::vector<graph::node_id> in_src_;  // and their source nodes
  std::vector<packed_id> packed_of_;    // packed id by edge slot, or npos
  std::vector<double> believed_;        // by packed edge; empty when fresh
  std::uint64_t refreshes_ = 0;
  std::uint64_t route_scans_ = 0;

  // Per-query scratch. A node is in the forward ball when fwd_[v] >=
  // epoch_, at position fwd_[v] - epoch_ of fwd_queue_, reached by packed
  // edge parent_[v]; it is in the backward ball when bwd_[v] >= epoch_, at
  // level bwd_[v] - epoch_. Each query raises epoch_ past every value the
  // previous one wrote. A packed edge is excluded when excluded_[k] ==
  // epoch_.
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> fwd_;
  std::vector<std::uint32_t> bwd_;
  std::vector<packed_id> parent_;
  std::vector<std::uint32_t> excluded_;
  std::vector<graph::node_id> fwd_queue_;  // forward ball in BFS order
  std::vector<graph::node_id> bwd_queue_;  // backward ball, level by level
};

/// The first-found (lexicographically smallest, see above) shortest path
/// from `sender` to `receiver` whose every edge has believed balance >=
/// `amount` and is not in `excluded` (a small, per-payment list), written
/// into `route`. Empty when none exists or sender == receiver.
void find_route(balance_view& view, graph::node_id sender,
                graph::node_id receiver, double amount,
                const std::vector<graph::edge_id>& excluded,
                std::vector<graph::edge_id>& route);

/// By-value form of the above; `net` must be the view's network.
[[nodiscard]] std::vector<graph::edge_id> find_route(
    const pcn::network& net, balance_view& view, graph::node_id sender,
    graph::node_id receiver, double amount,
    const std::vector<graph::edge_id>& excluded);

}  // namespace lcg::traffic

#endif  // LCG_TRAFFIC_ROUTER_H
