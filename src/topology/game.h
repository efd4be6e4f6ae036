// The network-wide channel game of Section IV.
//
// Every node of an existing PCN is a player; its utility under the paper's
// Section IV conventions is
//
//   U_u = E_rev_u - E_fees_u - cost_u
//   E_rev_u  = b * sum_{v1 != v2, v1,v2 != u} m_u(v1,v2)/m(v1,v2) * p_trans(v1,v2)
//   E_fees_u = a * sum_{v != u} (d(u,v) - 1) * p_trans(u,v)
//   cost_u   = l * (#channels incident to u) * share
//
// with a := N_u * f^T_avg, b := N_v * f_avg (constants, Section IV
// assumptions 1-2), p_trans the modified Zipf distribution, and hop counting
// per *intermediaries* (the proofs of Theorems 7-11 charge d-1 hops: a
// direct channel costs no fees). `share` is 1.0 when each endpoint pays l
// per incident channel (the convention Theorem 8's algebra uses) or 0.5 for
// split-cost accounting (Theorem 6's C/2-per-party convention).
//
// Utilities are recomputed from scratch on the deviated graph — including
// the Zipf re-ranking caused by degree changes — exactly as the proofs do.

#ifndef LCG_TOPOLOGY_GAME_H
#define LCG_TOPOLOGY_GAME_H

#include <cstdint>
#include <vector>

#include "dist/zipf.h"
#include "graph/digraph.h"

namespace lcg::topology {

struct game_params {
  double a = 1.0;  ///< N_u * f^T_avg: fee paid per intermediary hop
  double b = 1.0;  ///< N_v * f_avg: revenue per routed transaction
  double l = 1.0;  ///< per-channel cost
  double s = 1.0;  ///< Zipf exponent of the transaction distribution
  double cost_share = 1.0;  ///< fraction of l each endpoint pays
  /// Section IV's proofs rank receivers on the full graph (a sender's own
  /// channels raise its neighbours' degrees); II-B's definition removes the
  /// sender's edges first. Default follows the proofs so Theorems 7-11
  /// reproduce exactly; see DESIGN.md.
  dist::rank_basis basis = dist::rank_basis::keep_sender_edges;

  void validate() const;
};

struct utility_breakdown {
  double revenue = 0.0;
  double fees = 0.0;      // >= 0; +inf when disconnected
  double cost = 0.0;
  double total = 0.0;     // revenue - fees - cost; -inf when disconnected
};

/// Utility of node `u` in graph `g` (bidirectional channels as edge pairs).
[[nodiscard]] utility_breakdown node_utility(const graph::digraph& g,
                                             graph::node_id u,
                                             const game_params& params);

/// Utilities of all nodes (shares the all-pairs machinery; cheaper than n
/// separate node_utility calls).
[[nodiscard]] std::vector<utility_breakdown> all_utilities(
    const graph::digraph& g, const game_params& params);

/// Undirected channel list of `g`: pairs of directed edge ids (forward,
/// reverse) covering every active bidirectional channel once.
struct channel_pair {
  graph::edge_id forward = graph::invalid_edge;
  graph::edge_id reverse = graph::invalid_edge;
  graph::node_id a = graph::invalid_node;
  graph::node_id b = graph::invalid_node;
};
[[nodiscard]] std::vector<channel_pair> channel_pairs(const graph::digraph& g);

}  // namespace lcg::topology

#endif  // LCG_TOPOLOGY_GAME_H
