// The paper's modified Zipf transaction distribution (Section II-B).
//
// Receivers are ranked by in-degree (highest degree = rank 1); a receiver's
// raw Zipf mass is 1/rank^s. Ties are resolved the way the paper's proofs
// do: a block of k nodes sharing a degree occupies k consecutive ranks and
// every member receives the *average* of the block's Zipf masses, so equal
// degrees imply equal transaction probabilities.
//
// Two ranking bases are supported because the paper itself uses both:
// Section II-B defines p_trans on V' = G minus the sender's own channels
// (`drop_sender_edges`), while the Section IV proofs rank receivers on the
// full graph (`keep_sender_edges`) — see DESIGN.md.

#ifndef LCG_DIST_ZIPF_H
#define LCG_DIST_ZIPF_H

#include <cstddef>
#include <vector>

#include "graph/digraph.h"

namespace lcg::dist {

/// Which graph the receiver ranking is computed on, from the sender's view.
enum class rank_basis {
  keep_sender_edges,  ///< rank on the full graph (Section IV proofs)
  drop_sender_edges,  ///< rank on G minus the sender's channels (II-B)
};

/// pow(r, -s) for the ranks r = 1..n, entry r - 1: the table every row
/// build sums its tie blocks from. It depends only on (n, s), so a caller
/// that builds many rows (the arena provider, the matrix below) builds it
/// once and shares it read-only; a table longer than a row needs is fine.
[[nodiscard]] std::vector<double> zipf_rank_masses(std::size_t n, double s);

/// The p_trans row builder every entry point below calls. Ranks the
/// receivers of sender `u` — every node when `u` is invalid_node (the
/// newcomer view) — given `in_deg` == graph::in_degrees(g) for the current
/// graph state (one O(m) pass serves any number of calls) and `masses` ==
/// zipf_rank_masses(k, s) with k >= the node count.
/// drop_sender_edges is applied as a decrement over u's active out-edges;
/// ranking is a counting pass over the integer degrees and each tie block
/// sums its masses in ascending rank order, so rows are bitwise equal to a
/// stable-sort ranking. Receivers with `active[v]` false (when `active` is
/// non-null) are left out of the ranking and get p[v] = 0; an inactive
/// sender gets an all-zero row. Costs O(n + deg u + max in-degree).
[[nodiscard]] std::vector<double> sender_row(
    const graph::digraph& g, const std::vector<std::size_t>& in_deg,
    graph::node_id u, rank_basis basis, const std::vector<char>* active,
    const std::vector<double>& masses);

/// Zipf mass per entry of `degrees` under competition ranking with averaged
/// ties: sorting degrees descending, the i-th distinct block of size k
/// occupying ranks [r, r+k-1] assigns each member
/// (sum_{j=r}^{r+k-1} j^-s) / k. Not normalised. O(n + max degree).
[[nodiscard]] std::vector<double> rank_factors(
    const std::vector<std::size_t>& degrees, double s);

/// p_trans(u, .) over all nodes of `g`: the normalised rank factors of the
/// other nodes (p[u] == 0), ranked by in-degree on the basis graph.
/// `active` restricts the receiver universe for churning populations:
/// nodes with `active[v]` false are excluded from the ranking and get
/// p[v] = 0 (a departed player neither receives demand nor poisons
/// everyone's reachability term with an unreachable positive-probability
/// receiver), and a departed sender gets an all-zero row. nullptr means
/// all nodes active.
[[nodiscard]] std::vector<double> transaction_probabilities(
    const graph::digraph& g, graph::node_id u, double s,
    rank_basis basis = rank_basis::drop_sender_edges,
    const std::vector<char>* active = nullptr);

/// All rows at once; row u equals transaction_probabilities(g, u, s, basis).
[[nodiscard]] std::vector<std::vector<double>> transaction_probability_matrix(
    const graph::digraph& g, double s,
    rank_basis basis = rank_basis::drop_sender_edges);

/// The receiver distribution of a node *about to join* `g` (Section II-C):
/// every existing node is ranked by its current in-degree; nothing is
/// excluded because the newcomer has no channels yet.
[[nodiscard]] std::vector<double> newcomer_transaction_probabilities(
    const graph::digraph& g, double s);

}  // namespace lcg::dist

#endif  // LCG_DIST_ZIPF_H
