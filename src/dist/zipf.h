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
#include <span>
#include <utility>
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

/// p_trans rows over one degree state; every entry point below builds its
/// rows here. Ranks the
/// receivers of a sender `u` — every node when `u` is invalid_node (the
/// newcomer view) — by in-degree, given the degrees of the current graph
/// state and `masses` == zipf_rank_masses(k, s) with k >= the node count.
/// drop_sender_edges is applied as a decrement over u's active out-edges;
/// ranking is a counting pass over the integer degrees and each tie block
/// sums its masses in ascending rank order, so rows are bitwise equal to a
/// stable-sort ranking; a row is each member's block mass over the members'
/// node-order total. Receivers with `active[v]` false (when `active` is
/// non-null) are left out of the ranking and get p[v] = 0; an inactive
/// sender gets an all-zero row, and a row without members is all zero.
///
/// Many rows over one degree state share work: the members' in-degree
/// histogram is built once and patched per toggled edge, and under
/// keep_sender_edges a tie-block table depends only on the excluded
/// sender's degree, so senders of equal in-degree share one table.
/// drop_sender_edges builds its table per sender through the same
/// function. Not for concurrent use: materialise the rows a parallel sweep
/// reads before it starts.
class sender_rows {
 public:
  /// `masses` and `active` (nullptr: every node) must outlive the object.
  sender_rows(rank_basis basis, const std::vector<char>* active,
              const std::vector<double>& masses);

  /// Starts a degree state: `in_deg` == graph::in_degrees(g). O(n).
  void assign(const std::vector<std::size_t>& in_deg);
  /// One active edge into v appears (up) or disappears: O(1).
  void shift(graph::node_id v, bool up);

  /// Writes sender u's row into `p` (size n) for the graph `g` whose
  /// in-degrees the object holds. O(n + deg u), plus O(n + max in-degree)
  /// for each tie-block table built.
  void row(const graph::digraph& g, graph::node_id u, std::span<double> p);
  /// row() for every sender, row j into out[j * n, (j + 1) * n). Under
  /// keep_sender_edges each pass over the receivers sums four senders'
  /// node-order totals in independent accumulators, so the adds of
  /// different rows overlap instead of waiting on one another.
  void rows(const graph::digraph& g, std::span<const graph::node_id> senders,
            std::span<double> out);

 private:
  [[nodiscard]] bool is_active(std::size_t v) const {
    return active_ == nullptr || (*active_)[v];
  }
  void move_degree(graph::node_id v, bool up);
  /// Index in tables_ of the keep_sender_edges table without one member of
  /// degree `excluded` (no_sender: the newcomer view, nobody excluded),
  /// built on first use in the current degree state.
  static constexpr std::size_t no_sender = static_cast<std::size_t>(-1);
  std::size_t keep_table(std::size_t excluded);
  void drop_row(const graph::digraph& g, graph::node_id u,
                std::span<double> p);

  rank_basis basis_;
  const std::vector<char>* active_;
  const std::vector<double>* masses_;
  std::vector<std::size_t> deg_;
  std::vector<std::size_t> count_;  // active nodes per in-degree
  // keep_sender_edges: (excluded degree, table); [0, live_) are current.
  std::vector<std::pair<std::size_t, std::vector<double>>> tables_;
  std::size_t live_ = 0;
  std::vector<double> scratch_;   // drop_sender_edges: the per-sender table
  std::vector<double> quotient_;  // block mass / total, per degree
  // rows() scratch, per sender ranked on a shared table: (its index in
  // `senders`, its table), the table's masses, its id and its total.
  std::vector<std::pair<std::size_t, std::size_t>> keep_;
  std::vector<const double*> lane_block_;
  std::vector<graph::node_id> lane_sender_;
  std::vector<double> total_;
};

/// One row: sender_rows(basis, active, masses) assigned `in_deg` ==
/// graph::in_degrees(g) (one O(m) pass serves any number of calls), then
/// row(g, u). Costs O(n + deg u + max in-degree).
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
