// Toggle-aware utility evaluation: the arena's one evaluation path.
//
// Every oracle candidate is a tiny set of channel toggles against the
// activation's base graph. candidate_evaluator prices each one by u's
// Brandes dependency delta_s(u) alone, over the source plan of
// graph::betweenness_source_plan, in ascending source order. Weight rows
// come from one dist::sender_rows per evaluation, whose in-degrees are the
// resting graph's patched by the toggled channels.
//
// The EXACT PHASE is the same code in both provider modes: one freeze of
// the evaluated graph and graph::sweep_dependency from every plan source,
// which reproduces the sweep engine's delta_s(u) bit for bit. In
// incremental mode a candidate is first priced by its SEPARATOR VALUE
// (DESIGN.md §8): every toggle touches u, so shortest paths in G - u (u's
// edges removed) are the same for every candidate, and
// graph::separator_dependency prices delta_s(u) from sweeps of G - u that
// the activation shares, built when the first set with finite fees is
// priced. The separator value lies within separator_margin of the exact
// one, so it decides every candidate that cannot win. Both oracles use one
// protocol (DESIGN.md §8.3): `price` every set, then a decide pass runs
// `exact` only where the move is decided. In full mode a price is the
// exact value.
//
// Once the G - u sweeps exist, E_fees reads d(u, t) from them instead of a
// BFS of the candidate graph; the hop counts are integers, so the fee is
// bitwise the BFS one. Full mode always runs the BFS, the reference.
//
// Exact values are BIT-IDENTICAL between modes and to topology::node_utility
// under the exact backend — pinned by tests/arena_incremental_test.cpp,
// tests/arena_engine_test.cpp and the BetweennessToggle sections of
// graph_betweenness_property_test.

#ifndef LCG_ARENA_INCREMENTAL_H
#define LCG_ARENA_INCREMENTAL_H

#include <cmath>
#include <memory>
#include <span>
#include <vector>

#include "arena/provider.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/digraph.h"
#include "graph/traversal.h"

namespace lcg::arena {

/// Bound on |separator value - exact value| of a utility (DESIGN.md §8.2):
/// a separator value v has its exact value within v +- separator_margin(v).
[[nodiscard]] inline double separator_margin(double value) noexcept {
  return 1e-6 + 1e-9 * std::abs(value);
}

/// Per-activation evaluation session for one player's candidate own-sets.
///
/// The scratch graph holds u's existing own channels (active — the RESTING
/// state is the base graph) plus one DEACTIVATED edge pair per candidate
/// addition; evaluating a set toggles only the symmetric difference to the
/// base configuration around each evaluation. Construction cost is
/// O(|own| + |adds|) slots plus the source plan; no sweep happens until the
/// first evaluation.
class candidate_evaluator {
 public:
  /// `own` = u's current own peers (sorted), `adds` = candidate new peers
  /// (both as the oracles produce them). Every add must be a new channel:
  /// not u, not repeated, and not already connected to u in either
  /// direction (precondition_error otherwise). The provider's mode selects
  /// whether candidates can be priced by the separator.
  candidate_evaluator(const utility_provider& provider,
                      const graph::digraph& base, graph::node_id u,
                      const std::vector<graph::node_id>& own,
                      const std::vector<graph::node_id>& adds);
  ~candidate_evaluator();

  /// U_u(base) — bitwise equal to topology::node_utility(base, u).total
  /// under the exact backend, in both modes: the exact phase on the
  /// resting graph. Counts one logical provider evaluation.
  [[nodiscard]] double base_value();

  /// Utility of `u` with exactly the channels to `set` active: the exact
  /// value, bitwise the same in both modes. Counts one logical provider
  /// evaluation.
  [[nodiscard]] double evaluate(const std::vector<graph::node_id>& set);

  /// The price of `set` (the resting own set prices the base): its
  /// separator value in incremental mode, its exact value in full mode.
  /// Infinite E_fees prices -infinity, which is exact in both modes; the
  /// G - u sweeps are built by the first set priced with finite fees.
  /// Counts one logical provider evaluation.
  [[nodiscard]] double price(const std::vector<graph::node_id>& set);
  /// Whether price returns exact values (full mode); in incremental mode
  /// candidates are priced by the separator.
  [[nodiscard]] bool prices_are_exact() const noexcept;
  /// The exact value of `set`, bitwise full mode's evaluate, for a set
  /// already counted by price. Counts no logical evaluation.
  [[nodiscard]] double exact(const std::vector<graph::node_id>& set);

  /// E_fees of u with exactly the channels to `set` active, by the path
  /// every evaluation takes: the G - u rows once they exist, a BFS of the
  /// candidate graph before. Counts no logical evaluation.
  [[nodiscard]] double fees(const std::vector<graph::node_id>& set);

 private:
  struct separator;  // G - u sweeps and per-candidate scratch

  /// Sets removed_ and added_ to `set`'s toggles against the resting state.
  void select(const std::vector<graph::node_id>& set);
  /// Flips the candidate's toggled channels (removed_ and added_) on or
  /// back off, patching rows_' in-degrees to match.
  void flip(bool on);
  /// select(set), flip on, and price fees_ and cost_; fills the plan rows
  /// when E_fees is finite and returns false when it is not (the total is
  /// then -inf). The caller flips back off.
  bool open(const std::vector<graph::node_id>& set);
  /// b * betweenness - fees_ - cost_ for the open candidate.
  [[nodiscard]] double total(double betweenness) const;
  /// Sweeps G - u once from each distinct node among the plan sources and
  /// every out-neighbour u can have; counted as forest sweeps.
  void build_separator();
  /// d(u, t) and sigma(u, t) of the flipped candidate, over its active
  /// out-edges, from the G - u rows.
  void fold_out();
  /// Sum over the plan of scale * delta_s(u) for the open candidate, by
  /// the separator identity (after open, which folded d(u, t)).
  [[nodiscard]] double separator_betweenness();
  /// The same sum from the exact phase: one freeze of the work graph's
  /// current state and one sweep_dependency per plan source, merged in
  /// ascending order (after fill_rows).
  [[nodiscard]] double exact_betweenness();
  /// E_fees of u in the work graph's current state; writes u's p_trans
  /// row into the last row slot.
  double expected_fees();
  /// The p_trans rows of every plan source in the work graph's current
  /// state, in one dist::sender_rows::rows batch.
  void fill_rows();
  /// Plan source i's p_trans row (after fill_rows).
  [[nodiscard]] std::span<const double> row(std::size_t i) const;

  const utility_provider& provider_;
  graph::digraph work_;
  graph::node_id u_;
  std::size_t own_count_;              // peers_[0, own_count_) rest active
  std::vector<graph::node_id> peers_;  // own + adds, slot-table order
  std::vector<std::pair<graph::edge_id, graph::edge_id>> pairs_;
  double fees_ = 0.0;                  // E_fees of the open candidate
  double cost_ = 0.0;                  // its channel cost
  graph::source_plan plan_;            // sources and rescale of every sweep
  dist::sender_rows rows_;             // p_trans rows of the work graph
  std::vector<double> row_buf_;        // row i at [i * n, (i + 1) * n); u's last
  std::vector<std::size_t> removed_;   // candidate's own slots switched off
  std::vector<std::size_t> added_;     // candidate's add slots switched on
  graph::cone_scratch cone_;           // sweep_dependency scratch
  std::unique_ptr<separator> separator_;  // built by the first finite price
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_INCREMENTAL_H
