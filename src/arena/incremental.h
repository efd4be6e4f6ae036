// Toggle-aware utility evaluation: the arena's one evaluation path.
//
// Every oracle candidate is a tiny set of channel toggles against the
// activation's base graph. candidate_evaluator prices each one by u's
// Brandes dependency delta_s(u) alone, over the source plan of
// graph::betweenness_source_plan, in ascending source order: the cone
// kernels of graph/betweenness.h accumulate only u's descendant cone and
// reproduce the sweep engine's delta_s(u) bit for bit. Weight rows come
// from one dist::sender_rows per evaluation, whose in-degrees are the
// resting graph's patched by the toggled channels. In full mode that is all
// it does: every plan source is re-swept on one freeze of the toggled
// graph. Incremental mode exploits the toggle structure per oracle
// call (DESIGN.md §8):
//
//   1. SHARED-PIVOT REUSE — the pivot SSSP forest of the base graph is
//      built at most once per activation (the pivot set of
//      node_betweenness_of depends only on (n, k, seed, u), never on edges,
//      so it is identical across candidates) and cached provider-wide per
//      base graph, together with the graph's frozen CSR view that every
//      sweep and accumulation runs on, so activations between applied
//      moves share forests across players. For each candidate, only
//      sources whose DAG the toggles can affect
//      (graph::toggle_affects_source) are re-swept, on one freeze of the
//      toggled graph taken at the first such source; all other sources
//      reuse the cached DAG bits and re-run just the cone accumulation
//      (a per-source cone list built once per session) with the
//      candidate's weight rows — bitwise equal to a fresh sweep because the
//      DAG bits are provably unchanged. Pruned and truncated
//      candidates never freeze.
//   2. UPPER-BOUND PRUNING — before any sweep, a candidate's utility is
//      bounded from above using weight-row dot products against cached
//      through-fractions plus slack only on pairs whose shortest paths a
//      toggle could actually reroute (all toggles are incident to u, so the
//      "possibly affected pair" cone is computable from base BFS arrays).
//      Candidates whose bound cannot beat the incumbent are discarded
//      without a single sweep. Sound because oracle comparisons are strict
//      and the bound is only consumed BELOW the acceptance threshold.
//
// The mode only switches the forest, the affected-source classification
// and the bounds on or off; the fee BFS, the infinite-fee short cut and
// the exact merge are shared code. Results are BIT-IDENTICAL between modes
// and to topology::node_utility under the exact backend — pinned by
// tests/arena_incremental_test.cpp, tests/arena_engine_test.cpp and the
// toggle-sequence sections of graph_betweenness_property_test.

#ifndef LCG_ARENA_INCREMENTAL_H
#define LCG_ARENA_INCREMENTAL_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "arena/provider.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/digraph.h"
#include "graph/traversal.h"

namespace lcg::arena {

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
  /// whether the incremental machinery runs.
  candidate_evaluator(const utility_provider& provider,
                      const graph::digraph& base, graph::node_id u,
                      const std::vector<graph::node_id>& own,
                      const std::vector<graph::node_id>& adds);
  ~candidate_evaluator();

  /// U_u(base) — bitwise equal to topology::node_utility(base, u).total
  /// under the exact backend, in both modes. Incremental mode serves it
  /// from the session forest with zero fresh sweeps beyond the forest
  /// itself; full mode sweeps every plan source on one freeze of the base
  /// graph.
  [[nodiscard]] double base_value();

  /// Utility of `u` with exactly the channels to `set` active. In
  /// incremental mode a candidate whose upper bound cannot exceed the
  /// current threshold returns that bound (a value <= threshold) without
  /// sweeping; otherwise the returned value is bitwise equal to full
  /// mode's. Counts one logical provider evaluation either way.
  [[nodiscard]] double evaluate(const std::vector<graph::node_id>& set);

  /// Pruning threshold: candidates that cannot strictly exceed it may be
  /// discarded on their upper bound alone. Callers with non-threshold
  /// acceptance logic (the greedy engine compares candidates among each
  /// other) must leave it at -infinity, which disables pruning.
  void set_threshold(double threshold) noexcept { threshold_ = threshold; }

 private:
  struct session;  // incremental-mode cached state (forest, cones, BFS)

  /// Flips the candidate's toggled channels (removed_ and added_) on or
  /// back off, patching rows_' in-degrees to match.
  void flip(bool on);
  /// Base DAG for plan source i — provider-cache hit or one forest sweep
  /// on the cached frozen view of the resting graph.
  const graph::sp_dag& base_dag(std::size_t i);
  /// u's dependency cone in base_dag(i), built on first use.
  const graph::dependency_cone& base_cone(std::size_t i);
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
  double threshold_;
  graph::source_plan plan_;            // sources and rescale of every sweep
  dist::sender_rows rows_;             // p_trans rows of the work graph
  std::vector<double> row_buf_;        // row i at [i * n, (i + 1) * n); u's last
  std::vector<std::size_t> removed_;   // candidate's own slots switched off
  std::vector<std::size_t> added_;     // candidate's add slots switched on
  graph::cone_scratch cone_;           // cone-kernel scratch
  std::unique_ptr<session> session_;   // null in full mode
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_INCREMENTAL_H
