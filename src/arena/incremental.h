// Toggle-aware utility evaluation: the arena's one evaluation path.
//
// Every oracle candidate is a tiny set of channel toggles against the
// activation's base graph. candidate_evaluator prices each one by u's
// Brandes dependency delta_s(u) alone, over the source plan of
// graph::betweenness_source_plan, in ascending source order. Weight rows
// come from one dist::sender_rows per lane, whose in-degrees are the
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
#include <cstdint>
#include <memory>
#include <span>
#include <utility>
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

/// One lane's state in a candidate_evaluator (DESIGN.md §8.6): a copy of
/// the activation's work graph with its degree state and p_trans rows, and
/// the scratch one set's price or one exact sweep touches. Lane 0 is the
/// calling thread's; the others copy its resting state before the first
/// price they run in an activation. A lane's rows are assigned each
/// resting degree state, so their tie-block tables keep their buffers.
struct evaluator_lane {
  explicit evaluator_lane(dist::sender_rows rows) : rows(std::move(rows)) {}

  graph::digraph work;                 // resting state between prices
  dist::sender_rows rows;              // p_trans rows of `work`
  std::vector<double> row_buf;         // row i at [i * n, (i + 1) * n); u's last
  std::vector<std::size_t> removed;    // open candidate's own slots switched off
  std::vector<std::size_t> added;      // open candidate's add slots switched on
  double fees = 0.0;                   // E_fees of the open candidate
  double cost = 0.0;                   // its channel cost
  std::vector<std::int32_t> fee_dist;  // fee BFS row
  std::vector<graph::node_id> order;   // BFS FIFO
  graph::cone_scratch cone;            // sweep_dependency scratch
  // The open candidate's active in-edges' tails, the rows of its active
  // out-edges' heads, and d(u, t) and sigma(u, t) over them.
  std::vector<graph::node_id> in;
  std::vector<std::size_t> out;
  std::vector<std::int32_t> dist_ut;
  std::vector<double> sigma_ut;
  sweep_stats stats;  // added to the provider's ledger after each call
};

/// candidate_evaluator's buffers, which the provider keeps between
/// activations (utility_provider::spare_scratch): one lane per lane of the
/// provider's pool, and the separator's G - u rows (DESIGN.md §8.1).
struct evaluator_scratch {
  std::vector<evaluator_lane> lanes;  // lanes[0] is the calling thread's
  const std::vector<char>* active = nullptr;  // the lanes' rows' active mask
  std::vector<std::size_t> in_degrees;        // of the resting graph
  // Row r at [r * n, (r + 1) * n). Rows [0, |plan|) are the plan sources
  // in plan order; the other roots — peers and the heads of u's out-edges
  // outside the slot table (counterparty-owned channels, which every
  // candidate keeps) — share a source's row or get one of their own.
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<std::size_t> peer_row;     // row of peers_[slot]
  std::vector<std::size_t> fixed_rows;   // rows of the fixed out-edge heads
  std::vector<graph::node_id> fixed_in;  // tails of u's fixed in-edges
  std::vector<double> dependency;        // exact phase: delta_s(u) per source
};

/// Per-activation evaluation session for one player's candidate own-sets.
///
/// The scratch graph holds u's existing own channels (active — the RESTING
/// state is the base graph) plus one DEACTIVATED edge pair per candidate
/// addition; evaluating a set toggles only the symmetric difference to the
/// base configuration around each evaluation. Construction cost is
/// O(|own| + |adds|) slots plus the source plan; no sweep happens until the
/// first evaluation.
///
/// Three regions of an activation run on the provider's lanes (DESIGN.md
/// §8.6): the G - u sweeps, the separator prices of price_all, and each
/// exact phase's plan sources. Every result is bitwise the same at every
/// lane count.
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
  /// Hands the scratch back to the provider for the next activation.
  ~candidate_evaluator();
  candidate_evaluator(const candidate_evaluator&) = delete;
  candidate_evaluator& operator=(const candidate_evaluator&) = delete;

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
  /// prices[i] = price(sets[i]) for every set, bitwise. The calling thread
  /// prices the sets up to the one that builds the G - u sweeps (every set
  /// in full mode, whose exact phases run on the lanes); the rest are
  /// priced on the lanes, one set per index.
  void price_all(const std::vector<std::vector<graph::node_id>>& sets,
                 std::vector<double>& prices);
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
  /// The calling thread's lane: it holds the activation's resting graph.
  [[nodiscard]] evaluator_lane& caller() noexcept {
    return scratch_->lanes[0];
  }
  /// Sets the lane's removed and added to `set`'s toggles against the
  /// resting state.
  void select(evaluator_lane& lane, const std::vector<graph::node_id>& set);
  /// Flips the lane's toggled channels (removed and added) on or back off,
  /// patching its rows' in-degrees to match.
  void flip(evaluator_lane& lane, bool on);
  /// select(set), flip on, and price the lane's fees and cost; fills the
  /// plan rows when E_fees is finite and returns false when it is not (the
  /// total is then -inf). The caller flips back off.
  bool open(evaluator_lane& lane, const std::vector<graph::node_id>& set);
  /// b * betweenness - fees - cost for the lane's open candidate.
  [[nodiscard]] double total(const evaluator_lane& lane,
                             double betweenness) const;
  /// The incremental-mode price of `set` on `lane`, uncounted. Only the
  /// calling thread's lane may build the G - u sweeps.
  [[nodiscard]] double separator_price(evaluator_lane& lane,
                                       const std::vector<graph::node_id>& set);
  /// Sweeps G - u once from each distinct node among the plan sources and
  /// every out-neighbour u can have, on the lanes; counted as forest
  /// sweeps.
  void build_separator();
  /// d(u, t) and sigma(u, t) of the lane's flipped candidate, over its
  /// active out-edges, from the G - u rows.
  void fold_out(evaluator_lane& lane);
  /// Sum over the plan of scale * delta_s(u) for the lane's open
  /// candidate, by the separator identity (after open, which folded
  /// d(u, t)).
  [[nodiscard]] double separator_betweenness(evaluator_lane& lane);
  /// The same sum from the exact phase of the calling thread's open
  /// candidate: one freeze of its work graph and one sweep_dependency per
  /// plan source on the lanes, merged in ascending order (after
  /// fill_rows).
  [[nodiscard]] double exact_betweenness();
  /// E_fees of u in the lane's work graph; writes u's p_trans row into the
  /// lane's last row slot.
  double expected_fees(evaluator_lane& lane);
  /// The p_trans rows of every plan source in the lane's work graph, in
  /// one dist::sender_rows::rows batch.
  void fill_rows(evaluator_lane& lane);
  /// Plan source i's p_trans row in the lane (after fill_rows).
  [[nodiscard]] std::span<const double> row(const evaluator_lane& lane,
                                            std::size_t i) const;
  /// Copies the calling thread's resting state into the other lanes, once
  /// per activation.
  void sync_lanes();
  /// Adds every lane's ledger into the provider's and clears it.
  void merge_ledgers();

  const utility_provider& provider_;
  graph::node_id u_;
  std::size_t n_;                      // node count
  std::size_t own_count_;              // peers_[0, own_count_) rest active
  std::vector<graph::node_id> peers_;  // own + adds, slot-table order
  std::vector<std::pair<graph::edge_id, graph::edge_id>> pairs_;
  graph::source_plan plan_;            // sources and rescale of every sweep
  std::unique_ptr<evaluator_scratch> scratch_;
  bool separated_ = false;  // the G - u rows are built
  bool synced_ = false;     // lanes 1.. hold the resting state
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_INCREMENTAL_H
