// Toggle-aware utility evaluation: the arena's one evaluation path.
//
// Every oracle candidate is a tiny set of channel toggles against the
// activation's base graph. candidate_evaluator prices each one by u's
// Brandes dependency delta_s(u) alone, over the source plan of
// graph::betweenness_source_plan, in ascending source order. Weight rows
// come from one dist::sender_rows per lane, whose in-degrees are the
// resting graph's patched by the candidate's slot mask.
//
// The EXACT PHASE is the same code in both provider modes: one freeze of
// the evaluated graph and graph::sweep_dependency from every plan source,
// which reproduces the sweep engine's delta_s(u) bit for bit. In
// incremental mode a candidate is first priced by its SEPARATOR VALUE
// (DESIGN.md §8): every toggle touches u, so shortest paths in G - u (u's
// edges removed) are the same for every candidate, and
// graph::separator_dependency prices delta_s(u) from sweeps of G - u that
// the evaluator runs once, when it starts. The separator value lies within
// separator_margin of the exact one, so it decides every candidate that
// cannot win. Both oracles use one protocol (DESIGN.md §8.3): `price`
// every set, then a decide pass runs `exact` only where the move is
// decided. In full mode a price is the exact value.
//
// In incremental mode E_fees reads d(u, t) from the G - u sweeps; the hop
// counts are integers, so the fee is bitwise a BFS of the candidate graph.
// Full mode always runs that BFS, the reference.
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

/// One lane's state in a candidate_evaluator (DESIGN.md §8.6): the slot
/// mask of the candidate it last opened, the degree state and p_trans rows
/// that mask implies, and the scratch one set's price or one exact sweep
/// touches. Lane 0 is the calling thread's. A lane holds no graph: its rows
/// are assigned the resting in-degrees when the evaluator starts, and
/// `select` shifts them by the slots that change state, so their tie-block
/// tables keep their buffers.
struct evaluator_lane {
  explicit evaluator_lane(dist::sender_rows rows) : rows(std::move(rows)) {}

  dist::sender_rows rows;              // p_trans rows of the open candidate
  std::vector<char> on;                // open candidate's slot mask
  std::vector<double> row_buf;         // row i at [i * n, (i + 1) * n); u's last
  double fees = 0.0;                   // E_fees of the open candidate
  double cost = 0.0;                   // its channel cost
  std::vector<graph::node_id> order;   // BFS FIFO
  graph::cone_scratch cone;            // sweep_dependency scratch
  // The open candidate's active in-edges' tails, and d(u, t) and
  // sigma(u, t) over its active out-edges (full mode: d(u, t) by BFS).
  std::vector<graph::node_id> in;
  std::vector<std::int32_t> dist_ut;
  std::vector<double> sigma_ut;
  sweep_stats stats;  // added to the provider's ledger after each call
};

/// candidate_evaluator's buffers, which the provider keeps between
/// activations (utility_provider::spare_scratch): one lane per lane of the
/// provider's pool, the activation's resting graph, and the separator's
/// G - u rows (DESIGN.md §8.1).
struct evaluator_scratch {
  std::vector<evaluator_lane> lanes;  // lanes[0] is the calling thread's
  const std::vector<char>* active = nullptr;  // the lanes' rows' active mask
  // The base graph plus one deactivated channel per candidate addition.
  // Only the calling thread flips it, around an exact phase's freeze and
  // full mode's fee BFS; lanes read nothing of it but its size.
  graph::digraph work;
  // Row r at [r * n, (r + 1) * n), one per distinct root: first the fee
  // roots — peers and the heads of u's out-edges outside the slot table
  // (counterparty-owned channels, which every candidate keeps) — then the
  // plan sources that are neither.
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<std::size_t> peer_row;     // row of peers_[slot]
  std::vector<std::size_t> fixed_rows;   // rows of the fixed out-edge heads
  std::vector<std::size_t> source_row;   // row of plan source i
  std::vector<graph::node_id> fixed_in;  // tails of u's fixed in-edges
  std::vector<double> dependency;        // exact phase: delta_s(u) per source
};

/// Per-activation evaluation session for one player's candidate own-sets.
///
/// The resting graph holds u's existing own channels (active — the RESTING
/// state is the base graph) plus one DEACTIVATED edge pair per candidate
/// addition: the slot table. A candidate is a slot mask against it. In
/// incremental mode construction sweeps G - u from every node u can have an
/// out-edge to and, unless that shows no set can have finite fees, from the
/// plan sources (counted as forest sweeps), so every later fee, price and
/// exact phase reads d(u, t) from those rows; full mode sweeps nothing
/// until the first evaluation.
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
  /// whether candidates are priced by the separator.
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
  /// Infinite E_fees prices -infinity, which is exact in both modes.
  /// Counts one logical provider evaluation.
  [[nodiscard]] double price(const std::vector<graph::node_id>& set);
  /// prices[i] = price(sets[i]) for every set, bitwise. Incremental mode
  /// prices the sets on the lanes, one set per index; full mode prices
  /// them one at a time, each exact phase on the lanes.
  void price_all(const std::vector<std::vector<graph::node_id>>& sets,
                 std::vector<double>& prices);
  /// Whether price returns exact values (full mode); in incremental mode
  /// candidates are priced by the separator.
  [[nodiscard]] bool prices_are_exact() const noexcept;
  /// The exact value of `set`, bitwise full mode's evaluate, for a set
  /// already counted by price. Counts no logical evaluation.
  [[nodiscard]] double exact(const std::vector<graph::node_id>& set);

  /// E_fees of u with exactly the channels to `set` active, by the path
  /// every evaluation takes: the G - u rows in incremental mode, a BFS of
  /// the candidate graph in full mode. Counts no logical evaluation.
  [[nodiscard]] double fees(const std::vector<graph::node_id>& set);

 private:
  /// The calling thread's lane: its mask is the one flip applies.
  [[nodiscard]] evaluator_lane& caller() noexcept {
    return scratch_->lanes[0];
  }
  /// Sets the lane's slot mask to `set`, shifting its rows' in-degrees by
  /// every channel that changes state.
  void select(evaluator_lane& lane, const std::vector<graph::node_id>& set);
  /// Flips the resting graph's channels to the calling thread's mask (on)
  /// or back to the base (off).
  void flip(bool on);
  /// select(set), then price the lane's fees and cost; fills the plan rows
  /// when E_fees is finite and returns false when it is not (the total is
  /// then -inf).
  bool open(evaluator_lane& lane, const std::vector<graph::node_id>& set);
  /// b * betweenness - fees - cost for the lane's open candidate.
  [[nodiscard]] double total(const evaluator_lane& lane,
                             double betweenness) const;
  /// The incremental-mode price of `set` on `lane`, uncounted.
  [[nodiscard]] double separator_price(evaluator_lane& lane,
                                       const std::vector<graph::node_id>& set);
  /// Sweeps G - u once from each distinct node among every out-neighbour u
  /// can have (the fee roots) and the plan sources, on the lanes; counted
  /// as forest sweeps. The plan sources' own rows are skipped when
  /// every_fee_infinite.
  void build_separator();
  /// Whether every set's E_fees is infinite, read off the rows of the first
  /// `fee_roots` roots before any set is priced.
  [[nodiscard]] bool every_fee_infinite(std::size_t fee_roots) const;
  /// d(u, t) and sigma(u, t) of the lane's open candidate, over its active
  /// out-edges, from the G - u rows.
  void fold_out(evaluator_lane& lane);
  /// Sum over the plan of scale * delta_s(u) for the lane's open
  /// candidate, by the separator identity (after open, which folded
  /// d(u, t)).
  [[nodiscard]] double separator_betweenness(evaluator_lane& lane);
  /// The same sum from the exact phase of the calling thread's open
  /// candidate: one freeze of its graph and one sweep_dependency per plan
  /// source on the lanes, merged in ascending order (after fill_rows).
  [[nodiscard]] double exact_betweenness();
  /// E_fees of u for the lane's open candidate; writes u's p_trans row into
  /// the lane's last row slot.
  double expected_fees(evaluator_lane& lane);
  /// The p_trans rows of every plan source in the lane's degree state, in
  /// one dist::sender_rows::rows batch.
  void fill_rows(evaluator_lane& lane);
  /// Plan source i's p_trans row in the lane (after fill_rows).
  [[nodiscard]] std::span<const double> row(const evaluator_lane& lane,
                                            std::size_t i) const;
  /// Adds every lane's ledger into the provider's and clears it.
  void merge_ledgers();

  const utility_provider& provider_;
  graph::node_id u_;
  std::size_t n_;                      // node count
  std::size_t own_count_;              // peers_[0, own_count_) rest active
  std::size_t fixed_out_ = 0;          // u's active out-edges outside slots
  std::vector<graph::node_id> peers_;  // own + adds, slot-table order
  std::vector<std::pair<graph::edge_id, graph::edge_id>> pairs_;
  graph::source_plan plan_;            // sources and rescale of every sweep
  std::unique_ptr<evaluator_scratch> scratch_;
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_INCREMENTAL_H
