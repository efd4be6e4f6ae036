// The arena's utility provider: game parameters, backend rules and ledgers.
//
// Every best-response evaluation bottoms out in the Section IV utility
// U_u = E_rev_u - E_fees_u - cost_u (topology/game.h). At population scale
// the dominant term is E_rev_u — a weighted node-betweenness sweep — and
// the provider fixes which sources that sweep visits:
//
//   * n <= exact_threshold  -> every source (the exact backend), and
//   * n >  exact_threshold  -> the Brandes–Pich SAMPLED pivot set with a
//     fixed pivot-stream seed (Brandes & Pich 2007: k pivots rescaled by
//     population/k, which keeps the estimate unbiased). The population is
//     all n nodes for whole-graph sweeps (n/k) and the n - 1 sources != u
//     for a single node's utility ((n-1)/k); the property harness pins
//     both. Each evaluation drops from O(n(n+m)) to O(k(n+m)).
//
// The provider itself runs one computation: node_scores, the whole-graph
// ranking sweep of the move oracles. Utilities are priced by
// arena::candidate_evaluator (arena/incremental.h), which sweeps the same
// source plan (graph::betweenness_source_plan) and reads the provider's
// parameters, rank-mass table and ledgers. Both run on the provider's one
// lane_pool (util/lanes.h) of `threads` lanes, started with the provider:
// node_scores' sweep, and the G - u sweeps, separator prices and exact
// phases of every activation (DESIGN.md §8.6). Results are bitwise the
// same at every lane count.
//
// p_trans rows are materialised only for the senders a sweep reads — the
// plan sources, plus the evaluated node's own row for E_fees — through one
// dist::sender_rows per degree state, which shares the in-degree histogram
// and the tie-block tables across rows. The sampled backend therefore
// builds k + 1 rows, so at 10^3+ nodes the O(n^2) probability matrix of
// topology::node_utility never needs to exist. The provider takes only the
// keep_sender_edges ranking basis, under which a row depends on the degree
// state alone; with the exact backend a utility is BIT-IDENTICAL to
// topology::node_utility (tests pin this). The sampled backend trades
// exactness for scale, deterministically under the fixed seed.

#ifndef LCG_ARENA_PROVIDER_H
#define LCG_ARENA_PROVIDER_H

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "topology/game.h"
#include "util/lanes.h"

namespace lcg::arena {

struct evaluator_scratch;  // arena/incremental.h

/// The library-wide default for provider_options::exact_threshold — the one
/// named constant scenarios reference instead of re-inventing magic numbers.
/// NOT to be confused with scale/sampled_betweenness's `exact_threshold`
/// grid parameter (default 4000): that one gates whether an exact REFERENCE
/// sweep is feasible for error measurement, a deliberately different knob
/// (runner/scenarios.cpp documents the distinction at both sites).
inline constexpr std::size_t default_exact_threshold = 192;

/// How candidate_evaluator prices utilities. Both modes return
/// BIT-IDENTICAL results — the separator only skips exact work whose result
/// could not change an oracle decision (tests pin utilities and whole arena
/// runs byte-equal).
///
///  * full        — exact: every evaluation sweeps all plan sources on one
///    freeze of the evaluated graph, and runs a fee BFS.
///  * incremental — priced: candidates are priced first by the separator
///    identity over sweeps of G - u that the activation shares, and run
///    the exact sweeps only where that value, within its margin, cannot
///    settle the oracle's decision (DESIGN.md §8).
enum class provider_mode { full, incremental };

/// Parses "full" / "incremental"; throws precondition_error otherwise
/// (scenario and CLI parameter surface).
[[nodiscard]] provider_mode provider_mode_from_name(std::string_view name);
[[nodiscard]] std::string_view provider_mode_name(provider_mode mode);

struct provider_options {
  /// Largest node count still served by the exact parallel backend.
  std::size_t exact_threshold = default_exact_threshold;
  /// Pivot count of the sampled backend above the threshold.
  std::size_t pivots = 32;
  /// Lanes of the provider's pool, the calling thread included (0 = the
  /// hardware concurrency): node_scores' sweep and the G - u sweeps,
  /// separator prices and exact phases of every activation run on them.
  /// Never changes results; forwarded from scenario_context::threads().
  std::size_t threads = 1;
  /// Seed of the sampled backend's pivot stream (splitmix64-expanded).
  std::uint64_t seed = 0;
  /// candidate_evaluator's path; results are bitwise mode-independent.
  provider_mode mode = provider_mode::full;
};

/// The arena's sweep cost ledger: how many single-source shortest-path DAG
/// constructions betweenness work actually performed ("effective source
/// sweeps" — the metric BENCH_arena.json tracks), split by origin. The
/// separator's per-source pricing, the fee BFS and the candidates settled
/// without an exact phase are tallied separately — they are not sweeps
/// (DESIGN.md §8.4).
struct sweep_stats {
  std::uint64_t full_sweeps = 0;     ///< node_scores + full-mode exact sweeps
  std::uint64_t forest = 0;          ///< G - u sweeps of the separator
  std::uint64_t resweeps = 0;        ///< incremental-mode exact sweeps
  std::uint64_t accumulations = 0;   ///< sources priced by the separator
  /// Fee BFS runs: one per full-mode evaluation. Incremental mode runs
  /// none; its fees come from the G - u sweeps.
  std::uint64_t support_bfs = 0;
  /// Candidates a decide pass, an idle local activation or greedy's empty
  /// set settled without an exact phase (incremental mode only; -inf
  /// candidates and the base are not counted).
  std::uint64_t pruned = 0;
  [[nodiscard]] std::uint64_t effective_sweeps() const noexcept {
    return full_sweeps + forest + resweeps;
  }
};

class utility_provider {
 public:
  /// Throws precondition_error unless params.basis is keep_sender_edges.
  utility_provider(topology::game_params params, provider_options options);
  ~utility_provider();

  [[nodiscard]] const topology::game_params& params() const noexcept {
    return params_;
  }
  [[nodiscard]] const provider_options& options() const noexcept {
    return options_;
  }

  // --- population heterogeneity -----------------------------------------
  //
  // Per-player (a, b, l) triples and an active-player mask, both optional.
  // The Section IV utility touches a/b/l ONLY as scalars of the evaluated
  // node (the betweenness sweep itself is parameter-independent), so
  // heterogeneity threads through as three per-u accessors. When the
  // per-player table is empty — or holds the exact global triple, the
  // point-mass degenerate — every accessor returns the very same double the
  // homogeneous path reads, which is what keeps the population engine
  // bit-identical to the static arena.

  /// Installs per-player triples (size = node count; validated) or clears
  /// them (empty vector).
  void set_player_params(std::vector<core::cost_params> per_player);
  [[nodiscard]] const std::vector<core::cost_params>& player_params()
      const noexcept {
    return per_player_;
  }

  /// Non-owning active mask (size = node count) or nullptr = everyone
  /// active. The caller keeps the vector alive and mutates it between
  /// evaluations (the population engine flips entries on churn events).
  void set_active(const std::vector<char>* active) noexcept {
    active_ = active;
  }
  [[nodiscard]] const std::vector<char>* active() const noexcept {
    return active_;
  }

  [[nodiscard]] double a_of(graph::node_id u) const {
    return per_player_.empty() ? params_.a : per_player_[u].a;
  }
  [[nodiscard]] double b_of(graph::node_id u) const {
    return per_player_.empty() ? params_.b : per_player_[u].b;
  }
  [[nodiscard]] double l_of(graph::node_id u) const {
    return per_player_.empty() ? params_.l : per_player_[u].l;
  }

  /// Full game_params as player `u` sees them: the global s / cost_share /
  /// basis with u's own (a, b, l). What the brute oracle hands to
  /// topology::best_deviation.
  [[nodiscard]] topology::game_params params_for(graph::node_id u) const {
    topology::game_params p = params_;
    p.a = a_of(u);
    p.b = b_of(u);
    p.l = l_of(u);
    return p;
  }

  /// dist::zipf_rank_masses for ranks 1..n at the game's s, built on the
  /// first call for a node count this large and reused after — the table
  /// dist::sender_rows sums tie blocks from. Call it on the evaluating thread
  /// before any backend starts; the reference stays valid until a call
  /// with a larger n.
  [[nodiscard]] const std::vector<double>& rank_masses(std::size_t n) const {
    if (rank_masses_.size() < n)
      rank_masses_ = dist::zipf_rank_masses(n, params_.s);
    return rank_masses_;
  }

  /// Backend the provider would use for an n-node graph (threshold switch).
  [[nodiscard]] graph::betweenness_options backend_for(std::size_t n) const;
  [[nodiscard]] bool sampled_at(std::size_t n) const {
    return n > options_.exact_threshold;
  }

  /// Demand-weighted node betweenness of every node (one sweep, same
  /// backend rules) — the candidate-ranking signal of the move oracles.
  [[nodiscard]] std::vector<double> node_scores(const graph::digraph& g) const;

  /// Utility evaluations consumed so far (the arena's cost ledger). This is
  /// a LOGICAL counter: every base value and candidate of an activation
  /// counts one, whether it was priced, settled or never needed, so the
  /// column stays byte-identical between modes.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Physical sweep ledger (see sweep_stats). Grows in both modes.
  [[nodiscard]] const sweep_stats& stats() const noexcept { return stats_; }

  /// Hooks for arena/incremental.cpp and arena/oracles.cpp (the evaluator
  /// and the oracles mutate the shared ledgers through their provider
  /// reference: the oracles count a base value they never need, and the
  /// local oracle the candidates it settled).
  void count_logical_evaluation() const noexcept { ++evaluations_; }
  [[nodiscard]] sweep_stats& mutable_stats() const noexcept { return stats_; }
  /// The lanes node_scores and candidate_evaluator run on.
  [[nodiscard]] lane_pool& lanes() const noexcept { return lanes_; }
  /// Where a candidate_evaluator leaves its lane scratch for the next
  /// activation to reuse (null before the first and while one is alive).
  [[nodiscard]] std::unique_ptr<evaluator_scratch>& spare_scratch()
      const noexcept {
    return spare_scratch_;
  }

 private:
  topology::game_params params_;
  provider_options options_;
  std::vector<core::cost_params> per_player_;
  const std::vector<char>* active_ = nullptr;
  mutable std::uint64_t evaluations_ = 0;
  mutable sweep_stats stats_;
  mutable std::vector<double> rank_masses_;
  mutable std::unique_ptr<evaluator_scratch> spare_scratch_;
  mutable lane_pool lanes_;
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_PROVIDER_H
