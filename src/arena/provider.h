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
// source plan (graph::betweenness_source_plan) on the caller's thread and
// reads the provider's parameters, rank-mass table and ledgers.
//
// p_trans rows are materialised lazily per evaluation: the sampled backend
// touches only its pivot sources, so at 10^3+ nodes the O(n^2) probability
// matrix of topology::node_utility never needs to exist. With the exact
// backend a utility is BIT-IDENTICAL to topology::node_utility for the
// keep_sender_edges ranking basis (tests pin this); the sampled backend
// trades exactness for scale, deterministically under the fixed seed.

#ifndef LCG_ARENA_PROVIDER_H
#define LCG_ARENA_PROVIDER_H

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "core/params.h"
#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/properties.h"
#include "topology/game.h"

namespace lcg::arena {

struct base_dag_cache;  // arena/incremental.cpp

/// The library-wide default for provider_options::exact_threshold — the one
/// named constant scenarios reference instead of re-inventing magic numbers.
/// NOT to be confused with scale/sampled_betweenness's `exact_threshold`
/// grid parameter (default 4000): that one gates whether an exact REFERENCE
/// sweep is feasible for error measurement, a deliberately different knob
/// (runner/scenarios.cpp documents the distinction at both sites).
inline constexpr std::size_t default_exact_threshold = 192;

/// How candidate_evaluator prices utilities. Both modes return
/// BIT-IDENTICAL results — the incremental path is an evaluation-order
/// optimisation, never an approximation (tests pin utilities and whole
/// arena runs byte-equal).
///
///  * full        — every evaluation sweeps all plan sources from scratch,
///    on one freeze of the evaluated graph.
///  * incremental — oracle activations cache the base graph's per-source
///    DAGs once, re-sweep only sources the candidate's edge toggles can
///    affect (graph::toggle_affects_source) and prune candidates whose
///    utility upper bound cannot beat the incumbent (DESIGN.md §8).
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
  /// Worker threads of node_scores' sweep (never changes results;
  /// forwarded from scenario_context::threads()). Utility evaluations
  /// always sweep on the calling thread.
  std::size_t threads = 1;
  /// Seed of the sampled backend's pivot stream (splitmix64-expanded).
  std::uint64_t seed = 0;
  /// candidate_evaluator's path; results are bitwise mode-independent.
  provider_mode mode = provider_mode::full;
};

/// The arena's sweep cost ledger: how many single-source shortest-path DAG
/// constructions betweenness work actually performed ("effective source
/// sweeps" — the metric BENCH_arena.json tracks), split by origin. Cheap
/// O(n + m) accumulations over cached DAGs and the auxiliary plain BFS
/// passes (fees, bound cones) are tallied separately — they are not
/// sweeps.
struct sweep_stats {
  std::uint64_t full_sweeps = 0;     ///< node_scores + full-mode sweeps
  std::uint64_t forest = 0;          ///< session base-forest constructions
  std::uint64_t resweeps = 0;        ///< affected-source re-sweeps
  std::uint64_t accumulations = 0;   ///< cached-DAG reuses (no BFS)
  std::uint64_t support_bfs = 0;     ///< fee BFS + incremental bound BFS
  std::uint64_t pruned = 0;          ///< candidates discarded bound-only
  std::uint64_t truncated = 0;       ///< exact phases cut short mid-merge
  [[nodiscard]] std::uint64_t effective_sweeps() const noexcept {
    return full_sweeps + forest + resweeps;
  }
};

/// Lazily materialised p_trans rows: the sampled backend only ever asks for
/// its pivot sources (plus the evaluated node's own row for E_fees), so
/// computing rows on demand keeps an evaluation at O(m + k * n) — one O(m)
/// in-degree pass at construction, then O(n + deg u) per row
/// (dist::sender_row) — instead of the O(n^2) full matrix. node_scores and
/// candidate_evaluator both read rows through it.
///
/// Rows reflect the graph as it was at construction: keep `g` unchanged
/// while the object is alive. row() may run on the betweenness backend's
/// worker threads, one thread per source row, so construction does every
/// shared write and row() touches only its own slot.
class lazy_prob_rows {
 public:
  /// `masses` is dist::zipf_rank_masses(k, s) with k >= the node count
  /// (utility_provider::rank_masses); `active` restricts the receiver
  /// universe to masked-in nodes, nullptr meaning everyone.
  lazy_prob_rows(const graph::digraph& g, const std::vector<double>& masses,
                 dist::rank_basis basis,
                 const std::vector<char>* active = nullptr)
      : g_(g), masses_(masses), basis_(basis), active_(active),
        in_deg_(graph::in_degrees(g)), rows_(g.node_count()),
        ready_(g.node_count(), 0) {}

  const std::vector<double>& row(graph::node_id u) const {
    if (!ready_[u]) {
      rows_[u] = dist::sender_row(g_, in_deg_, u, basis_, active_, masses_);
      ready_[u] = 1;
    }
    return rows_[u];
  }

 private:
  const graph::digraph& g_;
  const std::vector<double>& masses_;
  dist::rank_basis basis_;
  const std::vector<char>* active_;
  std::vector<std::size_t> in_deg_;
  mutable std::vector<std::vector<double>> rows_;
  mutable std::vector<char> ready_;
};

class utility_provider {
 public:
  utility_provider(topology::game_params params, provider_options options);

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
  /// lazy_prob_rows sums tie blocks from. Call it on the evaluating thread
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
  /// a LOGICAL counter: the incremental mode's pruned or cache-served
  /// candidates still count one evaluation each, so the column stays
  /// byte-identical between modes.
  [[nodiscard]] std::uint64_t evaluations() const noexcept {
    return evaluations_;
  }

  /// Physical sweep ledger (see sweep_stats). Grows in both modes.
  [[nodiscard]] const sweep_stats& stats() const noexcept { return stats_; }

  /// Hooks for arena/incremental.cpp (candidate_evaluator mutates the
  /// shared ledgers through its provider reference).
  void count_logical_evaluation() const noexcept { ++evaluations_; }
  [[nodiscard]] sweep_stats& mutable_stats() const noexcept { return stats_; }

  /// Shared base-graph DAG cache for the incremental mode (defined in
  /// arena/incremental.cpp): a base SSSP DAG depends only on the graph, not
  /// on the evaluated node, so consecutive activations over an unchanged
  /// graph reuse each other's forests. Keyed on the exact active-edge list —
  /// never a hash — so a stale hit is impossible.
  [[nodiscard]] std::shared_ptr<base_dag_cache>& mutable_dag_cache()
      const noexcept {
    return dag_cache_;
  }

 private:
  topology::game_params params_;
  provider_options options_;
  std::vector<core::cost_params> per_player_;
  const std::vector<char>* active_ = nullptr;
  mutable std::uint64_t evaluations_ = 0;
  mutable sweep_stats stats_;
  mutable std::shared_ptr<base_dag_cache> dag_cache_;
  mutable std::vector<double> rank_masses_;
};

}  // namespace lcg::arena

#endif  // LCG_ARENA_PROVIDER_H
