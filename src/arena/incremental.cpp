#include "arena/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/traversal.h"
#include "topology/game.h"
#include "util/error.h"

namespace lcg::arena {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();
constexpr std::int64_t far = std::numeric_limits<std::int32_t>::max();

/// Hop distance as an arithmetic-friendly value (unreachable -> "far",
/// which never overflows when a handful of +1 hops are added in int64).
std::int64_t hops(const std::vector<std::int32_t>& dist, graph::node_id v) {
  return dist[v] == graph::unreachable ? far : dist[v];
}

}  // namespace

/// Provider-wide cache of base-graph SSSP DAGs. A DAG from source s depends
/// only on the graph — not on which node is being evaluated — so consecutive
/// activations over an unchanged graph (most of a converging round) share
/// forests across players, even though their pivot plans differ. One graph
/// is cached at a time, as its frozen view; the view's rows()/cols() are
/// the exact active adjacency in traversal order, so comparing them makes a
/// stale hit impossible (no hashing of the graph itself). Candidate slots
/// rest inactive, so an evaluator's work graph freezes to the same arrays
/// as the base graph it was built from.
struct base_dag_cache {
  graph::csr_graph view;  // DAG pred lists hold packed ids of this view
  std::unordered_map<graph::node_id, graph::sp_dag> dag;
};

/// Incremental-mode cached state, all relative to the RESTING (base) graph:
/// the pivot plan and its SSSP forest (pointers into the provider-level
/// cache), per-source through-fractions at u, and base BFS distance arrays
/// from u and toggled peers (the bound cones).
struct candidate_evaluator::session {
  graph::source_plan plan;
  std::shared_ptr<base_dag_cache> cache;
  std::vector<const graph::sp_dag*> dag;   // parallel to plan.sources
  std::vector<std::vector<double>> frac;   // parallel to plan.sources
  std::vector<char> frac_ready;
  std::unordered_map<graph::node_id, std::vector<std::int32_t>> peer_dist;
  std::vector<double> delta;               // accumulation scratch
  graph::sp_dag resweep;                   // re-sweep scratch (buffers kept)
  std::vector<char> affected;              // per-candidate scratch
  std::vector<double> ub_src;              // per-source bound contributions
};

candidate_evaluator::candidate_evaluator(
    const utility_provider& provider, const graph::digraph& base,
    graph::node_id u, const std::vector<graph::node_id>& own,
    const std::vector<graph::node_id>& adds)
    : provider_(provider), work_(base), u_(u), own_(own),
      threshold_(-inf) {
  LCG_EXPECTS(std::is_sorted(own_.begin(), own_.end()));
  for (const graph::node_id peer : own) {
    const graph::edge_id forward = work_.find_edge(u, peer);
    const graph::edge_id reverse = work_.find_edge(peer, u);
    LCG_EXPECTS(forward != graph::invalid_edge &&
                reverse != graph::invalid_edge);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, reverse);
  }
  // Candidate additions exist as deactivated slots so that any candidate
  // set is two O(|diff|) toggles away from the resting (base) state. The
  // slots append to the adjacency lists, which is what keeps traversal of
  // the surviving edges bit-identical whether a slot exists or not.
  for (const graph::node_id peer : adds) {
    const graph::edge_id forward = work_.add_bidirectional(u, peer);
    work_.remove_edge(forward);
    work_.remove_edge(forward + 1);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, forward + 1);
  }
  if (provider_.options().mode == provider_mode::incremental) {
    session_ = std::make_unique<session>();
    session_->plan = graph::betweenness_source_plan(
        work_.node_count(), provider_.backend_for(work_.node_count()), u_);
    std::shared_ptr<base_dag_cache>& cache = provider_.mutable_dag_cache();
    if (!cache) cache = std::make_shared<base_dag_cache>();
    graph::csr_graph view = graph::freeze(work_);
    if (view.rows() != cache->view.rows() ||
        view.cols() != cache->view.cols()) {
      cache->dag.clear();
      cache->view = std::move(view);
    }
    session_->cache = cache;
    session_->dag.assign(session_->plan.sources.size(), nullptr);
    session_->frac.resize(session_->plan.sources.size());
    session_->frac_ready.assign(session_->plan.sources.size(), 0);
    session_->affected.assign(session_->plan.sources.size(), 0);
  }
}

/// The base DAG for plan source i: provider-cache hit when another session
/// already built it on this graph, one counted forest sweep otherwise.
const graph::sp_dag& candidate_evaluator::base_dag(std::size_t i) {
  session& ses = *session_;
  if (ses.dag[i] == nullptr) {
    const graph::node_id s = ses.plan.sources[i];
    auto it = ses.cache->dag.find(s);
    if (it == ses.cache->dag.end()) {
      it = ses.cache->dag
               .emplace(s, graph::shortest_path_dag(ses.cache->view, s))
               .first;
      ++provider_.mutable_stats().forest;
    }
    ses.dag[i] = &it->second;
  }
  return *ses.dag[i];
}

candidate_evaluator::~candidate_evaluator() = default;

void candidate_evaluator::toggle_diff(const std::vector<graph::node_id>& set,
                                      bool on) {
  const std::size_t own_count = own_.size();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    // Own channels rest active, candidate additions rest inactive; only the
    // symmetric difference to the base configuration flips.
    const bool flip = i < own_count ? !in_set : in_set;
    if (!flip) continue;
    const auto& [forward, reverse] = pairs_[i];
    const bool activate = (i < own_count) != on;
    if (activate) {
      work_.restore_edge(forward);
      work_.restore_edge(reverse);
    } else {
      work_.remove_edge(forward);
      work_.remove_edge(reverse);
    }
  }
}

double candidate_evaluator::base_value() {
  if (!session_) return provider_.evaluate(work_, u_).total;

  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  session& ses = *session_;
  const topology::game_params& p = provider_.params();
  const lazy_prob_rows rows(work_, provider_.rank_masses(work_.node_count()),
                            p.basis, provider_.active());

  const std::vector<std::int32_t> dist_u = graph::bfs_distances(work_, u_);
  ++stats.support_bfs;
  const double fees =
      graph::expected_hop_cost(rows.row(u_), dist_u, 1, provider_.a_of(u_));
  const double cost = provider_.l_of(u_) * p.cost_share *
                      static_cast<double>(work_.out_degree(u_));

  double acc = 0.0;
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
    const graph::node_id s = ses.plan.sources[i];
    graph::source_dependencies(
        ses.cache->view, base_dag(i), s,
        [&rows](graph::node_id a, graph::node_id b) { return rows.row(a)[b]; },
        ses.delta);
    ++stats.accumulations;
    acc += ses.plan.scale * ses.delta[u_];
  }
  const double revenue = provider_.b_of(u_) * acc;
  return std::isinf(fees) ? -inf : revenue - fees - cost;
}

double candidate_evaluator::evaluate(const std::vector<graph::node_id>& set) {
  if (!session_) {
    toggle_diff(set, /*on=*/true);
    const double value = provider_.evaluate(work_, u_).total;
    toggle_diff(set, /*on=*/false);
    return value;
  }

  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  session& ses = *session_;
  const topology::game_params& p = provider_.params();

  // The candidate's toggle set: channels leaving and joining u's own set.
  std::vector<graph::node_id> removed, added;
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    if (i < own_.size() && !in_set) removed.push_back(peers_[i]);
    if (i >= own_.size() && in_set) added.push_back(peers_[i]);
  }

  // Base-graph cached state: the forest (affected-source classification +
  // reuse) on the base view, and the bound cones' BFS arrays from u and
  // every toggled peer, which must be filled BEFORE toggling work_.
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) base_dag(i);
  const bool bounding = threshold_ > -inf;
  const auto base_dist = [&](graph::node_id v) -> const auto& {
    auto it = ses.peer_dist.find(v);
    if (it == ses.peer_dist.end()) {
      it = ses.peer_dist.emplace(v, graph::bfs_distances(work_, v)).first;
      ++stats.support_bfs;
    }
    return it->second;
  };
  if (bounding) {
    base_dist(u_);
    for (const graph::node_id q : removed) base_dist(q);
    for (const graph::node_id q : added) base_dist(q);
  }

  // Classify which plan sources the toggles can affect (both orientations
  // of every toggled channel; OR over the toggle set is sound because a
  // FALSE verdict for every toggle pins the whole DAG bitwise).
  std::vector<graph::edge_toggle> toggles;
  toggles.reserve(2 * (removed.size() + added.size()));
  for (const graph::node_id q : removed) {
    toggles.push_back({u_, q, false});
    toggles.push_back({q, u_, false});
  }
  for (const graph::node_id q : added) {
    toggles.push_back({u_, q, true});
    toggles.push_back({q, u_, true});
  }
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
    ses.affected[i] = 0;
    for (const graph::edge_toggle& t : toggles) {
      if (graph::toggle_affects_source(ses.dag[i]->dist, t)) {
        ses.affected[i] = 1;
        break;
      }
    }
  }

  toggle_diff(set, /*on=*/true);
  const lazy_prob_rows rows(work_, provider_.rank_masses(work_.node_count()),
                            p.basis, provider_.active());
  const std::vector<std::int32_t> fee_dist = graph::bfs_distances(work_, u_);
  ++stats.support_bfs;
  const double fees =
      graph::expected_hop_cost(rows.row(u_), fee_dist, 1, provider_.a_of(u_));
  const double cost = provider_.l_of(u_) * p.cost_share *
                      static_cast<double>(work_.out_degree(u_));
  if (std::isinf(fees)) {
    // total is -inf no matter what revenue is (the full path computes the
    // same guard), so no sweep is needed at all.
    toggle_diff(set, /*on=*/false);
    return -inf;
  }

  // --- Upper-bound pruning (DESIGN.md §8). All toggles are incident to u,
  // so any path changed by the candidate either uses an added channel (and
  // then passes u) or loses a base shortest path through a removed channel.
  // Pairs outside both cones keep their base through-fraction exactly;
  // cone pairs get the full headroom w * (1 - frac). The bound phase costs
  // dot products only — not a single sweep.
  if (bounding) {
    const std::vector<std::int32_t>& du = ses.peer_dist.at(u_);
    // The cones' BFS arrays, looked up once rather than per target.
    std::vector<const std::vector<std::int32_t>*> added_dist, removed_dist;
    for (const graph::node_id q : added)
      added_dist.push_back(&ses.peer_dist.at(q));
    for (const graph::node_id q : removed)
      removed_dist.push_back(&ses.peer_dist.at(q));
    ses.ub_src.assign(ses.plan.sources.size(), 0.0);
    double ub_acc = 0.0;
    for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
      const graph::node_id s = ses.plan.sources[i];
      const std::vector<double>& w_row = rows.row(s);
      if (!ses.frac_ready[i]) {
        ses.frac[i] =
            graph::through_fractions(ses.cache->view, *ses.dag[i], u_);
        ses.frac_ready[i] = 1;
      }
      const std::vector<double>& frac = ses.frac[i];
      const std::vector<std::int32_t>& ds = ses.dag[i]->dist;
      double dot = 0.0;
      if (!ses.affected[i]) {
        for (graph::node_id t = 0; t < work_.node_count(); ++t) {
          dot += w_row[t] * frac[t];
        }
      } else {
        // Lower bound on the candidate's distance from s to u: enter u
        // either over base edges or through an added channel's far end.
        std::int64_t du_lb = hops(ds, u_);
        for (const graph::node_id q : added) {
          du_lb = std::min(du_lb, hops(ds, q) + 1);
        }
        for (graph::node_id t = 0; t < work_.node_count(); ++t) {
          if (t == u_ || t == s || w_row[t] <= 0.0) continue;
          // Exit u over base edges or through an added channel.
          std::int64_t exit_lb = hops(du, t);
          for (const std::vector<std::int32_t>* dq : added_dist) {
            exit_lb = std::min(exit_lb, 1 + hops(*dq, t));
          }
          bool cone = du_lb + exit_lb <= hops(ds, t);
          for (std::size_t r = 0; !cone && r < removed.size(); ++r) {
            const graph::node_id q = removed[r];
            const std::vector<std::int32_t>& dq = *removed_dist[r];
            cone = hops(ds, u_) + 1 + hops(dq, t) == hops(ds, t) ||
                   hops(ds, q) + 1 + hops(du, t) == hops(ds, t);
          }
          dot += w_row[t] * (cone ? 1.0 : frac[t]);
        }
      }
      ses.ub_src[i] = ses.plan.scale * dot;
      ub_acc += ses.ub_src[i];
    }
    const double ub_total = provider_.b_of(u_) * ub_acc - fees - cost;
    // Safety margin: the dot products reassociate the accumulation's float
    // sums, so pad the bound before comparing against the threshold. The
    // oracles accept only on STRICT improvement past the threshold, so a
    // candidate at or below it can never win — returning the bound keeps
    // their control flow identical to seeing the true value.
    const double margin = 1e-6 + 1e-9 * std::abs(ub_total);
    if (ub_total + margin <= threshold_) {
      ++stats.pruned;
      toggle_diff(set, /*on=*/false);
      return ub_total;
    }
  }

  // --- Exact phase: bitwise-identical to the full path. Sources merge in
  // ascending order with one scale-multiplied addition each, exactly the
  // sweep engine's sequence; unaffected sources reuse the cached DAG bits on
  // the base view. The toggled graph is frozen once, at the first affected
  // source that survives the truncation check, and re-swept on that view.
  //
  // Early termination (DESIGN.md §8): when bounding, each source's bound
  // contribution from the phase above dominates its exact contribution, so
  // exact-prefix + bound-suffix is itself an upper bound on the final
  // total. Once that drops to the threshold (margin-padded), the remaining
  // re-sweeps cannot change the oracle's decision and the merge stops —
  // the returned partial bound sits below the strict acceptance cut just
  // like the true value would.
  std::vector<double> suffix;
  if (bounding) {
    suffix.assign(ses.plan.sources.size() + 1, 0.0);
    for (std::size_t i = ses.plan.sources.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + ses.ub_src[i];
    }
  }
  std::optional<graph::csr_graph> toggled;
  double acc = 0.0;
  for (std::size_t i = 0; i < ses.plan.sources.size(); ++i) {
    const graph::node_id s = ses.plan.sources[i];
    const auto w = [&rows](graph::node_id a, graph::node_id b) {
      return rows.row(a)[b];
    };
    if (ses.affected[i]) {
      if (bounding) {
        const double potential = provider_.b_of(u_) * (acc + suffix[i]) - fees - cost;
        const double margin = 1e-6 + 1e-9 * std::abs(potential);
        if (potential + margin <= threshold_) {
          ++stats.truncated;
          toggle_diff(set, /*on=*/false);
          return potential;
        }
      }
      if (!toggled) toggled = graph::freeze(work_);
      graph::shortest_path_dag(*toggled, s, ses.resweep);
      graph::source_dependencies(*toggled, ses.resweep, s, w, ses.delta);
      ++stats.resweeps;
    } else {
      graph::source_dependencies(ses.cache->view, *ses.dag[i], s, w,
                                 ses.delta);
      ++stats.accumulations;
    }
    acc += ses.plan.scale * ses.delta[u_];
  }
  const double revenue = provider_.b_of(u_) * acc;
  toggle_diff(set, /*on=*/false);
  return revenue - fees - cost;
}

}  // namespace lcg::arena
