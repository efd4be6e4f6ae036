#include "arena/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <unordered_map>

#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/properties.h"
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
/// the SSSP forest of the plan sources (pointers into the provider-level
/// cache), per-source cone lists and through-fractions at u, and base BFS
/// distance arrays from u and toggled peers (the bound cones), plus the
/// bound phase's per-candidate scratch.
struct candidate_evaluator::session {
  std::shared_ptr<base_dag_cache> cache;
  std::vector<const graph::sp_dag*> dag;    // parallel to plan_.sources
  std::vector<graph::dependency_cone> cone; // parallel to plan_.sources
  std::vector<char> cone_ready;
  // Parallel to plan_.sources, empty until built: through-fractions at u
  // and their support (the t with frac[t] > 0).
  std::vector<std::vector<double>> frac;
  std::vector<std::vector<graph::node_id>> support;
  // Base BFS rows by peer slot, the last slot u's own; empty until built.
  std::vector<std::vector<std::int32_t>> peer_dist;
  // Per-candidate scratch.
  std::vector<graph::edge_toggle> toggles;
  std::vector<char> affected;
  std::vector<std::int64_t> exit_lb;
  std::vector<double> ub_src;               // per-source bound contributions
  std::vector<double> suffix;
};

candidate_evaluator::candidate_evaluator(
    const utility_provider& provider, const graph::digraph& base,
    graph::node_id u, const std::vector<graph::node_id>& own,
    const std::vector<graph::node_id>& adds)
    : provider_(provider), work_(base), u_(u), own_count_(own.size()),
      threshold_(-inf),
      rows_(provider.params().basis, provider.active(),
            provider.rank_masses(base.node_count())) {
  LCG_EXPECTS(std::is_sorted(own.begin(), own.end()));
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
    // An add must be a new channel, or the slot would be a parallel pair:
    // no repeat and no existing channel with u in either direction (own
    // peers sit in peers_, counterparty-owned channels show up in
    // find_edge). add_bidirectional itself rejects u.
    LCG_EXPECTS(std::find(peers_.begin(), peers_.end(), peer) ==
                peers_.end());
    LCG_EXPECTS(work_.find_edge(u, peer) == graph::invalid_edge &&
                work_.find_edge(peer, u) == graph::invalid_edge);
    const graph::edge_id forward = work_.add_bidirectional(u, peer);
    work_.remove_edge(forward);
    work_.remove_edge(forward + 1);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, forward + 1);
  }
  const std::size_t n = work_.node_count();
  plan_ = graph::betweenness_source_plan(n, provider_.backend_for(n), u_);
  rows_.assign(graph::in_degrees(work_));
  row_buf_.resize((plan_.sources.size() + 1) * n);
  if (provider_.options().mode == provider_mode::incremental) {
    session_ = std::make_unique<session>();
    std::shared_ptr<base_dag_cache>& cache = provider_.mutable_dag_cache();
    if (!cache) cache = std::make_shared<base_dag_cache>();
    graph::csr_graph view = graph::freeze(work_);
    if (view.rows() != cache->view.rows() ||
        view.cols() != cache->view.cols()) {
      cache->dag.clear();
      cache->view = std::move(view);
    }
    session_->cache = cache;
    session_->dag.assign(plan_.sources.size(), nullptr);
    session_->cone.resize(plan_.sources.size());
    session_->cone_ready.assign(plan_.sources.size(), 0);
    session_->frac.resize(plan_.sources.size());
    session_->support.resize(plan_.sources.size());
    session_->peer_dist.resize(peers_.size() + 1);
    session_->affected.assign(plan_.sources.size(), 0);
  }
}

/// The base DAG for plan source i: provider-cache hit when another session
/// already built it on this graph, one counted forest sweep otherwise.
const graph::sp_dag& candidate_evaluator::base_dag(std::size_t i) {
  session& ses = *session_;
  if (ses.dag[i] == nullptr) {
    const graph::node_id s = plan_.sources[i];
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

const graph::dependency_cone& candidate_evaluator::base_cone(std::size_t i) {
  session& ses = *session_;
  if (!ses.cone_ready[i]) {
    graph::build_dependency_cone(ses.cache->view, base_dag(i), u_,
                                 ses.cone[i]);
    ses.cone_ready[i] = 1;
  }
  return ses.cone[i];
}

std::span<const double> candidate_evaluator::row(std::size_t i) const {
  const std::size_t n = work_.node_count();
  return {row_buf_.data() + i * n, n};
}

double candidate_evaluator::expected_fees() {
  const std::size_t n = work_.node_count();
  const std::span<double> own(row_buf_.data() + plan_.sources.size() * n, n);
  rows_.row(work_, u_, own);
  const std::vector<std::int32_t> dist_u = graph::bfs_distances(work_, u_);
  ++provider_.mutable_stats().support_bfs;
  return graph::expected_hop_cost(own, dist_u, 1, provider_.a_of(u_));
}

void candidate_evaluator::fill_rows() {
  const std::size_t n = work_.node_count();
  rows_.rows(work_, plan_.sources,
             std::span<double>(row_buf_.data(), plan_.sources.size() * n));
}

candidate_evaluator::~candidate_evaluator() = default;

void candidate_evaluator::flip(bool on) {
  // Own channels rest active, candidate additions rest inactive; only the
  // symmetric difference to the base configuration flips. Each channel
  // moves the in-degree of both its ends by one.
  const auto set_channel = [&](std::size_t slot, bool active) {
    const auto& [forward, reverse] = pairs_[slot];
    if (active) {
      work_.restore_edge(forward);
      work_.restore_edge(reverse);
    } else {
      work_.remove_edge(forward);
      work_.remove_edge(reverse);
    }
    rows_.shift(peers_[slot], active);
    rows_.shift(u_, active);
  };
  for (const std::size_t slot : removed_) set_channel(slot, !on);
  for (const std::size_t slot : added_) set_channel(slot, on);
}

double candidate_evaluator::base_value() {
  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  const topology::game_params& p = provider_.params();
  const double fees = expected_fees();
  fill_rows();
  const double cost = provider_.l_of(u_) * p.cost_share *
                      static_cast<double>(work_.out_degree(u_));

  // Incremental mode accumulates over the session forest's cones; full
  // mode sweeps every plan source on one freeze of the resting graph.
  std::optional<graph::csr_graph> resting;
  if (!session_) resting = graph::freeze(work_);
  double acc = 0.0;
  for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
    double delta_u = 0.0;
    if (session_) {
      delta_u = graph::cone_dependency(base_cone(i), row(i), cone_);
      ++stats.accumulations;
    } else {
      delta_u = graph::sweep_dependency(*resting, plan_.sources[i], u_,
                                        row(i), cone_);
      ++stats.full_sweeps;
    }
    acc += plan_.scale * delta_u;
  }
  const double revenue = provider_.b_of(u_) * acc;
  return std::isinf(fees) ? -inf : revenue - fees - cost;
}

double candidate_evaluator::evaluate(const std::vector<graph::node_id>& set) {
  provider_.count_logical_evaluation();
  sweep_stats& stats = provider_.mutable_stats();
  const topology::game_params& p = provider_.params();
  const std::size_t n = work_.node_count();
  // Full mode skips the forest, the affected-source classification and
  // the bounds: every plan source counts as affected and is re-swept.
  const bool bounding = session_ && threshold_ > -inf;

  // The candidate's toggle set: channels leaving and joining u's own set.
  removed_.clear();
  added_.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    if (i < own_count_ && !in_set) removed_.push_back(i);
    if (i >= own_count_ && in_set) added_.push_back(i);
  }

  // Incremental mode only: the base-graph cached state — the forest
  // (affected-source classification + reuse) on the base view, and the
  // bound cones' BFS arrays from u and every toggled peer, which must be
  // filled BEFORE toggling work_.
  if (session_) {
    session& ses = *session_;
    for (std::size_t i = 0; i < plan_.sources.size(); ++i) base_dag(i);
    const auto base_dist = [&](std::size_t slot) {
      if (!ses.peer_dist[slot].empty()) return;
      const graph::node_id v = slot < peers_.size() ? peers_[slot] : u_;
      ses.peer_dist[slot] = graph::bfs_distances(work_, v);
      ++stats.support_bfs;
    };
    if (bounding) {
      base_dist(peers_.size());
      for (const std::size_t slot : removed_) base_dist(slot);
      for (const std::size_t slot : added_) base_dist(slot);
    }

    // Classify which plan sources the toggles can affect (both orientations
    // of every toggled channel; OR over the toggle set is sound because a
    // FALSE verdict for every toggle pins the whole DAG bitwise).
    ses.toggles.clear();
    for (const std::size_t slot : removed_) {
      ses.toggles.push_back({u_, peers_[slot], false});
      ses.toggles.push_back({peers_[slot], u_, false});
    }
    for (const std::size_t slot : added_) {
      ses.toggles.push_back({u_, peers_[slot], true});
      ses.toggles.push_back({peers_[slot], u_, true});
    }
    for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
      ses.affected[i] = 0;
      for (const graph::edge_toggle& t : ses.toggles) {
        if (graph::toggle_affects_source(ses.dag[i]->dist, t)) {
          ses.affected[i] = 1;
          break;
        }
      }
    }
  }

  flip(/*on=*/true);
  const double fees = expected_fees();
  const double cost = provider_.l_of(u_) * p.cost_share *
                      static_cast<double>(work_.out_degree(u_));
  if (std::isinf(fees)) {
    // total is -inf no matter what revenue is (base_value applies the
    // same guard), so no sweep is needed at all.
    flip(/*on=*/false);
    return -inf;
  }
  fill_rows();

  // --- Upper-bound pruning (DESIGN.md §8). All toggles are incident to u,
  // so any path changed by the candidate either uses an added channel (and
  // then passes u) or loses a base shortest path through a removed channel.
  // Pairs outside both cones keep their base through-fraction exactly;
  // cone pairs get the full headroom w * (1 - frac). The bound phase costs
  // dot products only — not a single sweep.
  if (bounding) {
    session& ses = *session_;
    const std::vector<std::int32_t>& du = ses.peer_dist[peers_.size()];
    // Lower bound on the candidate's distance from u to t: exit u over
    // base edges or through an added channel. Source-independent.
    ses.exit_lb.resize(n);
    for (graph::node_id t = 0; t < n; ++t) {
      std::int64_t exit_lb = hops(du, t);
      for (const std::size_t slot : added_) {
        exit_lb = std::min(exit_lb, 1 + hops(ses.peer_dist[slot], t));
      }
      ses.exit_lb[t] = exit_lb;
    }
    ses.ub_src.assign(plan_.sources.size(), 0.0);
    double ub_acc = 0.0;
    for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
      const graph::node_id s = plan_.sources[i];
      const std::span<const double> w_row = row(i);
      if (ses.frac[i].empty()) {
        ses.frac[i] =
            graph::through_fractions(ses.cache->view, *ses.dag[i], u_);
        for (graph::node_id t = 0; t < n; ++t)
          if (ses.frac[i][t] > 0.0) ses.support[i].push_back(t);
      }
      const std::vector<double>& frac = ses.frac[i];
      const std::vector<std::int32_t>& ds = ses.dag[i]->dist;
      double dot = 0.0;
      if (!ses.affected[i]) {
        // Terms with frac[t] == 0 add +0.0 and are skipped.
        for (const graph::node_id t : ses.support[i]) {
          dot += w_row[t] * frac[t];
        }
      } else {
        // Lower bound on the candidate's distance from s to u: enter u
        // either over base edges or through an added channel's far end.
        std::int64_t du_lb = hops(ds, u_);
        for (const std::size_t slot : added_) {
          du_lb = std::min(du_lb, hops(ds, peers_[slot]) + 1);
        }
        for (graph::node_id t = 0; t < n; ++t) {
          if (t == u_ || t == s || w_row[t] <= 0.0) continue;
          bool cone = du_lb + ses.exit_lb[t] <= hops(ds, t);
          for (std::size_t r = 0; !cone && r < removed_.size(); ++r) {
            const graph::node_id q = peers_[removed_[r]];
            const std::vector<std::int32_t>& dq = ses.peer_dist[removed_[r]];
            cone = hops(ds, u_) + 1 + hops(dq, t) == hops(ds, t) ||
                   hops(ds, q) + 1 + hops(du, t) == hops(ds, t);
          }
          dot += w_row[t] * (cone ? 1.0 : frac[t]);
        }
      }
      ses.ub_src[i] = plan_.scale * dot;
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
      flip(/*on=*/false);
      return ub_total;
    }
  }

  // --- Exact phase, shared by both modes. Sources merge in ascending order
  // with one scale-multiplied addition each, exactly the sweep engine's
  // sequence. Full mode re-sweeps every source; incremental mode re-sweeps
  // only the affected ones and replays the cached cone on the base view for
  // the rest. The toggled graph is frozen once, at the first source that
  // needs a re-sweep and survives the truncation check.
  //
  // Early termination (DESIGN.md §8): when bounding, each source's bound
  // contribution from the phase above dominates its exact contribution, so
  // exact-prefix + bound-suffix is itself an upper bound on the final
  // total. Once that drops to the threshold (margin-padded), the remaining
  // re-sweeps cannot change the oracle's decision and the merge stops —
  // the returned partial bound sits below the strict acceptance cut just
  // like the true value would.
  if (bounding) {
    std::vector<double>& suffix = session_->suffix;
    suffix.assign(plan_.sources.size() + 1, 0.0);
    for (std::size_t i = plan_.sources.size(); i-- > 0;) {
      suffix[i] = suffix[i + 1] + session_->ub_src[i];
    }
  }
  std::optional<graph::csr_graph> toggled;
  double acc = 0.0;
  for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
    double delta_u = 0.0;
    if (session_ && !session_->affected[i]) {
      delta_u = graph::cone_dependency(base_cone(i), row(i), cone_);
      ++stats.accumulations;
    } else {
      if (bounding) {
        const double potential =
            provider_.b_of(u_) * (acc + session_->suffix[i]) - fees - cost;
        const double margin = 1e-6 + 1e-9 * std::abs(potential);
        if (potential + margin <= threshold_) {
          ++stats.truncated;
          flip(/*on=*/false);
          return potential;
        }
      }
      if (!toggled) toggled = graph::freeze(work_);
      delta_u = graph::sweep_dependency(*toggled, plan_.sources[i], u_, row(i),
                                        cone_);
      ++(session_ ? stats.resweeps : stats.full_sweeps);
    }
    acc += plan_.scale * delta_u;
  }
  const double revenue = provider_.b_of(u_) * acc;
  flip(/*on=*/false);
  return revenue - fees - cost;
}

}  // namespace lcg::arena
