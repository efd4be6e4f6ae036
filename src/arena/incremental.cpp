#include "arena/incremental.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/properties.h"
#include "graph/traversal.h"
#include "topology/game.h"
#include "util/error.h"

namespace lcg::arena {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Folds one more path into a (distance, path count) pair over a last hop:
/// `d` and `sigma` reach the hop's tail, which is one hop short of the
/// pair's end. Shorter paths replace the pair, tied ones add their count.
void fold_hop(std::int32_t d, double sigma, std::int32_t& best,
              double& count) {
  if (d == graph::unreachable) return;
  if (best == graph::unreachable || d + 1 < best) {
    best = d + 1;
    count = sigma;
  } else if (d + 1 == best) {
    count += sigma;
  }
}

}  // namespace

/// The separator's per-activation state (DESIGN.md §8.1): hop distances
/// and path counts in G - u (the resting graph with every edge of u
/// removed), one row of n per distinct sweep root, plus per-candidate
/// scratch. Built by the first set priced with finite fees.
struct candidate_evaluator::separator {
  // Row r at [r * n, (r + 1) * n). Rows [0, |plan|) are the plan sources
  // in plan order; the other roots — peers_ and the heads of u's out-edges
  // outside the slot table (counterparty-owned channels, which every
  // candidate keeps) — share a source's row or get one of their own.
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<std::size_t> peer_row;     // row of peers_[slot]
  std::vector<std::size_t> fixed_rows;   // rows of the fixed out-edge heads
  std::vector<graph::node_id> fixed_in;  // tails of u's fixed in-edges
  // Per-candidate scratch: the active in-edges' tails, the rows of the
  // active out-edges' heads, and d(u, t) and sigma(u, t) over them.
  std::vector<graph::node_id> in;
  std::vector<std::size_t> out;
  std::vector<std::int32_t> dist_ut;
  std::vector<double> sigma_ut;
};

candidate_evaluator::candidate_evaluator(
    const utility_provider& provider, const graph::digraph& base,
    graph::node_id u, const std::vector<graph::node_id>& own,
    const std::vector<graph::node_id>& adds)
    : provider_(provider), work_(base), u_(u), own_count_(own.size()),
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
}

candidate_evaluator::~candidate_evaluator() = default;

std::span<const double> candidate_evaluator::row(std::size_t i) const {
  const std::size_t n = work_.node_count();
  return {row_buf_.data() + i * n, n};
}

void candidate_evaluator::select(const std::vector<graph::node_id>& set) {
  // The candidate's toggle set: channels leaving and joining u's own set.
  removed_.clear();
  added_.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    if (i < own_count_ && !in_set) removed_.push_back(i);
    if (i >= own_count_ && in_set) added_.push_back(i);
  }
}

double candidate_evaluator::expected_fees() {
  const std::size_t n = work_.node_count();
  const std::span<double> own(row_buf_.data() + plan_.sources.size() * n, n);
  rows_.row(work_, u_, own);
  const double a = provider_.a_of(u_);
  if (separator_) {
    // d(u, t) from the G - u rows (DESIGN.md §8.1): integer hop counts, so
    // the sum is the BFS one term for term. The fold leaves d(u, u)
    // unreachable where a BFS has 0, which never counts: u's own entry of
    // its p_trans row is 0.
    fold_out();
    return graph::expected_hop_cost(own, separator_->dist_ut, 1, a);
  }
  const std::vector<std::int32_t> dist_u = graph::bfs_distances(work_, u_);
  ++provider_.mutable_stats().support_bfs;
  return graph::expected_hop_cost(own, dist_u, 1, a);
}

void candidate_evaluator::fill_rows() {
  const std::size_t n = work_.node_count();
  rows_.rows(work_, plan_.sources,
             std::span<double>(row_buf_.data(), plan_.sources.size() * n));
}

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

bool candidate_evaluator::prices_are_exact() const noexcept {
  return provider_.options().mode == provider_mode::full;
}

void candidate_evaluator::build_separator() {
  separator_ = std::make_unique<separator>();
  separator& x = *separator_;
  const auto in_slot = [&](graph::edge_id e) {
    return std::any_of(pairs_.begin(), pairs_.end(), [e](const auto& pair) {
      return pair.first == e || pair.second == e;
    });
  };
  // One row per distinct root: a peer or head that is also a plan source
  // (every one under the exact backend) reads the source's row.
  constexpr std::size_t no_row = std::numeric_limits<std::size_t>::max();
  std::vector<graph::node_id> roots;
  std::vector<std::size_t> row_of(work_.node_count(), no_row);
  const auto row_for = [&](graph::node_id v) {
    if (row_of[v] == no_row) {
      row_of[v] = roots.size();
      roots.push_back(v);
    }
    return row_of[v];
  };
  for (const graph::node_id source : plan_.sources) row_for(source);
  for (const graph::node_id peer : peers_) x.peer_row.push_back(row_for(peer));
  // G - u: cut u's active edges, freeze, and put them back in place.
  std::vector<graph::edge_id> cut;
  work_.for_each_out(u_, [&](graph::edge_id e, const graph::edge& ed) {
    cut.push_back(e);
    if (!in_slot(e)) x.fixed_rows.push_back(row_for(ed.dst));
  });
  work_.for_each_in(u_, [&](graph::edge_id e, const graph::edge& ed) {
    cut.push_back(e);
    if (!in_slot(e)) x.fixed_in.push_back(ed.src);
  });
  for (const graph::edge_id e : cut) work_.remove_edge(e);
  const graph::csr_graph view = graph::freeze(work_);
  for (const graph::edge_id e : cut) work_.restore_edge(e);

  // Each sweep writes its root's row in place.
  const std::size_t n = work_.node_count();
  x.dist.resize(roots.size() * n);
  x.sigma.resize(roots.size() * n);
  std::vector<graph::node_id> order;
  for (std::size_t r = 0; r < roots.size(); ++r) {
    graph::shortest_path_counts(view, roots[r], {x.dist.data() + r * n, n},
                                {x.sigma.data() + r * n, n}, order);
  }
  provider_.mutable_stats().forest += roots.size();
}

void candidate_evaluator::fold_out() {
  separator& x = *separator_;
  const std::size_t n = work_.node_count();
  // The candidate's out-edges of u: every slot it has switched on (flip has
  // run, so the work graph says which) plus the counterparty channels.
  x.out.clear();
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (work_.edge_active(pairs_[slot].first))
      x.out.push_back(x.peer_row[slot]);
  }
  x.out.insert(x.out.end(), x.fixed_rows.begin(), x.fixed_rows.end());
  // d(u, t) and sigma(u, t), shared by every source.
  x.dist_ut.assign(n, graph::unreachable);
  x.sigma_ut.assign(n, 0.0);
  for (const std::size_t r : x.out) {
    const std::int32_t* dist = x.dist.data() + r * n;
    const double* sigma = x.sigma.data() + r * n;
    for (graph::node_id t = 0; t < n; ++t)
      fold_hop(dist[t], sigma[t], x.dist_ut[t], x.sigma_ut[t]);
  }
}

double candidate_evaluator::separator_betweenness() {
  separator& x = *separator_;
  const std::size_t n = work_.node_count();
  const std::size_t sources = plan_.sources.size();
  const auto dist = [&](std::size_t r) {
    return std::span<const std::int32_t>(x.dist.data() + r * n, n);
  };
  const auto sigma = [&](std::size_t r) {
    return std::span<const double>(x.sigma.data() + r * n, n);
  };
  // The candidate's in-edges of u: the counterparty channels plus every
  // slot it has switched on.
  x.in = x.fixed_in;
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (work_.edge_active(pairs_[slot].first)) x.in.push_back(peers_[slot]);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    std::int32_t dist_su = graph::unreachable;
    double sigma_su = 0.0;
    for (const graph::node_id p : x.in)
      fold_hop(dist(i)[p], sigma(i)[p], dist_su, sigma_su);
    acc += plan_.scale * graph::separator_dependency(
                             dist(i), sigma(i), dist_su, sigma_su, x.dist_ut,
                             x.sigma_ut, row(i));
  }
  provider_.mutable_stats().accumulations += sources;
  return acc;
}

double candidate_evaluator::exact_betweenness() {
  // Sources merge in ascending order with one scale-multiplied addition
  // each, exactly the sweep engine's sequence.
  const graph::csr_graph view = graph::freeze(work_);
  double acc = 0.0;
  for (std::size_t i = 0; i < plan_.sources.size(); ++i) {
    acc += plan_.scale * graph::sweep_dependency(view, plan_.sources[i], u_,
                                                 row(i), cone_);
  }
  sweep_stats& stats = provider_.mutable_stats();
  (prices_are_exact() ? stats.full_sweeps : stats.resweeps) +=
      plan_.sources.size();
  return acc;
}

bool candidate_evaluator::open(const std::vector<graph::node_id>& set) {
  select(set);
  flip(/*on=*/true);
  fees_ = expected_fees();
  // total is -inf no matter what revenue is, so no row or sweep is needed.
  if (std::isinf(fees_)) return false;
  fill_rows();
  cost_ = provider_.l_of(u_) * provider_.params().cost_share *
          static_cast<double>(work_.out_degree(u_));
  return true;
}

double candidate_evaluator::total(double betweenness) const {
  return provider_.b_of(u_) * betweenness - fees_ - cost_;
}

double candidate_evaluator::base_value() {
  const auto own_end = peers_.begin() + static_cast<std::ptrdiff_t>(own_count_);
  return evaluate(std::vector<graph::node_id>(peers_.begin(), own_end));
}

double candidate_evaluator::evaluate(const std::vector<graph::node_id>& set) {
  provider_.count_logical_evaluation();
  return exact(set);
}

double candidate_evaluator::exact(const std::vector<graph::node_id>& set) {
  const double value = open(set) ? total(exact_betweenness()) : -inf;
  flip(/*on=*/false);
  return value;
}

double candidate_evaluator::price(const std::vector<graph::node_id>& set) {
  provider_.count_logical_evaluation();
  if (prices_are_exact()) return exact(set);
  // The G - u sweeps wait for the first set with finite fees, whose fee
  // came from the BFS (bitwise the fold's): an activation that prices only
  // -inf sets builds none. G - u is the same whichever set is open.
  double value = -inf;
  if (open(set)) {
    if (!separator_) {
      build_separator();
      fold_out();
    }
    value = total(separator_betweenness());
  }
  flip(/*on=*/false);
  return value;
}

double candidate_evaluator::fees(const std::vector<graph::node_id>& set) {
  select(set);
  flip(/*on=*/true);
  const double value = expected_fees();
  flip(/*on=*/false);
  return value;
}

}  // namespace lcg::arena
