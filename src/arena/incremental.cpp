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

candidate_evaluator::candidate_evaluator(
    const utility_provider& provider, const graph::digraph& base,
    graph::node_id u, const std::vector<graph::node_id>& own,
    const std::vector<graph::node_id>& adds)
    : provider_(provider), u_(u), n_(base.node_count()),
      own_count_(own.size()) {
  LCG_EXPECTS(std::is_sorted(own.begin(), own.end()));
  std::unique_ptr<evaluator_scratch>& spare = provider_.spare_scratch();
  scratch_ = spare ? std::move(spare) : std::make_unique<evaluator_scratch>();
  // A lane's rows keep their tables from one activation to the next; they
  // are rebuilt only when the provider's active mask is another vector.
  const std::vector<double>& masses = provider.rank_masses(n_);
  std::vector<evaluator_lane>& lanes = scratch_->lanes;
  if (scratch_->active != provider.active()) lanes.clear();
  scratch_->active = provider.active();
  while (lanes.size() < provider_.lanes().lanes()) {
    lanes.emplace_back(
        dist::sender_rows(provider.params().basis, provider.active(), masses));
  }
  evaluator_lane& lane = caller();
  lane.work = base;
  graph::digraph& work = lane.work;
  for (const graph::node_id peer : own) {
    const graph::edge_id forward = work.find_edge(u, peer);
    const graph::edge_id reverse = work.find_edge(peer, u);
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
    LCG_EXPECTS(work.find_edge(u, peer) == graph::invalid_edge &&
                work.find_edge(peer, u) == graph::invalid_edge);
    const graph::edge_id forward = work.add_bidirectional(u, peer);
    work.remove_edge(forward);
    work.remove_edge(forward + 1);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, forward + 1);
  }
  plan_ = graph::betweenness_source_plan(n_, provider_.backend_for(n_), u_);
  scratch_->in_degrees = graph::in_degrees(work);
  lane.rows.assign(scratch_->in_degrees);
  // Every lane's buffers are sized here, on the calling thread; they keep
  // their capacity from one activation to the next.
  for (evaluator_lane& each : lanes) {
    each.row_buf.resize((plan_.sources.size() + 1) * n_);
    each.fee_dist.resize(n_);
    each.order.reserve(n_);
    each.dist_ut.reserve(n_);
    each.sigma_ut.reserve(n_);
    each.stats = {};
  }
}

candidate_evaluator::~candidate_evaluator() {
  provider_.spare_scratch() = std::move(scratch_);
}

std::span<const double> candidate_evaluator::row(const evaluator_lane& lane,
                                                 std::size_t i) const {
  return {lane.row_buf.data() + i * n_, n_};
}

void candidate_evaluator::select(evaluator_lane& lane,
                                 const std::vector<graph::node_id>& set) {
  // The candidate's toggle set: channels leaving and joining u's own set.
  lane.removed.clear();
  lane.added.clear();
  for (std::size_t i = 0; i < peers_.size(); ++i) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[i]) !=
                        set.end();
    if (i < own_count_ && !in_set) lane.removed.push_back(i);
    if (i >= own_count_ && in_set) lane.added.push_back(i);
  }
}

double candidate_evaluator::expected_fees(evaluator_lane& lane) {
  const std::span<double> own(
      lane.row_buf.data() + plan_.sources.size() * n_, n_);
  lane.rows.row(lane.work, u_, own);
  const double a = provider_.a_of(u_);
  if (separated_) {
    // d(u, t) from the G - u rows (DESIGN.md §8.1): integer hop counts, so
    // the sum is the BFS one term for term. The fold leaves d(u, u)
    // unreachable where a BFS has 0, which never counts: u's own entry of
    // its p_trans row is 0.
    fold_out(lane);
    return graph::expected_hop_cost(own, lane.dist_ut, 1, a);
  }
  graph::bfs_distances(lane.work, u_, lane.fee_dist, lane.order);
  ++lane.stats.support_bfs;
  return graph::expected_hop_cost(own, lane.fee_dist, 1, a);
}

void candidate_evaluator::fill_rows(evaluator_lane& lane) {
  lane.rows.rows(
      lane.work, plan_.sources,
      std::span<double>(lane.row_buf.data(), plan_.sources.size() * n_));
}

void candidate_evaluator::flip(evaluator_lane& lane, bool on) {
  // Own channels rest active, candidate additions rest inactive; only the
  // symmetric difference to the base configuration flips. Each channel
  // moves the in-degree of both its ends by one.
  const auto set_channel = [&](std::size_t slot, bool active) {
    const auto& [forward, reverse] = pairs_[slot];
    if (active) {
      lane.work.restore_edge(forward);
      lane.work.restore_edge(reverse);
    } else {
      lane.work.remove_edge(forward);
      lane.work.remove_edge(reverse);
    }
    lane.rows.shift(peers_[slot], active);
    lane.rows.shift(u_, active);
  };
  for (const std::size_t slot : lane.removed) set_channel(slot, !on);
  for (const std::size_t slot : lane.added) set_channel(slot, on);
}

bool candidate_evaluator::prices_are_exact() const noexcept {
  return provider_.options().mode == provider_mode::full;
}

void candidate_evaluator::build_separator() {
  evaluator_scratch& x = *scratch_;
  graph::digraph& work = caller().work;
  const auto in_slot = [&](graph::edge_id e) {
    return std::any_of(pairs_.begin(), pairs_.end(), [e](const auto& pair) {
      return pair.first == e || pair.second == e;
    });
  };
  // One row per distinct root: a peer or head that is also a plan source
  // (every one under the exact backend) reads the source's row.
  constexpr std::size_t no_row = std::numeric_limits<std::size_t>::max();
  std::vector<graph::node_id> roots;
  std::vector<std::size_t> row_of(n_, no_row);
  const auto row_for = [&](graph::node_id v) {
    if (row_of[v] == no_row) {
      row_of[v] = roots.size();
      roots.push_back(v);
    }
    return row_of[v];
  };
  for (const graph::node_id source : plan_.sources) row_for(source);
  x.peer_row.clear();
  x.fixed_rows.clear();
  x.fixed_in.clear();
  for (const graph::node_id peer : peers_) x.peer_row.push_back(row_for(peer));
  // G - u: cut u's active edges, freeze, and put them back in place.
  std::vector<graph::edge_id> cut;
  work.for_each_out(u_, [&](graph::edge_id e, const graph::edge& ed) {
    cut.push_back(e);
    if (!in_slot(e)) x.fixed_rows.push_back(row_for(ed.dst));
  });
  work.for_each_in(u_, [&](graph::edge_id e, const graph::edge& ed) {
    cut.push_back(e);
    if (!in_slot(e)) x.fixed_in.push_back(ed.src);
  });
  for (const graph::edge_id e : cut) work.remove_edge(e);
  const graph::csr_graph view = graph::freeze(work);
  for (const graph::edge_id e : cut) work.restore_edge(e);

  // Each root's sweep writes its own row, on the lane that takes it.
  x.dist.resize(roots.size() * n_);
  x.sigma.resize(roots.size() * n_);
  provider_.lanes().run(roots.size(), [&](std::size_t l, std::size_t r) {
    evaluator_lane& lane = x.lanes[l];
    graph::shortest_path_counts(view, roots[r], {x.dist.data() + r * n_, n_},
                                {x.sigma.data() + r * n_, n_}, lane.order);
    ++lane.stats.forest;
  });
  separated_ = true;
}

void candidate_evaluator::fold_out(evaluator_lane& lane) {
  const evaluator_scratch& x = *scratch_;
  // The candidate's out-edges of u: every slot it has switched on (flip has
  // run, so the work graph says which) plus the counterparty channels.
  lane.out.clear();
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (lane.work.edge_active(pairs_[slot].first))
      lane.out.push_back(x.peer_row[slot]);
  }
  lane.out.insert(lane.out.end(), x.fixed_rows.begin(), x.fixed_rows.end());
  // d(u, t) and sigma(u, t), shared by every source.
  lane.dist_ut.assign(n_, graph::unreachable);
  lane.sigma_ut.assign(n_, 0.0);
  for (const std::size_t r : lane.out) {
    const std::int32_t* dist = x.dist.data() + r * n_;
    const double* sigma = x.sigma.data() + r * n_;
    for (graph::node_id t = 0; t < n_; ++t)
      fold_hop(dist[t], sigma[t], lane.dist_ut[t], lane.sigma_ut[t]);
  }
}

double candidate_evaluator::separator_betweenness(evaluator_lane& lane) {
  const evaluator_scratch& x = *scratch_;
  const std::size_t sources = plan_.sources.size();
  const auto dist = [&](std::size_t r) {
    return std::span<const std::int32_t>(x.dist.data() + r * n_, n_);
  };
  const auto sigma = [&](std::size_t r) {
    return std::span<const double>(x.sigma.data() + r * n_, n_);
  };
  // The candidate's in-edges of u: the counterparty channels plus every
  // slot it has switched on.
  lane.in = x.fixed_in;
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (lane.work.edge_active(pairs_[slot].first))
      lane.in.push_back(peers_[slot]);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    std::int32_t dist_su = graph::unreachable;
    double sigma_su = 0.0;
    for (const graph::node_id p : lane.in)
      fold_hop(dist(i)[p], sigma(i)[p], dist_su, sigma_su);
    acc += plan_.scale * graph::separator_dependency(
                             dist(i), sigma(i), dist_su, sigma_su,
                             lane.dist_ut, lane.sigma_ut, row(lane, i));
  }
  lane.stats.accumulations += sources;
  return acc;
}

double candidate_evaluator::exact_betweenness() {
  const evaluator_lane& open_lane = caller();
  const graph::csr_graph view = graph::freeze(open_lane.work);
  std::vector<double>& dependency = scratch_->dependency;
  dependency.resize(plan_.sources.size());
  const bool full = prices_are_exact();
  provider_.lanes().run(
      plan_.sources.size(), [&](std::size_t l, std::size_t i) {
        evaluator_lane& lane = scratch_->lanes[l];
        dependency[i] = graph::sweep_dependency(
            view, plan_.sources[i], u_, row(open_lane, i), lane.cone);
        ++(full ? lane.stats.full_sweeps : lane.stats.resweeps);
      });
  // Sources merge in ascending order with one scale-multiplied addition
  // each, exactly the sweep engine's sequence.
  double acc = 0.0;
  for (const double delta : dependency) acc += plan_.scale * delta;
  return acc;
}

bool candidate_evaluator::open(evaluator_lane& lane,
                               const std::vector<graph::node_id>& set) {
  select(lane, set);
  flip(lane, /*on=*/true);
  lane.fees = expected_fees(lane);
  // total is -inf no matter what revenue is, so no row or sweep is needed.
  if (std::isinf(lane.fees)) return false;
  fill_rows(lane);
  lane.cost = provider_.l_of(u_) * provider_.params().cost_share *
              static_cast<double>(lane.work.out_degree(u_));
  return true;
}

double candidate_evaluator::total(const evaluator_lane& lane,
                                  double betweenness) const {
  return provider_.b_of(u_) * betweenness - lane.fees - lane.cost;
}

void candidate_evaluator::sync_lanes() {
  if (synced_) return;
  const evaluator_lane& first = caller();
  for (std::size_t l = 1; l < scratch_->lanes.size(); ++l) {
    evaluator_lane& lane = scratch_->lanes[l];
    lane.work = first.work;
    lane.rows.assign(scratch_->in_degrees);
  }
  synced_ = true;
}

void candidate_evaluator::merge_ledgers() {
  sweep_stats& stats = provider_.mutable_stats();
  for (evaluator_lane& lane : scratch_->lanes) {
    stats.full_sweeps += lane.stats.full_sweeps;
    stats.forest += lane.stats.forest;
    stats.resweeps += lane.stats.resweeps;
    stats.accumulations += lane.stats.accumulations;
    stats.support_bfs += lane.stats.support_bfs;
    stats.pruned += lane.stats.pruned;
    lane.stats = {};
  }
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
  evaluator_lane& lane = caller();
  const double value = open(lane, set) ? total(lane, exact_betweenness())
                                       : -inf;
  flip(lane, /*on=*/false);
  merge_ledgers();
  return value;
}

double candidate_evaluator::separator_price(
    evaluator_lane& lane, const std::vector<graph::node_id>& set) {
  // The G - u sweeps wait for the first set with finite fees, whose fee
  // came from the BFS (bitwise the fold's): an activation that prices only
  // -inf sets builds none. G - u is the same whichever set is open.
  double value = -inf;
  if (open(lane, set)) {
    if (!separated_) {
      build_separator();
      fold_out(lane);
    }
    value = total(lane, separator_betweenness(lane));
  }
  flip(lane, /*on=*/false);
  return value;
}

double candidate_evaluator::price(const std::vector<graph::node_id>& set) {
  provider_.count_logical_evaluation();
  if (prices_are_exact()) return exact(set);
  const double value = separator_price(caller(), set);
  merge_ledgers();
  return value;
}

void candidate_evaluator::price_all(
    const std::vector<std::vector<graph::node_id>>& sets,
    std::vector<double>& prices) {
  prices.resize(sets.size());
  std::size_t first = 0;
  for (; first < sets.size() && (prices_are_exact() || !separated_); ++first)
    prices[first] = price(sets[first]);
  if (first == sets.size()) return;
  // The G - u rows exist, so no set left runs a fee BFS or builds them:
  // each lane prices its sets on its own copy of the resting graph.
  sync_lanes();
  for (std::size_t i = first; i < sets.size(); ++i)
    provider_.count_logical_evaluation();
  provider_.lanes().run(sets.size() - first,
                        [&](std::size_t l, std::size_t i) {
                          prices[first + i] = separator_price(
                              scratch_->lanes[l], sets[first + i]);
                        });
  merge_ledgers();
}

double candidate_evaluator::fees(const std::vector<graph::node_id>& set) {
  evaluator_lane& lane = caller();
  select(lane, set);
  flip(lane, /*on=*/true);
  const double value = expected_fees(lane);
  flip(lane, /*on=*/false);
  merge_ledgers();
  return value;
}

}  // namespace lcg::arena
