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
  graph::digraph& work = scratch_->work;
  work = base;
  for (const graph::node_id peer : own) {
    const graph::edge_id forward = work.find_edge(u, peer);
    const graph::edge_id reverse = work.find_edge(peer, u);
    LCG_EXPECTS(forward != graph::invalid_edge &&
                reverse != graph::invalid_edge);
    peers_.push_back(peer);
    pairs_.emplace_back(forward, reverse);
  }
  // Every own slot is one of u's active out-edges; the others are fixed.
  fixed_out_ = work.out_degree(u) - own_count_;
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
  // Every lane starts at the resting mask and degree state. Its buffers are
  // sized here, on the calling thread; they keep their capacity from one
  // activation to the next.
  const std::vector<std::size_t> in_degrees = graph::in_degrees(work);
  for (evaluator_lane& each : lanes) {
    each.rows.assign(in_degrees);
    each.on.assign(peers_.size(), 0);
    std::fill_n(each.on.begin(), own_count_, 1);
    each.row_buf.resize((plan_.sources.size() + 1) * n_);
    each.order.reserve(n_);
    each.dist_ut.resize(n_);
    each.sigma_ut.reserve(n_);
    each.stats = {};
  }
  if (!prices_are_exact()) build_separator();
  merge_ledgers();
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
  // Each channel that changes state moves the in-degree of both its ends
  // by one.
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    const bool in_set = std::find(set.begin(), set.end(), peers_[slot]) !=
                        set.end();
    if (static_cast<bool>(lane.on[slot]) == in_set) continue;
    lane.on[slot] = in_set;
    lane.rows.shift(peers_[slot], in_set);
    lane.rows.shift(u_, in_set);
  }
}

void candidate_evaluator::flip(bool on) {
  // Own channels rest active, candidate additions rest inactive; only the
  // slots where the mask differs from the base flip.
  graph::digraph& work = scratch_->work;
  const std::vector<char>& mask = caller().on;
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    const bool selected = mask[slot];
    if (selected == (slot < own_count_)) continue;
    for (const graph::edge_id e : {pairs_[slot].first, pairs_[slot].second})
      on == selected ? work.restore_edge(e) : work.remove_edge(e);
  }
}

double candidate_evaluator::expected_fees(evaluator_lane& lane) {
  const std::span<double> own(
      lane.row_buf.data() + plan_.sources.size() * n_, n_);
  lane.rows.row(scratch_->work, u_, own);
  if (prices_are_exact()) {
    // Full mode, the reference: a BFS of the calling thread's candidate.
    flip(/*on=*/true);
    graph::bfs_distances(scratch_->work, u_, lane.dist_ut, lane.order);
    flip(/*on=*/false);
    ++lane.stats.support_bfs;
  } else {
    // d(u, t) from the G - u rows (DESIGN.md §8.1): integer hop counts, so
    // the sum is the BFS one term for term. The fold leaves d(u, u)
    // unreachable where a BFS has 0, which never counts: u's own entry of
    // its p_trans row is 0.
    fold_out(lane);
  }
  return graph::expected_hop_cost(own, lane.dist_ut, 1, provider_.a_of(u_));
}

void candidate_evaluator::fill_rows(evaluator_lane& lane) {
  lane.rows.rows(
      scratch_->work, plan_.sources,
      std::span<double>(lane.row_buf.data(), plan_.sources.size() * n_));
}

bool candidate_evaluator::prices_are_exact() const noexcept {
  return provider_.options().mode == provider_mode::full;
}

void candidate_evaluator::build_separator() {
  evaluator_scratch& x = *scratch_;
  graph::digraph& work = x.work;
  const auto in_slot = [&](graph::edge_id e) {
    return std::any_of(pairs_.begin(), pairs_.end(), [e](const auto& pair) {
      return pair.first == e || pair.second == e;
    });
  };
  // One row per distinct root, the fee roots first: a plan source that is
  // also a peer or head (every one under the exact backend) reads its row.
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
  x.peer_row.clear();
  x.fixed_rows.clear();
  x.fixed_in.clear();
  x.source_row.clear();
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
  const std::size_t fee_roots = roots.size();
  for (const graph::node_id source : plan_.sources)
    x.source_row.push_back(row_for(source));

  // Each root's sweep writes its own row, on the lane that takes it.
  x.dist.resize(roots.size() * n_);
  x.sigma.resize(roots.size() * n_);
  const auto sweep = [&](std::size_t begin, std::size_t end) {
    provider_.lanes().run(end - begin, [&](std::size_t l, std::size_t i) {
      evaluator_lane& lane = x.lanes[l];
      const std::size_t r = begin + i;
      graph::shortest_path_counts(view, roots[r],
                                  {x.dist.data() + r * n_, n_},
                                  {x.sigma.data() + r * n_, n_}, lane.order);
      ++lane.stats.forest;
    });
  };
  // Every set's d(u, t) folds from the fee rows. The other plan rows are
  // read only by a set with finite fees, so they wait for the fee rows to
  // show that one can exist.
  sweep(0, fee_roots);
  if (!every_fee_infinite(fee_roots)) sweep(fee_roots, roots.size());
}

bool candidate_evaluator::every_fee_infinite(std::size_t fee_roots) const {
  // Every set's out-edges of u are among the slots and the fixed channels,
  // so a receiver none of their heads reaches in G - u is unreachable from
  // u whatever the set. Its fee term is infinite when its p_trans entry is
  // positive, which holds for every active receiver in every degree state
  // while the smallest rank mass (the n-th) is n times the least normal
  // double: an entry is at least that mass over a total of at most n. A
  // departed u sends nothing, so its fee is 0.
  const std::vector<char>* active = provider_.active();
  if ((active && !(*active)[u_]) ||
      provider_.rank_masses(n_)[n_ - 1] <
          std::numeric_limits<double>::min() * static_cast<double>(n_))
    return false;
  const std::int32_t* dist = scratch_->dist.data();
  for (graph::node_id t = 0; t < n_; ++t) {
    if (t == u_ || (active && !(*active)[t])) continue;
    std::size_t r = 0;
    while (r < fee_roots && dist[r * n_ + t] == graph::unreachable) ++r;
    if (r == fee_roots) return true;
  }
  return false;
}

void candidate_evaluator::fold_out(evaluator_lane& lane) {
  const evaluator_scratch& x = *scratch_;
  // d(u, t) and sigma(u, t), shared by every source, over the candidate's
  // out-edges of u: every slot it has switched on, then the counterparty
  // channels.
  lane.dist_ut.assign(n_, graph::unreachable);
  lane.sigma_ut.assign(n_, 0.0);
  const auto fold_row = [&](std::size_t r) {
    const std::int32_t* dist = x.dist.data() + r * n_;
    const double* sigma = x.sigma.data() + r * n_;
    for (graph::node_id t = 0; t < n_; ++t)
      fold_hop(dist[t], sigma[t], lane.dist_ut[t], lane.sigma_ut[t]);
  };
  for (std::size_t slot = 0; slot < peers_.size(); ++slot) {
    if (lane.on[slot]) fold_row(x.peer_row[slot]);
  }
  for (const std::size_t r : x.fixed_rows) fold_row(r);
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
    if (lane.on[slot]) lane.in.push_back(peers_[slot]);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < sources; ++i) {
    const std::size_t r = x.source_row[i];
    std::int32_t dist_su = graph::unreachable;
    double sigma_su = 0.0;
    for (const graph::node_id p : lane.in)
      fold_hop(dist(r)[p], sigma(r)[p], dist_su, sigma_su);
    acc += plan_.scale * graph::separator_dependency(
                             dist(r), sigma(r), dist_su, sigma_su,
                             lane.dist_ut, lane.sigma_ut, row(lane, i));
  }
  lane.stats.accumulations += sources;
  return acc;
}

double candidate_evaluator::exact_betweenness() {
  const evaluator_lane& open_lane = caller();
  flip(/*on=*/true);
  const graph::csr_graph view = graph::freeze(scratch_->work);
  flip(/*on=*/false);
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
  lane.fees = expected_fees(lane);
  // total is -inf no matter what revenue is, so no row or sweep is needed.
  if (std::isinf(lane.fees)) return false;
  fill_rows(lane);
  const auto slots_on = static_cast<std::size_t>(
      std::count(lane.on.begin(), lane.on.end(), char{1}));
  lane.cost = provider_.l_of(u_) * provider_.params().cost_share *
              static_cast<double>(fixed_out_ + slots_on);
  return true;
}

double candidate_evaluator::total(const evaluator_lane& lane,
                                  double betweenness) const {
  return provider_.b_of(u_) * betweenness - lane.fees - lane.cost;
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
  merge_ledgers();
  return value;
}

double candidate_evaluator::separator_price(
    evaluator_lane& lane, const std::vector<graph::node_id>& set) {
  return open(lane, set) ? total(lane, separator_betweenness(lane)) : -inf;
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
  if (prices_are_exact()) {
    for (std::size_t i = 0; i < sets.size(); ++i) prices[i] = price(sets[i]);
    return;
  }
  for (std::size_t i = 0; i < sets.size(); ++i)
    provider_.count_logical_evaluation();
  provider_.lanes().run(sets.size(), [&](std::size_t l, std::size_t i) {
    prices[i] = separator_price(scratch_->lanes[l], sets[i]);
  });
  merge_ledgers();
}

double candidate_evaluator::fees(const std::vector<graph::node_id>& set) {
  evaluator_lane& lane = caller();
  select(lane, set);
  const double value = expected_fees(lane);
  merge_ledgers();
  return value;
}

}  // namespace lcg::arena
