#include "pcn/network.h"

#include "graph/dijkstra.h"
#include "graph/traversal.h"

namespace lcg::pcn {

network::network(std::size_t node_count, double onchain_cost)
    : g_(node_count),
      onchain_cost_(onchain_cost),
      fees_earned_(node_count, 0.0),
      fees_paid_(node_count, 0.0),
      onchain_spent_(node_count, 0.0),
      settled_(node_count, 0.0) {
  LCG_EXPECTS(onchain_cost >= 0.0);
}

graph::node_id network::add_node() {
  fees_earned_.push_back(0.0);
  fees_paid_.push_back(0.0);
  onchain_spent_.push_back(0.0);
  settled_.push_back(0.0);
  return g_.add_node();
}

std::size_t network::node_count() const noexcept { return g_.node_count(); }

void network::charge_onchain(graph::node_id v, double cost) {
  onchain_spent_[v] += cost;
}

channel_id network::open_channel(graph::node_id a, graph::node_id b,
                                 double deposit_a, double deposit_b) {
  LCG_EXPECTS(g_.has_node(a) && g_.has_node(b));
  LCG_EXPECTS(a != b);
  LCG_EXPECTS(deposit_a >= 0.0 && deposit_b >= 0.0);
  LCG_EXPECTS(deposit_a + deposit_b > 0.0);

  channel ch;
  ch.party_a = a;
  ch.party_b = b;
  ch.balance_a = deposit_a;
  ch.balance_b = deposit_b;
  ch.edge_ab = g_.add_edge(a, b, deposit_a);
  ch.edge_ba = g_.add_edge(b, a, deposit_b);
  ch.open = true;
  channels_.push_back(ch);
  const auto id = static_cast<channel_id>(channels_.size() - 1);
  edge_owner_.resize(g_.edge_slots(), id);
  ++open_channels_;

  // Opening on-chain transaction: cost shared equally (II-C).
  charge_onchain(a, onchain_cost_ / 2.0);
  charge_onchain(b, onchain_cost_ / 2.0);
  return static_cast<channel_id>(channels_.size() - 1);
}

void network::close_channel(channel_id id, close_mode mode) {
  LCG_EXPECTS(id < channels_.size());
  channel& ch = channels_[id];
  LCG_EXPECTS(ch.open);
  ch.open = false;
  --open_channels_;
  g_.remove_edge(ch.edge_ab);
  g_.remove_edge(ch.edge_ba);
  settled_[ch.party_a] += ch.balance_a;
  settled_[ch.party_b] += ch.balance_b;
  switch (mode) {
    case close_mode::collaborative:
      charge_onchain(ch.party_a, onchain_cost_ / 2.0);
      charge_onchain(ch.party_b, onchain_cost_ / 2.0);
      break;
    case close_mode::unilateral_by_a:
      charge_onchain(ch.party_a, onchain_cost_);
      break;
    case close_mode::unilateral_by_b:
      charge_onchain(ch.party_b, onchain_cost_);
      break;
  }
}

const channel& network::channel_at(channel_id id) const {
  LCG_EXPECTS(id < channels_.size());
  return channels_[id];
}

std::optional<channel_id> network::find_channel(graph::node_id a,
                                                graph::node_id b) const {
  for (channel_id id = 0; id < channels_.size(); ++id) {
    const channel& ch = channels_[id];
    if (!ch.open) continue;
    if ((ch.party_a == a && ch.party_b == b) ||
        (ch.party_a == b && ch.party_b == a))
      return id;
  }
  return std::nullopt;
}

std::vector<channel_id> network::channels_of(graph::node_id v) const {
  LCG_EXPECTS(g_.has_node(v));
  std::vector<channel_id> out;
  for (channel_id id = 0; id < channels_.size(); ++id) {
    const channel& ch = channels_[id];
    if (ch.open && (ch.party_a == v || ch.party_b == v)) out.push_back(id);
  }
  return out;
}

void network::fail_all_htlcs(channel_id id) {
  LCG_EXPECTS(id < channels_.size());
  channel& ch = channels_[id];
  LCG_EXPECTS(ch.open);
  if (ch.locked_a > 0.0) fail_htlc(ch.edge_ab, ch.locked_a);
  if (ch.locked_b > 0.0) fail_htlc(ch.edge_ba, ch.locked_b);
}

std::size_t network::teardown_node(graph::node_id v, bool unilateral) {
  const std::vector<channel_id> incident = channels_of(v);
  for (const channel_id id : incident) {
    fail_all_htlcs(id);
    const channel& ch = channels_[id];
    const close_mode mode =
        !unilateral ? close_mode::collaborative
        : ch.party_a == v ? close_mode::unilateral_by_a
                          : close_mode::unilateral_by_b;
    close_channel(id, mode);
  }
  return incident.size();
}

double network::balance_of(channel_id id, graph::node_id party) const {
  const channel& ch = channel_at(id);
  LCG_EXPECTS(party == ch.party_a || party == ch.party_b);
  return party == ch.party_a ? ch.balance_a : ch.balance_b;
}

std::vector<graph::edge_id> network::feasible_path(graph::node_id sender,
                                                   graph::node_id receiver,
                                                   double amount,
                                                   rng* tie_breaker) const {
  // II-B's G': only the edges with capacity to forward `amount`.
  const auto forwards = [amount](graph::edge_id, const graph::edge& ed) {
    return ed.capacity >= amount;
  };
  if (tie_breaker == nullptr)
    return graph::first_found_path(g_, sender, receiver, forwards);

  // Uniform sampling over all shortest feasible paths: the path-counting
  // DAG up to the receiver's level, then a backward walk choosing each
  // predecessor edge in proportion to its tail's sigma.
  graph::sp_dag dag;
  graph::shortest_path_dag(g_, sender, receiver, forwards, dag);
  if (dag.dist[receiver] == graph::unreachable) return {};
  std::vector<graph::edge_id> path(
      static_cast<std::size_t>(dag.dist[receiver]));
  std::vector<double> weights;
  graph::node_id v = receiver;
  for (std::size_t k = path.size(); k > 0; --k) {
    weights.clear();
    for (const graph::edge_id e : dag.pred[v])
      weights.push_back(dag.sigma[g_.edge_at(e).src]);
    path[k - 1] = dag.pred[v][tie_breaker->discrete(weights)];
    v = g_.edge_at(path[k - 1]).src;
  }
  return path;
}

bool network::payment_feasible(graph::node_id sender, graph::node_id receiver,
                               double amount) const {
  if (sender == receiver || amount <= 0.0) return false;
  return !feasible_path(sender, receiver, amount).empty();
}

payment_result network::execute_payment(graph::node_id sender,
                                        graph::node_id receiver, double amount,
                                        const dist::fee_function* fee,
                                        rng* tie_breaker) {
  LCG_EXPECTS(g_.has_node(sender) && g_.has_node(receiver));
  ++attempted_;
  payment_result result;
  result.amount = amount;
  if (sender == receiver) {
    result.error = payment_error::same_endpoints;
    return result;
  }
  if (amount <= 0.0) {
    result.error = payment_error::non_positive_amount;
    return result;
  }
  const std::vector<graph::edge_id> edges =
      feasible_path(sender, receiver, amount, tie_breaker);
  if (edges.empty()) {
    result.error = payment_error::no_feasible_path;
    return result;
  }

  if (fee != nullptr) {
    settle_payment(sender, edges, amount,
                   [&](graph::node_id) { return (*fee)(amount); }, result);
  } else {
    settle_payment(sender, edges, amount, nullptr, result);
  }
  return result;
}

payment_result network::execute_route(graph::node_id sender,
                                      const std::vector<graph::edge_id>& route,
                                      double amount,
                                      const dist::fee_function* fee) {
  LCG_EXPECTS(g_.has_node(sender));
  ++attempted_;
  payment_result result;
  result.amount = amount;
  if (amount <= 0.0) {
    result.error = payment_error::non_positive_amount;
    return result;
  }
  graph::node_id at = sender;
  for (const graph::edge_id e : route) {
    LCG_EXPECTS(e < g_.edge_slots());
    const graph::edge& ed = g_.edge_at(e);
    LCG_EXPECTS(ed.src == at);
    if (!g_.edge_active(e) || ed.capacity < amount) {
      result.error = payment_error::no_feasible_path;
      return result;
    }
    at = ed.dst;
  }
  if (route.empty()) {
    result.error = payment_error::no_feasible_path;
    return result;
  }
  if (fee != nullptr) {
    settle_payment(sender, route, amount,
                   [&](graph::node_id) { return (*fee)(amount); }, result);
  } else {
    settle_payment(sender, route, amount, nullptr, result);
  }
  return result;
}

payment_result network::execute_payment_cheapest(
    graph::node_id sender, graph::node_id receiver, double amount,
    const std::vector<const dist::fee_function*>& node_fees) {
  LCG_EXPECTS(g_.has_node(sender) && g_.has_node(receiver));
  LCG_EXPECTS(node_fees.size() == g_.node_count());
  ++attempted_;
  payment_result result;
  result.amount = amount;
  if (sender == receiver) {
    result.error = payment_error::same_endpoints;
    return result;
  }
  if (amount <= 0.0) {
    result.error = payment_error::non_positive_amount;
    return result;
  }
  // Price every hop at its destination's announced fee (the receiver
  // charges nothing); infeasible (under-capacity) edges are forbidden.
  const auto hop_fee = [&](graph::node_id v) {
    return node_fees[v] != nullptr ? (*node_fees[v])(amount) : 0.0;
  };
  const std::vector<graph::edge_id> edges = graph::cheapest_path(
      g_, sender, receiver, [&](graph::edge_id, const graph::edge& ed) {
        if (ed.capacity < amount) return graph::unreachable_cost;
        return ed.dst == receiver ? 0.0 : hop_fee(ed.dst);
      });
  if (edges.empty()) {
    result.error = payment_error::no_feasible_path;
    return result;
  }
  settle_payment(sender, edges, amount, hop_fee, result);
  return result;
}

payment_result network::execute_payment_cheapest(graph::node_id sender,
                                                 graph::node_id receiver,
                                                 double amount,
                                                 const dist::fee_function& fee) {
  std::vector<const dist::fee_function*> node_fees(g_.node_count(), &fee);
  return execute_payment_cheapest(sender, receiver, amount, node_fees);
}

void network::settle_payment(
    graph::node_id sender, const std::vector<graph::edge_id>& edges,
    double amount, const std::function<double(graph::node_id)>& hop_fee,
    payment_result& result) {
  // Shift the amount hop by hop (Figure 1 semantics): the channel balance of
  // the hop's source decreases, the destination's increases. All hops are
  // applied atomically (HTLC abstraction: feasibility was checked upfront).
  result.path.push_back(sender);
  for (const graph::edge_id e : edges) {
    const graph::edge& ed = g_.edge_at(e);
    channel& ch = channels_[edge_owner_[e]];
    if (ch.edge_ab == e) {
      ch.balance_a -= amount;
      ch.balance_b += amount;
    } else {
      ch.balance_b -= amount;
      ch.balance_a += amount;
    }
    g_.set_capacity(ch.edge_ab, ch.balance_a);
    g_.set_capacity(ch.edge_ba, ch.balance_b);
    result.path.push_back(ed.dst);
    result.edges.push_back(e);
  }

  // Fee ledger: every intermediary earns its hop fee; the sender pays the
  // sum.
  if (hop_fee && result.path.size() > 2) {
    for (std::size_t i = 1; i + 1 < result.path.size(); ++i) {
      const double earned = hop_fee(result.path[i]);
      fees_earned_[result.path[i]] += earned;
      result.total_fee += earned;
    }
    fees_paid_[sender] += result.total_fee;
  }
  ++succeeded_;
}

bool network::try_lock_htlc(graph::edge_id e, double amount) {
  LCG_EXPECTS(e < edge_owner_.size());
  LCG_EXPECTS(amount > 0.0);
  channel& ch = channels_[edge_owner_[e]];
  LCG_EXPECTS(ch.open);
  if (ch.edge_ab == e) {
    if (ch.balance_a < amount) return false;
    ch.balance_a -= amount;
    ch.locked_a += amount;
    g_.set_capacity(ch.edge_ab, ch.balance_a);
  } else {
    if (ch.balance_b < amount) return false;
    ch.balance_b -= amount;
    ch.locked_b += amount;
    g_.set_capacity(ch.edge_ba, ch.balance_b);
  }
  return true;
}

void network::settle_htlc(graph::edge_id e, double amount) {
  LCG_EXPECTS(e < edge_owner_.size());
  channel& ch = channels_[edge_owner_[e]];
  if (ch.edge_ab == e) {
    LCG_EXPECTS(ch.locked_a >= amount - 1e-12);
    ch.locked_a -= amount;
    ch.balance_b += amount;
    g_.set_capacity(ch.edge_ba, ch.balance_b);
  } else {
    LCG_EXPECTS(ch.locked_b >= amount - 1e-12);
    ch.locked_b -= amount;
    ch.balance_a += amount;
    g_.set_capacity(ch.edge_ab, ch.balance_a);
  }
}

void network::fail_htlc(graph::edge_id e, double amount) {
  LCG_EXPECTS(e < edge_owner_.size());
  channel& ch = channels_[edge_owner_[e]];
  if (ch.edge_ab == e) {
    LCG_EXPECTS(ch.locked_a >= amount - 1e-12);
    ch.locked_a -= amount;
    ch.balance_a += amount;
    g_.set_capacity(ch.edge_ab, ch.balance_a);
  } else {
    LCG_EXPECTS(ch.locked_b >= amount - 1e-12);
    ch.locked_b -= amount;
    ch.balance_b += amount;
    g_.set_capacity(ch.edge_ba, ch.balance_b);
  }
}

double network::locked_in_channel(channel_id id) const {
  return channel_at(id).total_locked();
}

double network::total_locked() const {
  double total = 0.0;
  for (const channel& ch : channels_) total += ch.total_locked();
  return total;
}

network::balance_snapshot network::snapshot_balances() const {
  balance_snapshot snap;
  snap.balances.reserve(channels_.size());
  for (const channel& ch : channels_)
    snap.balances.emplace_back(ch.balance_a, ch.balance_b);
  return snap;
}

void network::restore_balances(const balance_snapshot& snap) {
  LCG_EXPECTS(snap.balances.size() == channels_.size());
  for (std::size_t i = 0; i < channels_.size(); ++i) {
    channel& ch = channels_[i];
    ch.balance_a = snap.balances[i].first;
    ch.balance_b = snap.balances[i].second;
    if (ch.open) {
      g_.set_capacity(ch.edge_ab, ch.balance_a);
      g_.set_capacity(ch.edge_ba, ch.balance_b);
    }
  }
}

double network::fees_earned(graph::node_id v) const {
  LCG_EXPECTS(g_.has_node(v));
  return fees_earned_[v];
}

double network::fees_paid(graph::node_id v) const {
  LCG_EXPECTS(g_.has_node(v));
  return fees_paid_[v];
}

double network::onchain_spent(graph::node_id v) const {
  LCG_EXPECTS(g_.has_node(v));
  return onchain_spent_[v];
}

double network::settled(graph::node_id v) const {
  LCG_EXPECTS(g_.has_node(v));
  return settled_[v];
}

}  // namespace lcg::pcn
