#include "sim/rebalancing.h"

#include <algorithm>

#include "graph/traversal.h"
#include "util/error.h"

namespace lcg::sim {

namespace {

/// Donatable slack of a directed edge under `donor_floor` (< 0 = the plain
/// rule: the full current capacity).
double edge_slack(const pcn::network& net, graph::edge_id e,
                  double donor_floor) {
  const double capacity = net.topology().edge_at(e).capacity;
  if (donor_floor < 0.0) return capacity;
  const pcn::channel& ch = net.channel_at(net.channel_of(e));
  return capacity - donor_floor * ch.total_capacity();
}

}  // namespace

rebalance_result rebalance_channel(pcn::network& net, pcn::channel_id id,
                                   graph::node_id beneficiary, double amount,
                                   std::size_t max_cycle_len,
                                   double donor_floor, double fee_rate,
                                   double max_fee_fraction) {
  LCG_EXPECTS(fee_rate >= 0.0 && max_fee_fraction >= 0.0);
  rebalance_result result;
  if (amount <= 0.0) return result;
  const pcn::channel& ch = net.channel_at(id);
  LCG_EXPECTS(ch.open);
  LCG_EXPECTS(beneficiary == ch.party_a || beneficiary == ch.party_b);
  const graph::node_id counterparty =
      beneficiary == ch.party_a ? ch.party_b : ch.party_a;
  // Return edge: counterparty -> beneficiary over this very channel; the
  // counterparty's balance must cover the inflow (down to its own floor
  // when donor-aware — the counterparty is a donor like any other hop).
  const graph::edge_id return_edge =
      beneficiary == ch.party_a ? ch.edge_ba : ch.edge_ab;
  const graph::digraph& g = net.topology();
  const double return_slack = edge_slack(net, return_edge, donor_floor);
  if (return_slack <= 0.0) return result;
  if (donor_floor < 0.0 && return_slack < amount) return result;
  double executable = std::min(amount, return_slack);

  // Shortest path beneficiary -> counterparty avoiding both of the
  // channel's own edges, every hop with donatable slack >= `required`
  // (plain mode: slack is the raw capacity, required the full amount),
  // closing a cycle of at most max_cycle_len hops. The first-found path is
  // a shortest one, so a too-long path means no short enough cycle exists.
  const auto find_path = [&](double required) {
    std::vector<graph::edge_id> path = graph::first_found_path(
        g, beneficiary, counterparty,
        [&](graph::edge_id e, const graph::edge&) {
          return e != ch.edge_ab && e != ch.edge_ba &&
                 edge_slack(net, e, donor_floor) >= required;
        });
    if (path.size() + 1 > max_cycle_len) path.clear();
    return path;
  };

  // Donor-aware mode prefers a (possibly longer) cycle that carries the
  // FULL amount within every donor's floor; only when none exists does it
  // fall back to the shortest positive-slack cycle and clamp to its
  // donatable slack. A shortest trickle cycle must never shadow a
  // donor-safe full-amount cycle (sim_rebalancing_test pins this).
  std::vector<graph::edge_id> route = find_path(executable);
  if (route.empty() && donor_floor >= 0.0) {
    constexpr double min_donation = 1e-12;
    route = find_path(min_donation);
  }
  if (route.empty()) return result;

  for (const graph::edge_id e : route)
    executable = std::min(executable, edge_slack(net, e, donor_floor));
  if (executable <= 0.0) return result;
  route.push_back(return_edge);

  // Fee-aware (non-cooperative) mode: every interior node of the cycle
  // charges fee_rate * executable; the beneficiary only proceeds when the
  // total stays economical relative to the liquidity it gains.
  const dist::linear_fee fee(0.0, fee_rate);
  const dist::fee_function* hop_fee = nullptr;
  if (fee_rate > 0.0) {
    const double fee_total =
        fee_rate * executable * static_cast<double>(route.size() - 1);
    if (fee_total > max_fee_fraction * executable) return result;
    hop_fee = &fee;
  }

  const pcn::payment_result payment =
      net.execute_route(beneficiary, route, executable, hop_fee);
  if (!payment.ok()) return result;  // raced capacity change; untouched
  result.success = true;
  result.amount = executable;
  result.cycle_length = route.size();
  result.fee_paid = payment.total_fee;
  return result;
}

namespace {

void validate_policy(const rebalancing_policy& policy) {
  LCG_EXPECTS(policy.low_watermark >= 0.0 &&
              policy.low_watermark <= policy.target);
  LCG_EXPECTS(policy.target <= 1.0);
  LCG_EXPECTS(policy.fee_rate >= 0.0 && policy.max_fee_fraction >= 0.0);
}

/// Shared sweep core; `policy_of(v)` is node v's policy.
template <typename PolicyOf>
rebalancing_sweep_stats sweep_impl(pcn::network& net,
                                   const PolicyOf& policy_of) {
  rebalancing_sweep_stats stats;
  // Channel set snapshot: rebalancing shifts balances but never opens or
  // closes channels, so iterating by id is stable.
  const std::size_t channel_count = net.channel_count();
  std::size_t seen = 0;
  for (pcn::channel_id id = 0; seen < channel_count; ++id) {
    const pcn::channel& ch = net.channel_at(id);
    if (!ch.open) continue;
    ++seen;
    const double capacity = ch.total_capacity();
    if (capacity <= 0.0) continue;
    for (const graph::node_id side : {ch.party_a, ch.party_b}) {
      const rebalancing_policy& policy = policy_of(side);
      const double balance = net.balance_of(id, side);
      if (balance >= policy.low_watermark * capacity) continue;
      ++stats.triggered;
      const double want = policy.target * capacity - balance;
      const rebalance_result r = rebalance_channel(
          net, id, side, want, policy.max_cycle_len,
          policy.donor_aware ? policy.low_watermark : -1.0,
          policy.fee_aware ? policy.fee_rate : 0.0, policy.max_fee_fraction);
      if (r.success) {
        ++stats.succeeded;
        stats.volume += r.amount;
        stats.fees_paid += r.fee_paid;
      }
    }
  }
  return stats;
}

}  // namespace

rebalancing_sweep_stats rebalancing_sweep(pcn::network& net,
                                          const rebalancing_policy& policy) {
  validate_policy(policy);
  return sweep_impl(net, [&](graph::node_id) -> const rebalancing_policy& {
    return policy;
  });
}

rebalancing_sweep_stats rebalancing_sweep(
    pcn::network& net, const std::vector<rebalancing_policy>& policies) {
  LCG_EXPECTS(policies.size() == net.node_count());
  for (const rebalancing_policy& policy : policies) validate_policy(policy);
  return sweep_impl(net, [&](graph::node_id v) -> const rebalancing_policy& {
    return policies[v];
  });
}

}  // namespace lcg::sim
