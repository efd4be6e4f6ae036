// Payment-channel network: channels with per-end balances over a directed
// topology, plus multi-hop payment execution (Section II-A, Figure 1).
//
// Each bidirectional channel is two directed edges whose capacities mirror
// the two end balances. A payment of size x from s to r routes over a
// shortest path all of whose directed edges have balance >= x (the paper's
// "reduced subgraph" feasibility rule), then shifts x along every hop —
// exactly the balance-update semantics of Figure 1. Per the paper's fee
// abstraction, routing fees are tracked in a per-node ledger (each
// intermediary earns F(x), the sender pays the sum) rather than being folded
// into channel balances.
//
// On-chain cost accounting: opening a channel charges both parties C/2;
// closing charges according to who closes (II-C): collaborative close splits
// C, a unilateral close charges the closer C.

#ifndef LCG_PCN_NETWORK_H
#define LCG_PCN_NETWORK_H

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "dist/fee.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace lcg::pcn {

using channel_id = std::uint32_t;

struct channel {
  graph::node_id party_a = graph::invalid_node;
  graph::node_id party_b = graph::invalid_node;
  double balance_a = 0.0;  // coins currently owned by a in the channel
  double balance_b = 0.0;
  double locked_a = 0.0;   // a's coins locked by in-flight HTLCs
  double locked_b = 0.0;
  graph::edge_id edge_ab = graph::invalid_edge;  // direction a -> b
  graph::edge_id edge_ba = graph::invalid_edge;  // direction b -> a
  bool open = false;

  /// Spendable capacity (excludes in-flight locked amounts).
  double total_capacity() const noexcept { return balance_a + balance_b; }
  /// Coins locked by in-flight HTLCs (both directions).
  double total_locked() const noexcept { return locked_a + locked_b; }
};

enum class close_mode {
  collaborative,   // both parties pay C/2
  unilateral_by_a, // a pays C
  unilateral_by_b, // b pays C
};

enum class payment_error {
  ok,
  same_endpoints,
  non_positive_amount,
  no_feasible_path,
};

struct payment_result {
  payment_error error = payment_error::ok;
  std::vector<graph::node_id> path;   // sender first, receiver last
  std::vector<graph::edge_id> edges;  // directed edges traversed, in order
  double amount = 0.0;
  double total_fee = 0.0;             // paid by the sender to intermediaries

  bool ok() const noexcept { return error == payment_error::ok; }
  /// Number of intermediary nodes (path length - 2), 0 if failed.
  std::size_t intermediaries() const noexcept {
    return path.size() >= 2 ? path.size() - 2 : 0;
  }
};

class network {
 public:
  /// `onchain_cost` is the miner fee C of one blockchain transaction.
  explicit network(std::size_t node_count, double onchain_cost = 0.0);

  graph::node_id add_node();
  std::size_t node_count() const noexcept;

  /// Opens a channel between distinct nodes a and b with the given initial
  /// deposits (>= 0, at least one positive). Charges both parties C/2.
  channel_id open_channel(graph::node_id a, graph::node_id b,
                          double deposit_a, double deposit_b);

  /// Closes a channel; balances return to the parties (tracked in
  /// `settled`), closing costs are charged per `mode`.
  void close_channel(channel_id id, close_mode mode);

  std::size_t channel_count() const noexcept { return open_channels_; }
  const channel& channel_at(channel_id id) const;

  /// First open channel between the two nodes (either orientation).
  std::optional<channel_id> find_channel(graph::node_id a,
                                         graph::node_id b) const;

  /// All open channels with `v` as an endpoint, ascending by id.
  std::vector<channel_id> channels_of(graph::node_id v) const;

  /// Fails every in-flight HTLC of channel `id` (both directions): all
  /// locked coins return to their source-side balances. A no-op on a
  /// channel with nothing locked.
  void fail_all_htlcs(channel_id id);

  /// Node departure (a churning player leaving the network): fails all
  /// in-flight HTLCs through v's channels, then closes each one —
  /// collaboratively by default, or unilaterally by v (v pays the full
  /// on-chain cost per channel). Every counterparty's coins come back
  /// through the settled ledger; conservation is exact. Returns the number
  /// of channels closed.
  std::size_t teardown_node(graph::node_id v, bool unilateral = false);

  /// Balance owned by `party` in channel `id`. `party` must be an endpoint.
  double balance_of(channel_id id, graph::node_id party) const;

  /// Directed topology; edge capacities always equal current balances.
  const graph::digraph& topology() const noexcept { return g_; }

  /// Channel a directed edge belongs to (every topology edge is one side
  /// of a channel). Donor-aware rebalancing uses this to find the hop's
  /// own capacity watermark (sim/rebalancing.h).
  channel_id channel_of(graph::edge_id e) const {
    LCG_EXPECTS(e < edge_owner_.size());
    return edge_owner_[e];
  }

  /// Executes a payment: shortest feasible path (every hop's balance >=
  /// amount), balance shifts along it, fee ledger updated with F(amount)
  /// per intermediary. Null fee => no fees charged.
  ///
  /// When `tie_breaker` is non-null, the path is sampled uniformly among
  /// ALL shortest feasible paths (matching the analytic model's
  /// m_e(s,r)/m(s,r) split, Eq. 2); otherwise the first-found shortest
  /// path is used deterministically.
  payment_result execute_payment(graph::node_id sender,
                                 graph::node_id receiver, double amount,
                                 const dist::fee_function* fee = nullptr,
                                 rng* tie_breaker = nullptr);

  /// Executes a payment along the *cheapest-fee* feasible path instead of
  /// the shortest one, with per-node fee policies (`node_fees[v]` is what
  /// intermediary v charges; entries may be null = free). Under the paper's
  /// single global fee function cheapest and shortest coincide; with
  /// heterogeneous policies this is real Lightning routing semantics.
  payment_result execute_payment_cheapest(
      graph::node_id sender, graph::node_id receiver, double amount,
      const std::vector<const dist::fee_function*>& node_fees);

  /// Convenience overload: every intermediary charges the same `fee`.
  payment_result execute_payment_cheapest(graph::node_id sender,
                                          graph::node_id receiver,
                                          double amount,
                                          const dist::fee_function& fee);

  /// Executes a payment along a caller-chosen edge route (consecutive
  /// active edges, first starting at `sender`). Used for circular
  /// rebalancing self-payments, where sender == receiver is allowed.
  /// Fails with no_feasible_path if any hop lacks capacity. Null `fee` —
  /// the cooperative setting of [30] — charges nothing; a non-null fee is
  /// what every interior node of the route charges the sender (the
  /// fee-aware, non-cooperative rebalancing contrast: intermediaries do
  /// not forward for free).
  payment_result execute_route(graph::node_id sender,
                               const std::vector<graph::edge_id>& route,
                               double amount,
                               const dist::fee_function* fee = nullptr);

  /// Feasibility probe: does a path exist without executing?
  bool payment_feasible(graph::node_id sender, graph::node_id receiver,
                        double amount) const;

  // --- in-flight HTLCs ---------------------------------------------------
  //
  // The discrete-event traffic engine (src/traffic/) holds balance hop by
  // hop while a payment is in flight. Locking reserves `amount` of the
  // directed edge's source-side balance: the balance (and the edge
  // capacity routing sees) drops immediately, but the coins are credited
  // to the other side only on settle — or returned on fail/timeout.
  // Invariant: balance_a + balance_b + locked_a + locked_b of a channel is
  // constant under any lock/settle/fail sequence.

  /// Reserves `amount` (> 0) of edge `e`'s source-side balance. Returns
  /// false — changing nothing — when the available balance is below
  /// `amount`.
  [[nodiscard]] bool try_lock_htlc(graph::edge_id e, double amount);

  /// Settles a previously locked HTLC: the locked amount moves to the
  /// other end of the channel (Figure 1's balance shift, one hop).
  void settle_htlc(graph::edge_id e, double amount);

  /// Fails a previously locked HTLC: the locked amount returns to the
  /// source-side balance.
  void fail_htlc(graph::edge_id e, double amount);

  /// Coins currently locked in channel `id` by in-flight HTLCs.
  double locked_in_channel(channel_id id) const;

  /// Coins locked across all channels (0 when no payment is in flight).
  double total_locked() const;

  /// Snapshot / restore of all channel balances: lets experiments replay
  /// workloads against fixed balances (the paper's analytic model ignores
  /// depletion; the simulators measure its effect — see
  /// pcn::periodic_balance_reset in pcn/reset.h for the shared periodic
  /// form). Restore touches only the spendable balances; amounts locked by
  /// in-flight HTLCs stay locked and re-materialise on settle/fail.
  struct balance_snapshot {
    std::vector<std::pair<double, double>> balances;  // (a, b) per channel
  };
  [[nodiscard]] balance_snapshot snapshot_balances() const;
  void restore_balances(const balance_snapshot& snap);

  // --- ledgers -----------------------------------------------------------
  double fees_earned(graph::node_id v) const;
  double fees_paid(graph::node_id v) const;
  double onchain_spent(graph::node_id v) const;
  /// Coins returned to `v` by closed channels.
  double settled(graph::node_id v) const;

  std::uint64_t payments_attempted() const noexcept { return attempted_; }
  std::uint64_t payments_succeeded() const noexcept { return succeeded_; }

 private:
  /// The first-found shortest path whose every edge has capacity >=
  /// amount (graph::first_found_path). With a tie_breaker, samples
  /// uniformly among all such shortest paths.
  std::vector<graph::edge_id> feasible_path(graph::node_id sender,
                                            graph::node_id receiver,
                                            double amount,
                                            rng* tie_breaker = nullptr) const;
  /// Shifts `amount` along `edges`, charges `hop_fee(v)` per intermediary v
  /// (empty function = no fees), fills `result`.
  void settle_payment(graph::node_id sender,
                      const std::vector<graph::edge_id>& edges, double amount,
                      const std::function<double(graph::node_id)>& hop_fee,
                      payment_result& result);
  void charge_onchain(graph::node_id v, double cost);

  graph::digraph g_;
  std::vector<channel> channels_;
  std::vector<channel_id> edge_owner_;  // edge_id -> owning channel
  std::size_t open_channels_ = 0;
  double onchain_cost_;
  std::vector<double> fees_earned_;
  std::vector<double> fees_paid_;
  std::vector<double> onchain_spent_;
  std::vector<double> settled_;
  std::uint64_t attempted_ = 0;
  std::uint64_t succeeded_ = 0;
};

}  // namespace lcg::pcn

#endif  // LCG_PCN_NETWORK_H
