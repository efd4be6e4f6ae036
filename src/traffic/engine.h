// Discrete-event HTLC payment traffic engine.
//
// The analytic model (core/utility.h) and the synchronous simulator
// (sim/engine.h) both execute payments atomically: feasibility is checked
// and balances shift in one step. Real PCN traffic is concurrent — an HTLC
// locks balance on every hop of its route until the payment settles or
// times out, and routers work from stale gossip — so realised throughput
// and fee revenue sit below the analytic E_rev. This engine measures that
// gap at scale (millions of payments per run):
//
//   * a timestamped event queue with deterministic (time, seq) total order
//     (traffic/events.h);
//   * per-hop HTLC forwarding that locks real balance via
//     pcn::network::try_lock_htlc, settles backward from the receiver, and
//     releases locks on failure or timeout;
//   * routing on a stale balance view refreshed every `gossip_refresh`
//     time units (traffic/router.h) — feasible-looking routes can fail
//     mid-flight, exactly the CLoTH failure mode;
//   * pluggable retry policies (traffic/retry.h);
//   * streaming workload consumption: exactly one pending arrival is ever
//     materialised, so memory is O(in-flight payments), never O(events).
//
// Determinism: the engine draws no randomness of its own — the workload
// generator's stream is the only stochastic input — and ties are broken by
// scheduling order, so a (network, workload seed, config) triple fully
// determines every metric. With zero hop latency, a fresh view (gossip
// refresh 0) and no retries, each payment completes before the next
// arrival and the engine reproduces sim::run_simulation's deterministic
// routing exactly (success counts, balances and fees — pinned by
// tests/traffic_engine_test.cpp).

#ifndef LCG_TRAFFIC_ENGINE_H
#define LCG_TRAFFIC_ENGINE_H

#include <cstdint>
#include <vector>

#include "dist/fee.h"
#include "pcn/network.h"
#include "sim/workload.h"
#include "traffic/retry.h"

namespace lcg::traffic {

struct traffic_config {
  double horizon = 100.0;  ///< arrivals stop here; in-flight work drains
  const dist::fee_function* fee = nullptr;  ///< per-intermediary; may be null
  /// Simulated time per HTLC hop (forward and settle steps alike). 0 makes
  /// every payment complete instantly at its arrival time.
  double hop_latency = 0.0;
  /// An attempt still forwarding this long after it started is aborted and
  /// its locks released (terminal — timeouts are never retried). 0 = off.
  double htlc_timeout = 0.0;
  /// Routers re-learn balances every this many time units; 0 = routers
  /// always see live balances (unbounded gossip freshness).
  double gossip_refresh = 0.0;
  retry_policy retry;
  /// Max payments in flight at once; arrivals beyond it queue FIFO and
  /// dispatch as slots free. 0 = unlimited.
  std::size_t max_inflight = 0;
  /// > 0: restore balances to the initial snapshot periodically
  /// (pcn::periodic_balance_reset — same semantics as sim/engine.h).
  double balance_reset_period = 0.0;
};

struct traffic_metrics {
  std::uint64_t attempted = 0;  ///< payments entering the network
  std::uint64_t delivered = 0;
  std::uint64_t failed_no_route = 0;   ///< terminal: router found nothing
  std::uint64_t failed_mid_flight = 0; ///< terminal: a hop lock failed
  std::uint64_t timed_out = 0;         ///< terminal: HTLC timeout
  std::uint64_t infeasible_input = 0;  ///< sender==receiver / zero amount
  std::uint64_t retries = 0;           ///< extra attempts started
  std::uint64_t lock_failures = 0;     ///< every mid-flight lock failure
  std::uint64_t events = 0;            ///< events processed
  std::uint64_t gossip_refreshes = 0;
  std::uint64_t balance_resets = 0;
  std::uint64_t max_inflight_seen = 0;
  std::uint64_t route_scans = 0;       ///< edges examined by route search
  double volume_attempted = 0.0;
  double volume_delivered = 0.0;
  double horizon = 0.0;

  std::vector<double> fees_earned;  ///< per node (realised revenue)
  std::vector<double> fees_paid;
  std::vector<std::uint64_t> forwarded;  ///< per node: HTLCs settled through

  [[nodiscard]] double success_rate() const noexcept {
    return attempted ? static_cast<double>(delivered) /
                           static_cast<double>(attempted)
                     : 0.0;
  }
  /// Realised fee revenue of `v` per unit time — the measured counterpart
  /// of the analytic E_rev.
  [[nodiscard]] double revenue_rate(graph::node_id v) const {
    return horizon > 0.0 ? fees_earned[v] / horizon : 0.0;
  }
};

/// Runs `workload` against `net` (mutating balances) until every payment
/// that arrived before the horizon has settled or failed.
[[nodiscard]] traffic_metrics run_traffic(pcn::network& net,
                                          sim::workload_generator& workload,
                                          const traffic_config& config);

}  // namespace lcg::traffic

#endif  // LCG_TRAFFIC_ENGINE_H
