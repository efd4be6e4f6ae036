#include "traffic/engine.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "obs/registry.h"
#include "obs/span.h"
#include "pcn/reset.h"
#include "traffic/events.h"
#include "traffic/htlc.h"
#include "traffic/router.h"
#include "util/error.h"

namespace lcg::traffic {
namespace {

/// Per-payment instrumentation is limited to what stays cheap at >10^6
/// payments: one gauge move per dispatch/complete and one histogram
/// record per routed attempt / delivery (each a single relaxed load when
/// obs is disabled). Event-grained counters flush once per run from the
/// traffic_metrics ledger instead of firing per event.
struct traffic_obs {
  obs::counter& attempt;
  obs::counter& deliver;
  obs::counter& fail_no_route;
  obs::counter& fail_mid_flight;
  obs::counter& timeout;
  obs::counter& retry;
  obs::counter& fail_lock;
  obs::counter& process_event;
  obs::counter& refresh_gossip;
  obs::counter& reset_balance;
  obs::counter& reject_infeasible;
  obs::counter& route_scan;
  obs::gauge& inflight;
  obs::histogram& latency;
  obs::histogram& route_length;
  static const traffic_obs& get() {
    auto& reg = obs::registry::global();
    static const traffic_obs t{
        reg.get_counter("traffic/attempt_payment"),
        reg.get_counter("traffic/deliver_payment"),
        reg.get_counter("traffic/fail_no_route"),
        reg.get_counter("traffic/fail_mid_flight"),
        reg.get_counter("traffic/timeout_payment"),
        reg.get_counter("traffic/retry_payment"),
        reg.get_counter("traffic/fail_lock"),
        reg.get_counter("traffic/process_event"),
        reg.get_counter("traffic/refresh_gossip"),
        reg.get_counter("traffic/reset_balance"),
        reg.get_counter("traffic/reject_infeasible"),
        reg.get_counter("traffic/route_scan"),
        reg.get_gauge("traffic/inflight_payments"),
        reg.get_histogram("traffic/payment_latency",
                          {1e-3, 2e-3, 5e-3, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
                           1, 2, 5, 10, 100}),
        reg.get_histogram("traffic/route_length",
                          {1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32}),
    };
    return t;
  }
};

// The event loop proper. Two ordered streams drive it: the internal event
// queue and the workload's arrival stream, of which exactly one event is
// ever materialised (`pending_`). Internal events win timestamp ties, so
// all in-flight work at time t resolves before a new payment arriving at t
// is admitted — which is also what makes the degenerate configuration
// (zero latency, no concurrency effects) exactly sequential.
class traffic_run {
 public:
  traffic_run(pcn::network& net, sim::workload_generator& workload,
              const traffic_config& config)
      : net_(net),
        workload_(workload),
        config_(config),
        view_(net, config.gossip_refresh <= 0.0),
        reset_(net, config.balance_reset_period) {}

  traffic_metrics run() {
    const std::size_t n = net_.node_count();
    metrics_.horizon = config_.horizon;
    metrics_.fees_earned.assign(n, 0.0);
    metrics_.fees_paid.assign(n, 0.0);
    metrics_.forwarded.assign(n, 0);

    if (!view_.fresh() && config_.gossip_refresh < config_.horizon)
      queue_.push({config_.gossip_refresh, 0, event_kind::gossip_refresh});
    pull_arrival();

    while (!queue_.empty() || pending_) {
      // Strict `<`: internal events at the arrival's timestamp run first.
      if (pending_ && (queue_.empty() || pending_->time < queue_.peek().time)) {
        const sim::tx_event tx = *pending_;
        pull_arrival();
        ++metrics_.events;
        on_arrival(tx);
      } else {
        const event ev = queue_.pop();
        ++metrics_.events;
        handle(ev);
      }
    }

    metrics_.balance_resets = reset_.resets_applied();
    metrics_.route_scans = view_.route_scans();
    flush_obs();
    return metrics_;
  }

 private:
  /// One bulk counter flush from the run's deterministic ledger; the
  /// ledger itself stays the scenario-facing result source.
  void flush_obs() const {
    if (!obs::enabled()) return;
    const traffic_obs& t = traffic_obs::get();
    t.attempt.add(metrics_.attempted);
    t.deliver.add(metrics_.delivered);
    t.fail_no_route.add(metrics_.failed_no_route);
    t.fail_mid_flight.add(metrics_.failed_mid_flight);
    t.timeout.add(metrics_.timed_out);
    t.retry.add(metrics_.retries);
    t.fail_lock.add(metrics_.lock_failures);
    t.process_event.add(metrics_.events);
    t.refresh_gossip.add(metrics_.gossip_refreshes);
    t.reset_balance.add(metrics_.balance_resets);
    t.reject_infeasible.add(metrics_.infeasible_input);
    t.route_scan.add(metrics_.route_scans);
  }

  payment_state& at(std::uint32_t slot) { return payments_[slot]; }

  /// The payment an event refers to, or null when the event is stale
  /// (slot recycled, retried attempt, or phase moved on).
  payment_state* resolve(const event& ev, payment_phase expected) {
    payment_state& p = at(payment_slot(ev.payment));
    if (p.generation != payment_generation(ev.payment)) return nullptr;
    if (p.phase != expected || p.attempt != ev.attempt) return nullptr;
    return &p;
  }

  void push(event ev) { queue_.push(ev); }

  /// Advances the workload stream to the next admissible arrival before
  /// the horizon (counting malformed events), or exhausts it.
  void pull_arrival() {
    for (;;) {
      pending_ = workload_.next();
      if (!pending_ || pending_->time >= config_.horizon) {
        pending_.reset();
        return;
      }
      if (pending_->sender != pending_->receiver && pending_->amount > 0.0)
        return;
      ++metrics_.infeasible_input;
    }
  }

  void on_arrival(const sim::tx_event& tx) {
    reset_.advance_to(tx.time);
    ++metrics_.attempted;
    metrics_.volume_attempted += tx.amount;

    std::uint32_t slot;
    if (free_.empty()) {
      slot = static_cast<std::uint32_t>(payments_.size());
      payments_.emplace_back();
    } else {
      slot = free_.back();
      free_.pop_back();
    }
    payment_state& p = at(slot);
    p.sender = tx.sender;
    p.receiver = tx.receiver;
    p.amount = tx.amount;
    p.arrival_time = tx.time;
    p.attempt = 0;

    if (config_.max_inflight > 0 && inflight_ >= config_.max_inflight) {
      p.phase = payment_phase::queued;
      waiting_.push_back(slot);
      return;
    }
    dispatch(tx.time, slot);
  }

  void dispatch(double time, std::uint32_t slot) {
    ++inflight_;
    metrics_.max_inflight_seen = std::max(metrics_.max_inflight_seen,
                                          static_cast<std::uint64_t>(inflight_));
    if (obs::enabled()) traffic_obs::get().inflight.add(1);
    start_attempt(time, slot);
  }

  void start_attempt(double time, std::uint32_t slot) {
    payment_state& p = at(slot);
    find_route(view_, p.sender, p.receiver, p.amount, p.excluded, p.route);
    p.locked_hops = 0;
    if (p.route.empty()) {
      fail_attempt(time, slot, fail_reason::no_route);
      return;
    }
    if (obs::enabled())
      traffic_obs::get().route_length.record(
          static_cast<double>(p.route.size()));
    p.phase = payment_phase::forwarding;
    const std::uint64_t ref = payment_ref(slot, p.generation);
    push({time, 0, event_kind::forward, ref, p.attempt, 0});
    if (config_.htlc_timeout > 0.0)
      push({time + config_.htlc_timeout, 0, event_kind::timeout, ref,
            p.attempt, 0});
  }

  void on_forward(const event& ev) {
    payment_state* p = resolve(ev, payment_phase::forwarding);
    if (p == nullptr) return;
    const std::uint32_t slot = payment_slot(ev.payment);
    const graph::edge_id e = p->route[ev.hop];
    if (!net_.try_lock_htlc(e, p->amount)) {
      ++metrics_.lock_failures;
      p->excluded.push_back(e);
      fail_attempt(ev.time, slot, fail_reason::lock_fail);
      return;
    }
    ++p->locked_hops;
    if (p->locked_hops == p->route.size()) {
      // Receiver reached: the preimage walks the chain backward.
      p->phase = payment_phase::settling;
      push({ev.time + config_.hop_latency, 0, event_kind::settle, ev.payment,
            ev.attempt, static_cast<std::uint32_t>(p->route.size() - 1)});
      return;
    }
    push({ev.time + config_.hop_latency, 0, event_kind::forward, ev.payment,
          ev.attempt, ev.hop + 1});
  }

  void on_settle(const event& ev) {
    payment_state* p = resolve(ev, payment_phase::settling);
    if (p == nullptr) return;
    const graph::edge_id e = p->route[ev.hop];
    net_.settle_htlc(e, p->amount);
    if (ev.hop > 0) {
      // Hops 1.. are forwarded by an intermediary (the edge's source),
      // which earns the fee — same ledger rule as execute_payment.
      const graph::node_id via = net_.topology().edge_at(e).src;
      ++metrics_.forwarded[via];
      if (config_.fee != nullptr) {
        const double f = (*config_.fee)(p->amount);
        metrics_.fees_earned[via] += f;
        metrics_.fees_paid[p->sender] += f;
      }
      push({ev.time + config_.hop_latency, 0, event_kind::settle, ev.payment,
            ev.attempt, ev.hop - 1});
      return;
    }
    ++metrics_.delivered;
    metrics_.volume_delivered += p->amount;
    if (obs::enabled())
      traffic_obs::get().latency.record(ev.time - p->arrival_time);
    complete(ev.time, payment_slot(ev.payment));
  }

  void on_timeout(const event& ev) {
    payment_state* p = resolve(ev, payment_phase::forwarding);
    if (p == nullptr) return;  // settled, failed or retried meanwhile
    fail_attempt(ev.time, payment_slot(ev.payment), fail_reason::timed_out);
  }

  void on_retry(const event& ev) {
    payment_state* p = resolve(ev, payment_phase::waiting_retry);
    if (p == nullptr) return;
    start_attempt(ev.time, payment_slot(ev.payment));
  }

  void on_gossip(const event& ev) {
    view_.refresh();
    ++metrics_.gossip_refreshes;
    // The chain stops at the horizon so the queue can drain; post-horizon
    // stragglers route on the last belief.
    const double next = ev.time + config_.gossip_refresh;
    if (next < config_.horizon)
      push({next, 0, event_kind::gossip_refresh});
  }

  void fail_attempt(double time, std::uint32_t slot, fail_reason reason) {
    payment_state& p = at(slot);
    for (std::uint32_t h = 0; h < p.locked_hops; ++h)
      net_.fail_htlc(p.route[h], p.amount);
    p.locked_hops = 0;
    const retry_decision rd =
        decide_retry(config_.retry, reason, p.attempt + 1);
    if (rd.retry) {
      ++metrics_.retries;
      ++p.attempt;
      if (rd.delay > 0.0) {
        p.phase = payment_phase::waiting_retry;
        push({time + rd.delay, 0, event_kind::retry,
              payment_ref(slot, p.generation), p.attempt, 0});
      } else {
        start_attempt(time, slot);
      }
      return;
    }
    switch (reason) {
      case fail_reason::no_route:
        ++metrics_.failed_no_route;
        break;
      case fail_reason::lock_fail:
        ++metrics_.failed_mid_flight;
        break;
      case fail_reason::timed_out:
        ++metrics_.timed_out;
        break;
    }
    complete(time, slot);
  }

  /// Recycles the payment's slot and admits the next queued payment.
  void complete(double time, std::uint32_t slot) {
    payment_state& p = at(slot);
    p.phase = payment_phase::idle;
    ++p.generation;
    p.route.clear();
    p.excluded.clear();
    free_.push_back(slot);
    --inflight_;
    if (obs::enabled()) traffic_obs::get().inflight.add(-1);
    if (!waiting_.empty() &&
        (config_.max_inflight == 0 || inflight_ < config_.max_inflight)) {
      const std::uint32_t next = waiting_.front();
      waiting_.pop_front();
      dispatch(time, next);
    }
  }

  void handle(const event& ev) {
    switch (ev.kind) {
      case event_kind::arrival:
        break;  // arrivals come from pending_, never the queue
      case event_kind::forward:
        on_forward(ev);
        break;
      case event_kind::settle:
        on_settle(ev);
        break;
      case event_kind::timeout:
        on_timeout(ev);
        break;
      case event_kind::retry:
        on_retry(ev);
        break;
      case event_kind::gossip_refresh:
        on_gossip(ev);
        break;
    }
  }

  pcn::network& net_;
  sim::workload_generator& workload_;
  const traffic_config& config_;
  balance_view view_;
  pcn::periodic_balance_reset reset_;
  traffic_metrics metrics_;
  event_queue queue_;
  std::optional<sim::tx_event> pending_;
  std::vector<payment_state> payments_;
  std::vector<std::uint32_t> free_;
  std::deque<std::uint32_t> waiting_;
  std::size_t inflight_ = 0;
};

}  // namespace

traffic_metrics run_traffic(pcn::network& net,
                            sim::workload_generator& workload,
                            const traffic_config& config) {
  LCG_EXPECTS(config.horizon >= 0.0);
  LCG_EXPECTS(config.hop_latency >= 0.0);
  LCG_EXPECTS(config.htlc_timeout >= 0.0);
  LCG_EXPECTS(config.gossip_refresh >= 0.0);
  obs::span run_span("traffic/run");
  run_span.attr("horizon", config.horizon);
  traffic_run run(net, workload, config);
  return run.run();
}

}  // namespace lcg::traffic
