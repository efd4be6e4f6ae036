// Traffic-engine throughput: discrete-event HTLC payments per second.
//
// Streams a Poisson workload through traffic::run_traffic (src/traffic/) on
// Watts–Strogatz hosts and measures end-to-end event-loop throughput —
// routing on a stale balance view, per-hop locking, retries, settle chains.
// The default run pushes >= 10^6 payments through a single network, the
// scale the streaming design exists for, and emits a machine-readable
// record to BENCH_payments.json so the performance trajectory is tracked
// across PRs (the same contract as BENCH_arena.json):
//
//   [{"n":..., "channels":..., "topology":"ws", "retry":"exclude",
//     "gossip_refresh":1, "payments":..., "delivered":...,
//     "success_rate":..., "events":..., "host_hw_threads":...,
//     "obs":{"traffic/attempt_payment":..., ..., "traffic/route_scan":...},
//     "wall_ms":..., "payments_per_sec":...}, ...]
//
// The "obs" object mirrors the run's deterministic event ledger under the
// runtime metric names (src/obs/), so a trace snapshot and a committed
// bench record are comparable key for key.
//
// Every record must satisfy 0 < delivered <= payments, events >= payments
// and route_scan > 0; the binary exits 1 otherwise. The bench_artifacts
// ctest runs --smoke and pins the record keys of its output and of the
// committed BENCH_payments.json.
//
//   bench_payments [--smoke] [--json PATH] [--sizes n1,n2,...]
//                  [--payments P] [--repeat R]

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "arena/export.h"
#include "bench_common.h"
#include "dist/fee.h"
#include "dist/transaction_dist.h"
#include "dist/tx_size.h"
#include "runner/fixtures.h"
#include "sim/workload.h"
#include "traffic/engine.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcg;

struct bench_record {
  std::size_t n = 0;
  std::size_t channels = 0;
  std::uint64_t payments = 0;
  std::uint64_t delivered = 0;
  double success_rate = 0.0;
  std::uint64_t events = 0;
  /// The deterministic per-run event ledger, mirrored into the record's
  /// "obs" object under the runtime counter names (the live registry is
  /// never read here — the workload is seeded, so the ledger is stable).
  traffic::traffic_metrics metrics;
  double wall_ms = 0.0;
};

struct bench_config {
  std::vector<std::size_t> sizes{64, 256};
  std::uint64_t payments = 1'050'000;  ///< target arrivals per record
  std::size_t repeat = 1;
  std::string json_path = "BENCH_payments.json";
};

void write_json(const std::string& path,
                const std::vector<bench_record>& records) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_payments: cannot open '" << path << "'\n";
    std::exit(1);
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bench_record& r = records[i];
    const double per_sec =
        r.wall_ms > 0.0
            ? static_cast<double>(r.payments) / (r.wall_ms / 1000.0)
            : 0.0;
    os << "  {\"n\": " << r.n << ", \"channels\": " << r.channels
       << ", \"topology\": \"ws\", \"retry\": \"exclude\""
       << ", \"gossip_refresh\": 1, \"payments\": " << r.payments
       << ", \"delivered\": " << r.delivered
       << ", \"success_rate\": " << r.success_rate
       << ", \"events\": " << r.events
       << ", \"host_hw_threads\": " << hardware
       << ", \"obs\": {\"traffic/attempt_payment\": " << r.metrics.attempted
       << ", \"traffic/deliver_payment\": " << r.metrics.delivered
       << ", \"traffic/fail_no_route\": " << r.metrics.failed_no_route
       << ", \"traffic/fail_mid_flight\": " << r.metrics.failed_mid_flight
       << ", \"traffic/timeout_payment\": " << r.metrics.timed_out
       << ", \"traffic/retry_payment\": " << r.metrics.retries
       << ", \"traffic/fail_lock\": " << r.metrics.lock_failures
       << ", \"traffic/process_event\": " << r.metrics.events
       << ", \"traffic/route_scan\": " << r.metrics.route_scans << "}"
       << ", \"wall_ms\": " << r.wall_ms
       << ", \"payments_per_sec\": " << per_sec << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

/// The relations every record must satisfy; the first broken one, or
/// nullptr.
const char* record_violation(const bench_record& r) {
  if (r.delivered == 0 || r.delivered > r.payments)
    return "delivered outside (0, payments]";
  if (r.events < r.payments) return "fewer events than payment arrivals";
  if (r.metrics.route_scans == 0) return "no route search work";
  return nullptr;
}

int run(const bench_config& config) {
  std::vector<bench_record> records;
  bool relations_ok = true;
  table t({"n", "channels", "payments", "delivered", "success", "events",
           "wall ms", "payments/s"});

  for (const std::size_t n : config.sizes) {
    rng gen(n);
    const graph::digraph host = runner::make_topology("ws", n, gen);
    const dist::zipf_transaction_distribution zipf(1.0);
    const dist::demand_model demand(host, zipf, static_cast<double>(n));
    const dist::fixed_tx_size sizes(1.0);
    const dist::constant_fee fee(0.5);

    traffic::traffic_config tc;
    // Rate n => horizon ~ payments / n arrivals before the horizon.
    tc.horizon = static_cast<double>(config.payments) /
                 static_cast<double>(n);
    tc.fee = &fee;
    tc.hop_latency = 0.01;
    tc.htlc_timeout = 5.0;
    tc.gossip_refresh = 1.0;
    tc.retry.kind = traffic::retry_kind::exclude;

    // run_traffic consumes the network/workload, so both rebuild per
    // repeat inside the timed lambda; their construction is O(n + m),
    // noise against the >= 10^6-payment event loop being measured.
    traffic::traffic_metrics m;
    const double best_ms = bench::best_of_ms(
        config.repeat,
        [&] {
          pcn::network net = arena::to_network(host, 16.0);
          sim::workload_generator wl(demand, sizes, 42);
          return traffic::run_traffic(net, wl, tc);
        },
        &m);

    bench_record rec;
    rec.n = n;
    rec.channels = host.edge_count() / 2;
    rec.payments = m.attempted;
    rec.delivered = m.delivered;
    rec.success_rate = m.success_rate();
    rec.events = m.events;
    rec.metrics = m;
    rec.wall_ms = best_ms;
    if (const char* problem = record_violation(rec)) {
      std::cerr << "bench_payments: n=" << n << ": " << problem << "\n";
      relations_ok = false;
    }
    records.push_back(rec);
    t.add_row({static_cast<long long>(n),
               static_cast<long long>(rec.channels),
               static_cast<long long>(rec.payments),
               static_cast<long long>(rec.delivered), rec.success_rate,
               static_cast<long long>(rec.events), rec.wall_ms,
               rec.wall_ms > 0.0 ? static_cast<double>(rec.payments) /
                                       (rec.wall_ms / 1000.0)
                                 : 0.0});
  }

  std::cout << "HTLC traffic engine throughput (ws hosts, rate n, "
            << "exclude-retry, 1-unit gossip staleness)\n";
  t.print(std::cout);
  write_json(config.json_path, records);
  std::cout << records.size() << " record(s) -> " << config.json_path << "\n";
  return relations_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* binary = "bench_payments";
  bench_config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      // Smoke mode (bench_artifacts ctest): small hosts, a quick slice of
      // the workload.
      config.sizes = {24, 48};
      config.payments = 20'000;
    } else if (arg == "--json") {
      config.json_path = bench::flag_value(binary, argc, argv, i);
    } else if (arg == "--sizes") {
      config.sizes = bench::parse_size_list(
          binary, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--payments") {
      config.payments = bench::parse_count(
          binary, arg, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--repeat") {
      config.repeat = bench::parse_count(
          binary, arg, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_payments [--smoke] [--json PATH] "
                   "[--sizes n1,n2,...] [--payments P] [--repeat R]\n";
      return 0;
    } else {
      bench::usage_error(binary, "unknown argument '" + arg + "'");
    }
  }
  return run(config);
}
