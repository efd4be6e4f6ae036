// E16 — substrate performance: the multi-backend betweenness engine.
//
// II-B claims the Eq. 2 estimation "can be done efficiently in time O(n^2)"
// (per source O(n + m), sparse graphs); this binary measures that scaling
// and compares the backends of graph/betweenness.h head to head:
//
//   * serial    — exact reference sweep
//   * parallel  — exact, source-partitioned across threads (bit-identical)
//   * sampled   — Brandes–Pich pivot estimator (k pivots, n/k rescale)
//
// It emits a machine-readable record of the comparison to
// BENCH_betweenness.json so the performance trajectory is tracked across
// PRs:
//
//   [{"n":..., "edges":..., "backend":"parallel", "graph":"csr",
//     "threads":8, "pivots":0, "obs":{"graph/sweep_source_parallel":...},
//     "wall_ms":..., "speedup_vs_serial":..., "max_rel_error":...}, ...]
//
// The "obs" object mirrors the run's deterministic source-sweep count
// under the runtime counter name (src/obs/), so a trace snapshot and a
// committed bench record are comparable key for key.
//
// Each configuration is timed once, on the host's frozen CSR view
// (graph/csr.h) — the only representation the engine sweeps — so "graph"
// is always "csr". Exactness is enforced, not just reported: any parallel
// result that is not bit-identical to serial aborts with exit code 1. The
// bench_artifacts ctest runs --smoke and pins the record keys of its output
// and of the committed BENCH_betweenness.json.
//
//   bench_betweenness [--smoke] [--json PATH] [--sizes n1,n2,...]
//                     [--threads t1,t2,...] [--repeat R]

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "graph/betweenness.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcg;

struct bench_record {
  std::size_t n = 0;
  std::size_t edges = 0;
  std::string backend;
  std::size_t threads = 1;
  std::size_t pivots = 0;
  /// Single-source sweeps one run performs — deterministic (n for the
  /// exact backends, the pivot count for sampled) and mirrored at runtime
  /// by the graph/sweep_source_* obs counters.
  std::uint64_t swept_sources = 0;
  double wall_ms = 0.0;
  double speedup_vs_serial = 0.0;
  double max_rel_error = 0.0;
};

struct bench_config {
  std::vector<std::size_t> sizes{500, 1000, 2000};
  std::vector<std::size_t> threads{2, 4, 8};
  std::size_t repeat = 1;
  std::string json_path = "BENCH_betweenness.json";
};

/// Largest |a - b| over nodes and edges, normalised by the largest exact
/// value (not per-element: near-zero exact entries would otherwise dominate
/// the metric and make the sampled backend read as 100x error on elements
/// that are irrelevant at the scale of the result).
double max_rel_error(const graph::betweenness_result& exact,
                     const graph::betweenness_result& got) {
  double scale = 0.0;
  for (const double e : exact.node) scale = std::max(scale, std::abs(e));
  for (const double e : exact.edge) scale = std::max(scale, std::abs(e));
  double worst = 0.0;
  for (std::size_t v = 0; v < exact.node.size(); ++v)
    worst = std::max(worst, std::abs(got.node[v] - exact.node[v]));
  for (std::size_t e = 0; e < exact.edge.size(); ++e)
    worst = std::max(worst, std::abs(got.edge[e] - exact.edge[e]));
  return worst / std::max(scale, 1e-12);
}

bool bit_identical(const graph::betweenness_result& a,
                   const graph::betweenness_result& b) {
  return a.node == b.node && a.edge == b.edge;
}

void write_json(const std::string& path,
                const std::vector<bench_record>& records) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_betweenness: cannot open '" << path << "'\n";
    std::exit(1);
  }
  // host_hw_threads records the machine the numbers came from: a 1-core
  // host cannot show parallel speedup, and trajectory comparisons across
  // PRs are only meaningful between records with matching hardware.
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bench_record& r = records[i];
    os << "  {\"n\": " << r.n << ", \"edges\": " << r.edges
       << ", \"backend\": \"" << r.backend
       << "\", \"graph\": \"csr\", \"threads\": " << r.threads
       << ", \"pivots\": " << r.pivots
       << ", \"host_hw_threads\": " << hardware
       << ", \"obs\": {\"graph/sweep_source_" << r.backend
       << "\": " << r.swept_sources << "}"
       << ", \"wall_ms\": " << r.wall_ms
       << ", \"speedup_vs_serial\": " << r.speedup_vs_serial
       << ", \"max_rel_error\": " << r.max_rel_error << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

int run(const bench_config& config) {
  std::vector<bench_record> records;
  table t({"n", "edges", "backend", "threads", "pivots", "wall ms",
           "speedup", "max rel err"});
  bool exactness_ok = true;

  for (const std::size_t n : config.sizes) {
    rng gen(n);
    const graph::digraph g = graph::barabasi_albert(n, 2, gen);
    const graph::csr_graph frozen = graph::freeze(g);
    const auto w = [](graph::node_id, graph::node_id) { return 1.0; };

    // Times one configuration on the frozen view and records it. Serial
    // (serial_wall == 0) is the baseline every speedup is measured against.
    const auto measure = [&](const char* backend, std::size_t threads,
                             std::size_t pivots,
                             const graph::betweenness_options& options,
                             double serial_wall,
                             const graph::betweenness_result* exact) {
      graph::betweenness_result got;
      const double wall = bench::best_of_ms(
          config.repeat,
          [&] { return graph::weighted_betweenness(frozen, w, options); },
          &got);
      bench_record r;
      r.n = n;
      r.edges = g.edge_count();
      r.backend = backend;
      r.threads = threads;
      r.pivots = pivots;
      // Exact backends sweep every source; sampled sweeps its pivots.
      r.swept_sources = pivots > 0 ? pivots : n;
      r.wall_ms = wall;
      const double base = serial_wall > 0.0 ? serial_wall : wall;
      r.speedup_vs_serial = wall > 0.0 ? base / wall : 0.0;
      r.max_rel_error = exact ? max_rel_error(*exact, got) : 0.0;
      records.push_back(r);
      t.add_row({static_cast<long long>(n),
                 static_cast<long long>(g.edge_count()), std::string(backend),
                 static_cast<long long>(threads),
                 static_cast<long long>(pivots), wall, r.speedup_vs_serial,
                 r.max_rel_error});
      return got;
    };

    const graph::betweenness_result serial =
        measure("serial", 1, 0, graph::betweenness_options{}, 0.0, nullptr);
    const double serial_ms = records.back().wall_ms;

    for (const std::size_t threads : config.threads) {
      graph::betweenness_options options;
      options.backend = graph::betweenness_backend::parallel;
      options.threads = threads;
      if (!bit_identical(serial, measure("parallel", threads, 0, options,
                                         serial_ms, &serial))) {
        std::cerr << "bench_betweenness: parallel backend (threads="
                  << threads << ", n=" << n
                  << ") is NOT bit-identical to serial\n";
        exactness_ok = false;
      }
    }

    for (const std::size_t divisor : {4, 16}) {
      const std::size_t pivots = std::max<std::size_t>(1, n / divisor);
      graph::betweenness_options options;
      options.backend = graph::betweenness_backend::sampled;
      options.threads = 1;  // isolate sampling speedup from threading
      options.sample_pivots = pivots;
      options.rng_seed = 0x5eed0000 + n;
      measure("sampled", 1, pivots, options, serial_ms, &serial);
    }
  }

  std::cout << "E16 / betweenness backend comparison (BA hosts, attach 2; "
            << "parallel must be bit-identical to serial)\n";
  t.print(std::cout);
  write_json(config.json_path, records);
  std::cout << records.size() << " record(s) -> " << config.json_path << "\n";
  return exactness_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* binary = "bench_betweenness";
  bench_config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      // Smoke mode (bench_artifacts ctest): small hosts, quick but still
      // covering every backend.
      config.sizes = {50, 120};
      config.threads = {2, 4};
    } else if (arg == "--json") {
      config.json_path = bench::flag_value(binary, argc, argv, i);
    } else if (arg == "--sizes") {
      config.sizes = bench::parse_size_list(
          binary, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--threads") {
      config.threads = bench::parse_size_list(
          binary, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--repeat") {
      config.repeat = bench::parse_count(
          binary, arg, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_betweenness [--smoke] [--json PATH] "
                   "[--sizes n1,n2,...] [--threads t1,t2,...] [--repeat R]\n";
      return 0;
    } else {
      bench::usage_error(binary, "unknown argument '" + arg + "'");
    }
  }
  return run(config);
}
