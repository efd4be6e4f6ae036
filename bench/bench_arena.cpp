// Arena performance: best-response dynamics at populations the exhaustive
// topo/best_response reference cannot touch (n >> 8).
//
// Measures wall time, rounds-to-termination and utility-evaluation counts
// of the arena engine (src/arena/) across population sizes and oracles, and
// emits a machine-readable record to BENCH_arena.json so the performance
// trajectory is tracked across PRs (the same contract as
// BENCH_betweenness.json):
//
//   [{"family":"static", "n":..., "channels_start":..., "topology":"ws",
//     "oracle":"greedy", "order":"round_robin", "pivots":16, "mode":"full",
//     "rounds":..., "moves":..., "evaluations":..., "effective_sweeps":...,
//     "pruned_candidates":..., "sweep_reduction":..., "converged":1,
//     "joins":0, "leaves":0, "conservation_gap":0,
//     "final_shape":"other", "provider_threads":1,
//     "obs":{"arena/sweep_full":..., ...},
//     "wall_ms":..., "evals_per_ms":...}, ...]
//
// The "obs" object mirrors the run's sweep ledger under the runtime
// metric names (src/obs/), so a trace snapshot and a committed bench
// record are comparable key for key.
//
// Three families per population size (ISSUE 9): "static" (the homogeneous
// fixed population, greedy AND local oracles), "hetero" (lognormal
// per-player cost params through arena/population.h) and "churn" (2n/3
// initial players, 8 joins + 8 leaves, deposit ledger tracked —
// conservation_gap must be exactly 0).
//
// Every configuration runs in BOTH provider modes (full, incremental) and
// the records are emitted as adjacent pairs. The two runs must agree on
// every observable — outcome, rounds, moves, logical evaluations, total
// gain, final topology, churn counts, ledger — and this binary EXITS 1 on
// any divergence, so the bench doubles as the mode-equivalence gate at
// bench scale. It also exits 1 unless every pair evaluated utilities,
// churn applied joins and leaves with a zero deposit gap (and no other
// family churned), incremental swept less than full, and it settled at
// least one candidate by its separator value without an exact phase
// (`pruned`; greedy and local oracles alike).
// `effective_sweeps` counts single-source DAG constructions (the metric the
// incremental mode exists to cut); `sweep_reduction` on incremental records
// is full/incremental for the same configuration. `provider_threads` is
// the provider's lane count (--threads); every field but the wall times is
// the same at any lane count.
//
// The bench_artifacts ctest runs --smoke and pins the record keys of its
// output and of the committed BENCH_arena.json.
//
//   bench_arena [--smoke] [--json PATH] [--sizes n1,n2,...] [--repeat R]
//               [--threads T]

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "arena/engine.h"
#include "arena/population.h"
#include "bench_common.h"
#include "dist/param_sampler.h"
#include "runner/fixtures.h"
#include "topology/dynamics.h"
#include "topology/game.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using namespace lcg;

struct bench_record {
  /// "static" (the homogeneous fixed-population run), "hetero" (lognormal
  /// per-player params) or "churn" (join/leave schedule + deposit ledger).
  std::string family = "static";
  std::size_t n = 0;
  std::size_t channels_start = 0;
  std::string topology;
  std::string oracle;
  std::string order;
  std::size_t pivots = 0;
  std::string mode;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  double conservation_gap = 0.0;
  std::size_t rounds = 0;
  std::size_t moves = 0;
  std::uint64_t evaluations = 0;
  std::uint64_t effective_sweeps = 0;
  std::uint64_t pruned = 0;
  /// The full per-run sweep ledger, mirrored into the record's "obs"
  /// object under the runtime counter names (values from the
  /// deterministic, equality-gated sweep_stats — never the live registry).
  arena::sweep_stats sweeps;
  double sweep_reduction = 1.0;
  bool converged = false;
  std::string final_shape;
  std::size_t provider_threads = 1;
  double wall_ms = 0.0;
};

struct bench_config {
  std::vector<std::size_t> sizes{60, 120, 240};
  std::size_t repeat = 1;
  std::size_t threads = 1;
  std::string json_path = "BENCH_arena.json";
};

void write_json(const std::string& path,
                const std::vector<bench_record>& records) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "bench_arena: cannot open '" << path << "'\n";
    std::exit(1);
  }
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  os << "[\n";
  for (std::size_t i = 0; i < records.size(); ++i) {
    const bench_record& r = records[i];
    const double evals_per_ms =
        r.wall_ms > 0.0 ? static_cast<double>(r.evaluations) / r.wall_ms : 0.0;
    os << "  {\"family\": \"" << r.family << "\", \"n\": " << r.n
       << ", \"channels_start\": " << r.channels_start
       << ", \"topology\": \"" << r.topology << "\", \"oracle\": \""
       << r.oracle << "\", \"order\": \"" << r.order
       << "\", \"pivots\": " << r.pivots << ", \"mode\": \"" << r.mode
       << "\", \"rounds\": " << r.rounds
       << ", \"moves\": " << r.moves << ", \"evaluations\": " << r.evaluations
       << ", \"effective_sweeps\": " << r.effective_sweeps
       << ", \"pruned_candidates\": " << r.pruned
       << ", \"sweep_reduction\": " << r.sweep_reduction
       << ", \"converged\": " << (r.converged ? 1 : 0)
       << ", \"joins\": " << r.joins << ", \"leaves\": " << r.leaves
       << ", \"conservation_gap\": " << r.conservation_gap
       << ", \"final_shape\": \"" << r.final_shape << "\""
       << ", \"provider_threads\": " << r.provider_threads
       << ", \"host_hw_threads\": " << hardware
       << ", \"obs\": {\"arena/sweep_full\": " << r.sweeps.full_sweeps
       << ", \"arena/build_forest\": " << r.sweeps.forest
       << ", \"arena/resweep_source\": " << r.sweeps.resweeps
       << ", \"arena/accumulate_source\": " << r.sweeps.accumulations
       << ", \"arena/run_support_bfs\": " << r.sweeps.support_bfs
       << ", \"arena/prune_candidate\": " << r.sweeps.pruned << "}"
       << ", \"wall_ms\": " << r.wall_ms
       << ", \"evals_per_ms\": " << evals_per_ms << "}"
       << (i + 1 < records.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

/// The two modes must produce identical dynamics, churn counts, active
/// mask and deposit ledger; any drift is a correctness bug in the
/// incremental path, not a perf regression.
bool equal_runs(const arena::population_result& pa,
                const arena::population_result& pb) {
  const arena::arena_result& a = pa.base;
  const arena::arena_result& b = pb.base;
  if (a.outcome != b.outcome || a.rounds != b.rounds ||
      a.proposals != b.proposals || a.evaluations != b.evaluations ||
      a.total_gain != b.total_gain || a.moves.size() != b.moves.size())
    return false;
  for (std::size_t i = 0; i < a.moves.size(); ++i) {
    const topology::deviation& x = a.moves[i].dev;
    const topology::deviation& y = b.moves[i].dev;
    if (x.deviator != y.deviator || x.removed_peers != y.removed_peers ||
        x.added_peers != y.added_peers ||
        x.utility_before != y.utility_before ||
        x.utility_after != y.utility_after)
      return false;
  }
  return topology::topology_fingerprint(a.state.graph()) ==
             topology::topology_fingerprint(b.state.graph()) &&
         pa.joins == pb.joins && pa.leaves == pb.leaves &&
         pa.active == pb.active &&
         pa.ledger.deposited == pb.ledger.deposited &&
         pa.ledger.refunded == pb.ledger.refunded &&
         pa.ledger.open_value == pb.ledger.open_value &&
         pa.ledger.locked == pb.ledger.locked;
}

/// The relations every full/incremental record pair must satisfy beyond
/// mode equality; the first broken one, or nullptr.
const char* pair_violation(const bench_record& full,
                           const bench_record& inc) {
  if (inc.evaluations == 0) return "no utility evaluations";
  if (full.family == "churn") {
    if (inc.joins == 0 || inc.leaves == 0) return "no churn applied";
    if (inc.conservation_gap != 0.0) return "deposits leaked (gap != 0)";
  } else if (inc.joins != 0 || inc.leaves != 0 ||
             inc.conservation_gap != 0.0) {
    return "joins, leaves or a deposit gap outside the churn family";
  }
  if (inc.effective_sweeps == 0 ||
      inc.effective_sweeps >= full.effective_sweeps)
    return "incremental did not sweep less than full";
  if (inc.pruned == 0) return "the separator settled no candidate";
  return nullptr;
}

int run(const bench_config& config) {
  std::vector<bench_record> records;
  table t({"family", "n", "channels", "oracle", "mode", "rounds", "moves",
           "evaluations", "sweeps", "pruned", "reduction", "shape",
           "wall ms"});

  topology::game_params params;
  params.l = 1.5;

  // The shared restricted-greedy configuration of every family.
  const auto base_options = [&config] {
    arena::arena_options options;
    options.oracle = arena::oracle_kind::greedy;
    options.order = arena::activation_order::round_robin;
    options.seed = 42;
    options.max_rounds = 24;
    options.oracle_opts.candidate_k = 3;
    options.oracle_opts.candidate_random = 0;
    options.oracle_opts.max_channels = 3;
    options.provider.exact_threshold = 96;
    options.provider.pivots = 16;
    options.provider.seed = 42;
    options.provider.threads = config.threads;
    return options;
  };

  /// Runs a population configuration in both provider modes, appending the
  /// paired records; false (after naming the configuration and the problem
  /// on stderr) on any full/incremental divergence or pair_violation.
  const auto run_population_pair = [&](const std::string& family,
                                       const graph::digraph& start,
                                       arena::population_options popts) {
    const std::size_t n = start.node_count();
    std::vector<arena::population_result> results;
    for (const arena::provider_mode mode :
         {arena::provider_mode::full, arena::provider_mode::incremental}) {
      popts.base.provider.mode = mode;
      arena::population_result result;
      const double best_ms = bench::best_of_ms(
          config.repeat,
          [&] { return arena::run_population(start, params, popts); },
          &result);

      bench_record rec;
      rec.family = family;
      rec.n = n;
      rec.channels_start = start.edge_count() / 2;
      rec.topology = "ws";
      rec.oracle = std::string(arena::oracle_name(popts.base.oracle));
      rec.order = std::string(arena::order_name(popts.base.order));
      rec.pivots = popts.base.provider.pivots;
      rec.mode = std::string(arena::provider_mode_name(mode));
      rec.rounds = result.base.rounds;
      rec.moves = result.base.moves.size();
      rec.evaluations = result.base.evaluations;
      rec.effective_sweeps = result.base.sweeps.effective_sweeps();
      rec.pruned = result.base.sweeps.pruned;
      rec.sweeps = result.base.sweeps;
      rec.converged =
          result.base.outcome == topology::dynamics_outcome::converged;
      rec.joins = result.joins;
      rec.leaves = result.leaves;
      rec.conservation_gap = result.ledger.conservation_gap();
      rec.final_shape =
          topology::classify_topology(result.base.state.graph());
      rec.provider_threads = popts.base.provider.threads;
      rec.wall_ms = best_ms;
      if (mode == arena::provider_mode::incremental &&
          rec.effective_sweeps > 0) {
        rec.sweep_reduction =
            static_cast<double>(records.back().effective_sweeps) /
            static_cast<double>(rec.effective_sweeps);
      }
      records.push_back(rec);
      t.add_row({rec.family, static_cast<long long>(n),
                 static_cast<long long>(rec.channels_start), rec.oracle,
                 rec.mode, static_cast<long long>(rec.rounds),
                 static_cast<long long>(rec.moves),
                 static_cast<long long>(rec.evaluations),
                 static_cast<long long>(rec.effective_sweeps),
                 static_cast<long long>(rec.pruned), rec.sweep_reduction,
                 rec.final_shape, rec.wall_ms});
      results.push_back(std::move(result));
    }
    const char* problem =
        equal_runs(results[0], results[1])
            ? pair_violation(records.end()[-2], records.back())
            : "FULL vs INCREMENTAL divergence — the incremental mode must "
              "be bitwise-exact";
    if (problem != nullptr) {
      std::cerr << "bench_arena: n=" << n << " family=" << family
                << " oracle=" << arena::oracle_name(popts.base.oracle) << ": "
                << problem << "\n";
    }
    return problem == nullptr;
  };

  for (const std::size_t n : config.sizes) {
    rng gen(n);
    const graph::digraph start = runner::make_topology("ws", n, gen);

    // Static population: the homogeneous fixed-population run, once per
    // oracle.
    for (const arena::oracle_kind oracle :
         {arena::oracle_kind::greedy, arena::oracle_kind::local}) {
      arena::population_options popts;
      popts.base = base_options();
      popts.base.oracle = oracle;
      if (!run_population_pair("static", start, popts)) return 1;
    }

    // Heterogeneous population (ISSUE 9): mean-preserving lognormal
    // per-player (a, b, l), sigma 0.5, over the same ws start. The
    // full/incremental equality gate now also covers the per-player
    // evaluation path.
    {
      arena::population_options popts;
      popts.base = base_options();
      dist::cost_param_specs specs;
      specs.a = {dist::param_dist::lognormal, params.a, 0.5};
      specs.b = {dist::param_dist::lognormal, params.b, 0.5};
      specs.l = {dist::param_dist::lognormal, params.l, 0.5};
      rng param_stream(0x452821e638d01377ULL ^ n);
      popts.player_params = dist::draw_population(specs, n, param_stream);
      if (!run_population_pair("hetero", start, popts)) return 1;
    }

    // Churning population: 2n/3 initial players over a ws core (spare
    // slots isolated), 8 joins + 8 leaves in the first half of the round
    // budget, deposit ledger tracked. The equality gate covers the churn
    // counts and every ledger field, and pair_violation requires a zero
    // conservation_gap.
    {
      const std::size_t initial = 2 * n / 3;
      arena::population_options popts;
      popts.base = base_options();
      popts.initial_players = initial;
      popts.churn = arena::make_churn_schedule(
          n, initial, 8, 8, popts.base.max_rounds / 2,
          0xb5470917c2a7f64dULL ^ n);
      popts.track_ledger = true;

      rng churn_gen(n);
      const graph::digraph core =
          runner::make_topology("ws", initial, churn_gen);
      graph::digraph churn_start(n);
      for (const topology::channel_pair& ch : topology::channel_pairs(core))
        churn_start.add_bidirectional(ch.a, ch.b);
      if (!run_population_pair("churn", churn_start, popts)) return 1;
    }
  }

  std::cout << "Arena best-response dynamics at n >> 8 (ws hosts, l=1.5; "
            << "exact provider <= 96 nodes, 16-pivot sampled above, "
            << config.threads << " provider lane(s);\n"
            << "each configuration in both provider modes, "
            << "equality enforced)\n";
  t.print(std::cout);
  write_json(config.json_path, records);
  std::cout << records.size() << " record(s) -> " << config.json_path << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr const char* binary = "bench_arena";
  bench_config config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      // Smoke mode (bench_artifacts ctest): small populations, every
      // family and oracle, quick.
      config.sizes = {24, 60};
    } else if (arg == "--json") {
      config.json_path = bench::flag_value(binary, argc, argv, i);
    } else if (arg == "--sizes") {
      config.sizes = bench::parse_size_list(
          binary, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--repeat") {
      config.repeat = bench::parse_count(
          binary, arg, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--threads") {
      config.threads = bench::parse_count(
          binary, arg, bench::flag_value(binary, argc, argv, i));
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "usage: bench_arena [--smoke] [--json PATH] "
                   "[--sizes n1,n2,...] [--repeat R] [--threads T]\n";
      return 0;
    } else {
      bench::usage_error(binary, "unknown argument '" + arg + "'");
    }
  }
  return run(config);
}
