// Coverage for the PR 4 scenario families: the dormant simulation modules
// (sim/rebalancing.h, sim/estimation.h, topology/dynamics.h) wired through
// the runner, and the 10^4-node scale workloads over the sampled
// betweenness backend. Generic contracts (declared columns == emitted
// rows, layout-from-jobs) are pinned for EVERY registered scenario by
// runner_shard_test; this file checks the catalog's shape, the new
// scenarios' determinism / cache behaviour through the executor, and the
// experiment semantics their rows are supposed to exhibit.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "runner/executor.h"
#include "runner/grid.h"
#include "runner/registry.h"
#include "runner/reporter.h"

namespace lcg::runner {
namespace {

const scenario& find_or_die(const std::string& name) {
  register_builtin_scenarios();
  const scenario* sc = registry::global().find(name);
  if (sc == nullptr) throw std::runtime_error("unregistered: " + name);
  return *sc;
}

/// First default grid point of `name`, with optional pinned overrides.
std::vector<job> one_job(
    const std::string& name,
    const std::vector<std::pair<std::string, value>>& pins = {}) {
  const scenario& sc = find_or_die(name);
  param_grid grid(sc.default_sweep);
  for (const auto& [k, v] : pins) grid.set(k, v);
  std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  jobs.resize(1);
  return jobs;
}

double cell_double(const result_row& row, const std::string& column) {
  for (const auto& [name, v] : row.cells()) {
    if (name != column) continue;
    if (const auto* d = std::get_if<double>(&v)) return *d;
    if (const auto* i = std::get_if<long long>(&v))
      return static_cast<double>(*i);
  }
  throw std::runtime_error("no numeric column " + column);
}

std::string cell_string(const result_row& row, const std::string& column) {
  for (const auto& [name, v] : row.cells()) {
    if (name == column) return std::get<std::string>(v);
  }
  throw std::runtime_error("no string column " + column);
}

TEST(ScenarioCatalog, HasAtLeast20ScenariosIncludingTheTrafficFamilies) {
  const std::size_t count = register_builtin_scenarios();
  EXPECT_GE(count, 20u);
  for (const char* name :
       {"sim/rebalance_policy", "sim/estimation_convergence",
        "sim/estimation_downstream", "topo/best_response",
        "scale/sampled_betweenness", "scale/host_properties",
        "arena/best_response", "arena/oracle_duel", "arena/scale_profile",
        "arena/heterogeneous", "arena/churn", "traffic/baseline",
        "traffic/arena_replay"}) {
    const scenario* sc = registry::global().find(name);
    ASSERT_NE(sc, nullptr) << name;
    EXPECT_FALSE(sc->columns.empty()) << name;
    EXPECT_FALSE(sc->version.empty()) << name;
    EXPECT_FALSE(sc->default_sweep.empty()) << name;
  }
}

TEST(ScenarioCatalog, NewScenariosByteIdenticalAcrossJobCounts) {
  // The executor-level determinism acceptance, restricted to the new
  // families (scale/* pinned to small n so the test stays cheap).
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const auto& [name, pins] :
       std::vector<std::pair<std::string,
                             std::vector<std::pair<std::string, value>>>>{
           {"sim/rebalance_policy", {}},
           {"sim/estimation_convergence", {}},
           {"sim/estimation_downstream", {}},
           {"topo/best_response", {}},
           {"scale/sampled_betweenness", {{"n", value(300LL)}}},
           {"scale/host_properties", {{"n", value(400LL)}}}}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    for (const auto& [k, v] : pins) grid.set(k, v);
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 42);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  ASSERT_GE(jobs.size(), 20u);

  run_options serial;
  serial.jobs = 1;
  run_options wide;
  wide.jobs = 8;
  const std::vector<job_result> a = run_jobs(jobs, serial);
  const std::vector<job_result> b = run_jobs(jobs, wide);

  std::ostringstream csv_a, csv_b;
  write_csv(csv_a, a);
  write_csv(csv_b, b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  for (const job_result& r : a) EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ScenarioCatalog, RebalancePolicyCacheRoundTrip) {
  // Cold run computes and stores; warm run serves every job from disk and
  // renders byte-identically — the §4 contract, on a PR 4 scenario.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("sim/rebalance_policy");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 42);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lcg_scen_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  run_options opt;
  opt.cache_dir = dir.string();

  const std::vector<job_result> cold = run_jobs(jobs, opt);
  const std::vector<job_result> warm = run_jobs(jobs, opt);
  EXPECT_EQ(summarise(cold).cache_hits, 0u);
  EXPECT_EQ(summarise(warm).cache_hits, jobs.size());

  std::ostringstream cold_csv, warm_csv;
  write_csv(cold_csv, cold);
  write_csv(warm_csv, warm);
  EXPECT_EQ(cold_csv.str(), warm_csv.str());
  std::filesystem::remove_all(dir);
}

TEST(ScenarioCatalog, RebalancePolicySemantics) {
  // On a 12-cycle the only rebalancing route is the full ring, so
  // max_cycle_len=4 must find zero feasible cycles while 12 may succeed;
  // and wherever no rebalance executes, the two arms are identical.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("sim/rebalance_policy");
  param_grid grid(sc.default_sweep);
  grid.set("topology", value(std::string("cycle")));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  const std::vector<job_result> results = run_jobs(jobs, {});
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    EXPECT_GT(cell_double(row, "triggered"), 0.0);
    const long long len = std::get<long long>(r.params.at("max_cycle_len"));
    if (len < 12) {
      // Shorter than the ring: no feasible cycle, arms must be identical.
      EXPECT_EQ(cell_double(row, "rebalanced"), 0.0);
      EXPECT_EQ(cell_double(row, "success_delta"), 0.0);
      EXPECT_EQ(cell_double(row, "throughput_delta"), 0.0);
    }
  }
}

TEST(ScenarioCatalog, EstimationErrorShrinksWithHorizon) {
  // MLE consistency: the mean p_trans row TV distance at the longest
  // default horizon must beat the shortest one (same alpha, same seed
  // derivation per grid point is fine — the effect is large).
  register_builtin_scenarios();
  const scenario& sc = find_or_die("sim/estimation_convergence");
  param_grid grid(sc.default_sweep);
  grid.set("alpha", value(0.0));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  ASSERT_GE(jobs.size(), 2u);
  const std::vector<job_result> results = run_jobs(jobs, {});
  double first_h = 1e300, last_h = -1e300, err_short = 0.0, err_long = 0.0;
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const double h = std::get<double>(r.params.at("horizon"));
    const double err = cell_double(r.rows.at(0), "mean_row_tv_distance");
    if (h < first_h) {
      first_h = h;
      err_short = err;
    }
    if (h > last_h) {
      last_h = h;
      err_long = err;
    }
  }
  EXPECT_LT(err_long, err_short);
}

TEST(ScenarioCatalog, EstimationDownstreamHubErrorIsSmallAtLongHorizon) {
  register_builtin_scenarios();
  const std::vector<job> jobs =
      one_job("sim/estimation_downstream", {{"horizon", value(800.0)}});
  const std::vector<job_result> results = run_jobs(jobs, {});
  ASSERT_TRUE(results.at(0).ok()) << results[0].error;
  const result_row& row = results[0].rows.at(0);
  EXPECT_GT(cell_double(row, "observations"), 0.0);
  EXPECT_GE(cell_double(row, "hub_rate_true"), 0.0);
  EXPECT_LT(cell_double(row, "hub_rel_err"), 0.25);
}

TEST(ScenarioCatalog, BestResponseConvergenceIsNashCertified) {
  // ne_certified == (converged AND unrestricted): a convergence under
  // restricted deviation_limits (the max_added=1 half of the default
  // sweep) only suggests stability, so it must never claim the Nash
  // certificate. The l=1.5 unrestricted points stay the paper's predicted
  // regime: dynamics from path/cycle/er all reach the star (Theorems 7-9's
  // shape) — pinned as a regression anchor.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("topo/best_response");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 42);
  const std::vector<job_result> results = run_jobs(jobs, {});
  std::size_t converged_to_star = 0;
  std::size_t restricted_runs = 0;
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    const std::string outcome = cell_string(row, "outcome");
    EXPECT_TRUE(outcome == "converged" || outcome == "cycled" ||
                outcome == "round_cap")
        << outcome;
    const bool restricted = cell_double(row, "restricted") == 1.0;
    EXPECT_EQ(cell_double(row, "ne_certified"),
              outcome == "converged" && !restricted ? 1.0 : 0.0);
    if (restricted) ++restricted_runs;
    if (!restricted && outcome == "converged" &&
        cell_string(row, "final_shape") == "star") {
      ++converged_to_star;
    }
  }
  EXPECT_GE(converged_to_star, 3u);
  // The deviation_limits surface is actually exercised by the default
  // sweep (ROADMAP: "dynamics beyond n=8").
  EXPECT_GE(restricted_runs, jobs.size() / 2);
}

TEST(ScenarioCatalog, SampledBetweennessExactWhenPivotsCoverAllSources) {
  // pivots >= n degenerates to the exact sweep (bit-identical), so the
  // reported relative error must be exactly 0; a genuinely sampled run
  // reports a finite non-negative error.
  register_builtin_scenarios();
  const std::vector<job_result> exact = run_jobs(
      one_job("scale/sampled_betweenness",
              {{"n", value(300LL)}, {"pivots", value(300LL)}}),
      {});
  ASSERT_TRUE(exact.at(0).ok()) << exact[0].error;
  EXPECT_EQ(cell_double(exact[0].rows.at(0), "exact_feasible"), 1.0);
  EXPECT_EQ(cell_double(exact[0].rows.at(0), "max_rel_err"), 0.0);

  const std::vector<job_result> sampled = run_jobs(
      one_job("scale/sampled_betweenness",
              {{"n", value(300LL)}, {"pivots", value(32LL)}}),
      {});
  ASSERT_TRUE(sampled.at(0).ok()) << sampled[0].error;
  const double err = cell_double(sampled[0].rows.at(0), "max_rel_err");
  EXPECT_GE(err, 0.0);
  EXPECT_EQ(cell_double(sampled[0].rows.at(0), "sources_swept"), 32.0);
}

TEST(ScenarioCatalog, SampledBetweennessSkipsExactAboveThreshold) {
  const std::vector<job_result> results = run_jobs(
      one_job("scale/sampled_betweenness",
              {{"n", value(500LL)}, {"pivots", value(16LL)},
               {"exact_threshold", value(100LL)}}),
      {});
  ASSERT_TRUE(results.at(0).ok()) << results[0].error;
  const result_row& row = results[0].rows.at(0);
  EXPECT_EQ(cell_double(row, "exact_feasible"), 0.0);
  EXPECT_EQ(cell_double(row, "max_rel_err"), -1.0);
  EXPECT_EQ(cell_double(row, "mean_rel_err"), -1.0);
}

TEST(ScenarioCatalog, ArenaScenariosByteIdenticalAcrossJobCounts) {
  // --jobs 1 vs --jobs 8 byte-identity over the arena/* families. The
  // expensive axes are pinned smaller so the executor-level check stays
  // quick while still covering every family, both sequential orders, and
  // the sampled provider path (scale_profile forces exact_threshold=0).
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const auto& [name, pins] :
       std::vector<std::pair<std::string,
                             std::vector<std::pair<std::string, value>>>>{
           {"arena/best_response", {{"n", value(16LL)}}},
           {"arena/oracle_duel", {{"n", value(6LL)}}},
           {"arena/scale_profile", {{"n", value(60LL)}}}}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    for (const auto& [k, v] : pins) grid.set(k, v);
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 42);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  ASSERT_GE(jobs.size(), 7u);

  run_options serial;
  serial.jobs = 1;
  run_options wide;
  wide.jobs = 8;
  const std::vector<job_result> a = run_jobs(jobs, serial);
  const std::vector<job_result> b = run_jobs(jobs, wide);

  std::ostringstream csv_a, csv_b;
  write_csv(csv_a, a);
  write_csv(csv_b, b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  for (const job_result& r : a) EXPECT_TRUE(r.ok()) << r.error;

  // Provider-mode equivalence over arena/best_response's default grid (n
  // in {16, 40}, mode={full,incremental}): keyed by everything but the mode
  // (seed included — "mode" is seed-neutral), each point renders the same
  // rows under both modes.
  const scenario& best_response = find_or_die("arena/best_response");
  const std::vector<job_result> paired =
      run_jobs(expand_jobs(best_response,
                           param_grid(best_response.default_sweep), 1, 42),
               wide);
  std::map<std::string, std::map<std::string, std::string>> by_point;
  for (const job_result& r : paired) {
    ASSERT_TRUE(r.ok()) << r.error;
    param_map point = r.params;
    const std::string mode = std::get<std::string>(point.at("mode"));
    point.erase("mode");
    std::string rendered;
    for (const result_row& row : r.rows)
      for (const auto& [column, v] : row.cells())
        rendered += column + "=" + render_value(v) + "\n";
    by_point[render_params(point) + " seed=" + std::to_string(r.seed)]
            [mode] = rendered;
  }
  EXPECT_EQ(by_point.size(), 8u);  // topology x n x order
  for (const auto& [point, modes] : by_point) {
    ASSERT_EQ(modes.size(), 2u) << point;
    EXPECT_EQ(modes.at("full"), modes.at("incremental")) << point;
  }
}

TEST(ScenarioCatalog, ArenaCacheColdWarmRoundTrip) {
  // Cold run computes and stores, warm run serves 100% from disk with
  // byte-identical rendering — the §4 contract over the arena families.
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const char* name :
       {"arena/best_response", "arena/oracle_duel", "arena/scale_profile"}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    grid.set("n", value(12LL));
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 7);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lcg_arena_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  run_options opt;
  opt.cache_dir = dir.string();

  const std::vector<job_result> cold = run_jobs(jobs, opt);
  const std::vector<job_result> warm = run_jobs(jobs, opt);
  EXPECT_EQ(summarise(cold).cache_hits, 0u);
  EXPECT_EQ(summarise(warm).cache_hits, jobs.size());

  std::ostringstream cold_csv, warm_csv;
  write_csv(cold_csv, cold);
  write_csv(warm_csv, warm);
  EXPECT_EQ(cold_csv.str(), warm_csv.str());
  std::filesystem::remove_all(dir);
}

TEST(ScenarioCatalog, ArenaScaleProfileConvergesAtPopulationScale) {
  // The ISSUE's acceptance pin: an n >= 100 arena run in the DEFAULT sweep
  // converges (the scale/population regime actually reaches oracle-stable
  // states, it doesn't just churn to the round cap), and consolidates the
  // start topology toward a hub-dominated shape.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("arena/scale_profile");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 42);
  ASSERT_FALSE(jobs.empty());
  ASSERT_GE(std::get<long long>(jobs.front().params.at("n")), 100LL);
  const std::vector<job_result> results = run_jobs(jobs, {});
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    EXPECT_EQ(cell_string(row, "outcome"), "converged");
    EXPECT_GT(cell_double(row, "moves"), 0.0);
    // Consolidation: the terminal hub degree dwarfs the ws start's degree 2.
    EXPECT_GE(cell_double(row, "max_degree"), 32.0);
    EXPECT_GT(cell_double(row, "evaluations"), 0.0);
  }
}

TEST(ScenarioCatalog, ArenaOracleDuelKeepsBruteRowsAtSmallN) {
  register_builtin_scenarios();
  const std::vector<job_result> small =
      run_jobs(one_job("arena/oracle_duel", {{"n", value(6LL)}}), {});
  ASSERT_TRUE(small.at(0).ok()) << small[0].error;
  ASSERT_EQ(small[0].rows.size(), 3u);  // greedy, local, brute
  EXPECT_EQ(cell_string(small[0].rows.at(2), "oracle"), "brute");
  // The exhaustive reference bypasses the provider entirely.
  EXPECT_EQ(cell_double(small[0].rows.at(2), "evaluations"), 0.0);

  const std::vector<job_result> large =
      run_jobs(one_job("arena/oracle_duel", {{"n", value(20LL)}}), {});
  ASSERT_TRUE(large.at(0).ok()) << large[0].error;
  EXPECT_EQ(large[0].rows.size(), 2u);  // brute is unaffordable
}

TEST(ScenarioCatalog, PopulationScenariosByteIdenticalAcrossJobCounts) {
  // ISSUE 9: the heterogeneous and churn families render byte-identically
  // with --jobs 1 and --jobs 8 (n pinned smaller than the default so the
  // check stays quick while covering every axis combination).
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const auto& [name, pins] :
       std::vector<std::pair<std::string,
                             std::vector<std::pair<std::string, value>>>>{
           {"arena/heterogeneous", {{"n", value(24LL)}}},
           {"arena/churn", {{"n", value(18LL)}}}}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    for (const auto& [k, v] : pins) grid.set(k, v);
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 42);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  ASSERT_GE(jobs.size(), 12u);

  run_options serial;
  serial.jobs = 1;
  run_options wide;
  wide.jobs = 8;
  const std::vector<job_result> a = run_jobs(jobs, serial);
  const std::vector<job_result> b = run_jobs(jobs, wide);

  std::ostringstream csv_a, csv_b;
  write_csv(csv_a, a);
  write_csv(csv_b, b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  for (const job_result& r : a) EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ScenarioCatalog, PopulationCacheColdWarmRoundTrip) {
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const char* name : {"arena/heterogeneous", "arena/churn"}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    grid.set("n", value(16LL));
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 7);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lcg_population_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  run_options opt;
  opt.cache_dir = dir.string();

  const std::vector<job_result> cold = run_jobs(jobs, opt);
  const std::vector<job_result> warm = run_jobs(jobs, opt);
  EXPECT_EQ(summarise(cold).cache_hits, 0u);
  EXPECT_EQ(summarise(warm).cache_hits, jobs.size());

  std::ostringstream cold_csv, warm_csv;
  write_csv(cold_csv, cold);
  write_csv(warm_csv, warm);
  EXPECT_EQ(cold_csv.str(), warm_csv.str());
  std::filesystem::remove_all(dir);
}

TEST(ScenarioCatalog, HeterogeneousSeedNeutralDistAxisAndParamSpread) {
  // The dist axis is declared seed-neutral, so the point and lognormal
  // rows of one grid point share a seed; the point rows replay the
  // homogeneous population (l_min == l_max) while the lognormal rows
  // actually spread the parameters.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("arena/heterogeneous");
  param_grid grid(sc.default_sweep);
  grid.set("n", value(24LL));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  ASSERT_EQ(jobs.size(), 4u);  // dist x mode
  for (const job& j : jobs) EXPECT_EQ(j.seed, jobs.front().seed);
  const std::vector<job_result> results = run_jobs(jobs, {});
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    const std::string dist = std::get<std::string>(r.params.at("dist"));
    const double l_min = cell_double(row, "l_min");
    const double l_max = cell_double(row, "l_max");
    if (dist == "point") {
      EXPECT_EQ(l_min, l_max);
    } else {
      EXPECT_LT(l_min, l_max);
    }
    EXPECT_GT(cell_double(row, "moves"), 0.0);
  }
}

TEST(ScenarioCatalog, ChurnSweepConservesDepositsExactly) {
  // Acceptance: every default-sweep churn row balances its ledger to a
  // conservation gap of EXACTLY zero, and the mixed rows actually execute
  // joins and leaves (the none rows stay a static population).
  register_builtin_scenarios();
  const scenario& sc = find_or_die("arena/churn");
  param_grid grid(sc.default_sweep);
  grid.set("n", value(18LL));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  const std::vector<job_result> results = run_jobs(jobs, {});
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    EXPECT_EQ(cell_double(row, "conservation_gap"), 0.0);
    EXPECT_GT(cell_double(row, "deposited"), 0.0);
    const std::string churn = std::get<std::string>(r.params.at("churn"));
    if (churn == "mixed") {
      EXPECT_GT(cell_double(row, "joins") + cell_double(row, "leaves"), 0.0);
      EXPECT_GT(cell_double(row, "channels_closed"), 0.0);
    } else {
      EXPECT_EQ(cell_double(row, "joins"), 0.0);
      EXPECT_EQ(cell_double(row, "leaves"), 0.0);
    }
  }
}

TEST(ScenarioCatalog, TrafficScenariosByteIdenticalAcrossJobCounts) {
  // Satellite of ISSUE 6: the traffic engine draws no randomness of its
  // own (the workload stream is the only stochastic input), so --jobs 1
  // and --jobs 8 must render byte-identically over the whole family —
  // the full 6-point baseline sweep plus an arena replay pinned to a
  // test-sized population.
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const auto& [name, pins] :
       std::vector<std::pair<std::string,
                             std::vector<std::pair<std::string, value>>>>{
           {"traffic/baseline", {}},
           {"traffic/arena_replay",
            {{"n", value(40LL)}, {"horizon", value(60.0)}}}}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    for (const auto& [k, v] : pins) grid.set(k, v);
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 42);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  ASSERT_GE(jobs.size(), 7u);

  run_options serial;
  serial.jobs = 1;
  run_options wide;
  wide.jobs = 8;
  const std::vector<job_result> a = run_jobs(jobs, serial);
  const std::vector<job_result> b = run_jobs(jobs, wide);

  std::ostringstream csv_a, csv_b;
  write_csv(csv_a, a);
  write_csv(csv_b, b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  for (const job_result& r : a) EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ScenarioCatalog, TrafficCacheColdWarmRoundTrip) {
  register_builtin_scenarios();
  std::vector<job> jobs;
  {
    const scenario& sc = find_or_die("traffic/baseline");
    param_grid grid(sc.default_sweep);
    grid.set("horizon", value(40.0));
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 7);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  {
    const scenario& sc = find_or_die("traffic/arena_replay");
    param_grid grid(sc.default_sweep);
    grid.set("n", value(40LL));
    grid.set("horizon", value(40.0));
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 7);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lcg_traffic_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  run_options opt;
  opt.cache_dir = dir.string();

  const std::vector<job_result> cold = run_jobs(jobs, opt);
  const std::vector<job_result> warm = run_jobs(jobs, opt);
  EXPECT_EQ(summarise(cold).cache_hits, 0u);
  EXPECT_EQ(summarise(warm).cache_hits, jobs.size());

  std::ostringstream cold_csv, warm_csv;
  write_csv(cold_csv, cold);
  write_csv(warm_csv, warm);
  EXPECT_EQ(cold_csv.str(), warm_csv.str());
  std::filesystem::remove_all(dir);
}

TEST(ScenarioCatalog, TrafficShardConcatReproducesUnshardedSweep) {
  // Concatenating the 3 shard CSVs of the baseline sweep in shard order
  // must reproduce the unsharded render byte-for-byte (rows against the
  // sweep-wide layout, header only on the shard whose slice starts at 0) —
  // the lcg_run --shard contract, exercised over a multi-row-per-job family
  // neighbour too (arena_replay emits `top` rows per job).
  register_builtin_scenarios();
  std::vector<job> jobs;
  for (const auto& [name, pins] :
       std::vector<std::pair<std::string,
                             std::vector<std::pair<std::string, value>>>>{
           {"traffic/baseline", {{"horizon", value(40.0)}}},
           {"traffic/arena_replay",
            {{"n", value(40LL)}, {"horizon", value(40.0)}}}}) {
    const scenario& sc = find_or_die(name);
    param_grid grid(sc.default_sweep);
    for (const auto& [k, v] : pins) grid.set(k, v);
    std::vector<job> expanded = expand_jobs(sc, grid, 1, 42);
    jobs.insert(jobs.end(), expanded.begin(), expanded.end());
  }
  ASSERT_GE(jobs.size(), 7u);

  const auto layout = merged_columns_for_jobs(jobs);
  ASSERT_TRUE(layout.has_value());

  std::ostringstream full;
  write_csv(full, run_jobs(jobs, {}), *layout, /*with_header=*/true);

  std::string concatenated;
  const std::uint32_t shards = 3;
  for (std::uint32_t i = 0; i < shards; ++i) {
    const shard_spec spec{i, shards};
    const std::vector<job> slice = take_shard(jobs, spec);
    const std::vector<job_result> results = run_jobs(slice, {});
    std::ostringstream os;
    const bool with_header = shard_range(jobs.size(), spec).first == 0;
    write_csv(os, results, *layout, with_header);
    concatenated += os.str();
  }
  EXPECT_EQ(concatenated, full.str());
}

TEST(ScenarioCatalog, TrafficBaselineStalenessShiftsFailureMode) {
  // The experiment the sweep exists for: with retry=none, a 5-unit-stale
  // gossip view routes confidently into depleted edges — failures migrate
  // from up-front no_route to in-flight lock failures vs the fresh view.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("traffic/baseline");
  param_grid grid(sc.default_sweep);
  grid.set("retry", value(std::string("none")));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  ASSERT_EQ(jobs.size(), 2u);  // gossip_refresh in {0.0, 5.0}
  const std::vector<job_result> results = run_jobs(jobs, {});
  const result_row* fresh = nullptr;
  const result_row* stale = nullptr;
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const double refresh = std::get<double>(r.params.at("gossip_refresh"));
    (refresh == 0.0 ? fresh : stale) = &r.rows.at(0);
  }
  ASSERT_NE(fresh, nullptr);
  ASSERT_NE(stale, nullptr);
  EXPECT_GT(cell_double(*stale, "mid_flight"),
            cell_double(*fresh, "mid_flight"));
  EXPECT_LT(cell_double(*stale, "no_route"), cell_double(*fresh, "no_route"));
  EXPECT_GT(cell_double(*fresh, "attempted"), 1000.0);
}

TEST(ScenarioCatalog, TrafficArenaReplayCorrelatesRealisedWithAnalytic) {
  // ISSUE 6 acceptance: the default-sweep replay (n=120 arena terminal
  // topology) reports realised vs analytic E_rev per top node and the two
  // series correlate strongly, with realised shortfall explained by
  // depletion/staleness (rel_err finite, success < 1).
  register_builtin_scenarios();
  const scenario& sc = find_or_die("traffic/arena_replay");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 42);
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_GE(std::get<long long>(jobs.front().params.at("n")), 120LL);
  const std::vector<job_result> results = run_jobs(jobs, {});
  ASSERT_TRUE(results.at(0).ok()) << results[0].error;
  ASSERT_EQ(results[0].rows.size(), 8u);  // top 8 analytic-revenue nodes
  for (const result_row& row : results[0].rows) {
    EXPECT_GT(cell_double(row, "analytic_e_rev"), 0.0);
    EXPECT_GE(cell_double(row, "realised_e_rev"), 0.0);
    EXPECT_GT(cell_double(row, "revenue_corr"), 0.9);
    EXPECT_GT(cell_double(row, "attempted"), 10000.0);
  }
}

TEST(ScenarioCatalog, HostPropertiesCoversLinearEdgeFamilies) {
  // The scale families must stay linear-edge-count (the reason "ws" exists
  // in make_topology); spot-check structure at a test-sized n.
  register_builtin_scenarios();
  const scenario& sc = find_or_die("scale/host_properties");
  param_grid grid(sc.default_sweep);
  grid.set("n", value(400LL));
  const std::vector<job> jobs = expand_jobs(sc, grid, 1, 42);
  const std::vector<job_result> results = run_jobs(jobs, {});
  for (const job_result& r : results) {
    ASSERT_TRUE(r.ok()) << r.error;
    const result_row& row = r.rows.at(0);
    EXPECT_EQ(cell_double(row, "nodes"), 400.0);
    EXPECT_LT(cell_double(row, "channels"), 3.0 * 400.0);
    EXPECT_GT(cell_double(row, "hub_ecc"), 0.0);  // connected hosts
    const double share = cell_double(row, "top_bt_share");
    EXPECT_GE(share, 0.0);
    EXPECT_LE(share, 1.0);
  }
}

TEST(ScenarioCatalog, SnapshotHostLoadsTheCommittedFixture) {
  // ISSUE 8: the committed data/snapshots/ba400 host (BA, n=400, attach 2,
  // written by graph/io's CSV snapshot writer) parses in CI and drives the
  // frozen read path end-to-end. Structure columns are exact properties of
  // the committed bytes, so they are pinned outright.
  register_builtin_scenarios();
  const std::vector<job_result> results =
      run_jobs(one_job("scale/snapshot_host"), {});
  ASSERT_TRUE(results.at(0).ok()) << results[0].error;
  const result_row& row = results[0].rows.at(0);
  EXPECT_EQ(cell_double(row, "nodes"), 400.0);
  EXPECT_EQ(cell_double(row, "channels"), 797.0);
  EXPECT_EQ(cell_double(row, "edges"), 1594.0);
  EXPECT_EQ(cell_double(row, "reachable_share"), 1.0);
  EXPECT_GE(cell_double(row, "hub_ecc"), 2.0);
  EXPECT_GT(cell_double(row, "top_bt_share"), 0.0);
}

TEST(ScenarioCatalog, SnapshotHostByteIdenticalAcrossJobCounts) {
  // Same contract as every other family: rendering the default sweep with
  // --jobs 1 and --jobs 8 must be byte-identical (the snapshot is a fixed
  // committed input and the pivot stream derives from the job seed).
  register_builtin_scenarios();
  const scenario& sc = find_or_die("scale/snapshot_host");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 42);
  ASSERT_GE(jobs.size(), 1u);

  run_options serial;
  serial.jobs = 1;
  run_options wide;
  wide.jobs = 8;
  const std::vector<job_result> a = run_jobs(jobs, serial);
  const std::vector<job_result> b = run_jobs(jobs, wide);

  std::ostringstream csv_a, csv_b;
  write_csv(csv_a, a);
  write_csv(csv_b, b);
  EXPECT_EQ(csv_a.str(), csv_b.str());
  for (const job_result& r : a) EXPECT_TRUE(r.ok()) << r.error;
}

TEST(ScenarioCatalog, SnapshotHostCacheColdWarmRoundTrip) {
  register_builtin_scenarios();
  const scenario& sc = find_or_die("scale/snapshot_host");
  const std::vector<job> jobs =
      expand_jobs(sc, param_grid(sc.default_sweep), 1, 7);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("lcg_snapshot_cache_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  run_options opt;
  opt.cache_dir = dir.string();

  const std::vector<job_result> cold = run_jobs(jobs, opt);
  const std::vector<job_result> warm = run_jobs(jobs, opt);
  EXPECT_EQ(summarise(cold).cache_hits, 0u);
  EXPECT_EQ(summarise(warm).cache_hits, jobs.size());

  std::ostringstream cold_csv, warm_csv;
  write_csv(cold_csv, cold);
  write_csv(warm_csv, warm);
  EXPECT_EQ(cold_csv.str(), warm_csv.str());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace lcg::runner
