// The built-in scenario catalog: every reproduction experiment, registered
// once and invocable by name or glob from lcg_run, tests, or other drivers.
//
// Each scenario's run() is a pure function of (params, seed) — the
// determinism contract of runner/scenario.h — and mirrors one of the
// standalone bench_*/example binaries (which remain as thin wrappers).

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "arena/engine.h"
#include "arena/export.h"
#include "arena/population.h"
#include "core/brute_force.h"
#include "core/continuous.h"
#include "core/discrete_search.h"
#include "core/greedy.h"
#include "dist/param_sampler.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "graph/properties.h"
#include "pcn/network.h"
#include "pcn/rates.h"
#include "runner/fixtures.h"
#include "runner/registry.h"
#include "sim/engine.h"
#include "sim/estimation.h"
#include "sim/rebalancing.h"
#include "topology/dynamics.h"
#include "topology/game.h"
#include "topology/nash.h"
#include "topology/path_circle.h"
#include "topology/star.h"
#include "topology/welfare.h"
#include "traffic/engine.h"
#include "util/format.h"

namespace lcg::runner {

namespace {

std::string peer_list(const core::strategy& s) {
  std::vector<graph::node_id> peers;
  for (const core::action& a : s) peers.push_back(a.peer);
  std::sort(peers.begin(), peers.end());
  std::string out;
  for (const graph::node_id p : peers) {
    if (!out.empty()) out += '+';
    out += std::to_string(p);
  }
  return out.empty() ? "(none)" : out;
}

/// Betweenness backend selection from the common grid parameters:
/// `backend` ("serial" | "parallel" | "sampled"), `pivots` (sampled pivot
/// count, 0 = exact). The thread budget comes from the executor
/// (scenario_context::threads()) and the pivot stream is a fixed
/// splitmix64 derivation of the job seed, so results stay a pure function
/// of (params, seed) regardless of --jobs / --threads.
graph::betweenness_options betweenness_options_from(
    const scenario_context& ctx) {
  graph::betweenness_options options;
  options.backend = graph::betweenness_backend_from_name(
      ctx.get_string("backend", "serial"));
  options.threads = ctx.threads();
  options.sample_pivots =
      static_cast<std::size_t>(ctx.get_int("pivots", 0));
  options.rng_seed = ctx.seed() ^ 0x5bf0f5e4aa63f5ecULL;  // distinct stream
  return options;
}

core::model_params params_from(const scenario_context& ctx) {
  core::model_params p = default_model_params();
  p.fee_avg = ctx.get_double("fee_avg", p.fee_avg);
  p.fee_avg_tx = ctx.get_double("fee_avg_tx", p.fee_avg_tx);
  p.onchain_cost = ctx.get_double("onchain_cost", p.onchain_cost);
  p.opportunity_rate = ctx.get_double("opportunity_rate", p.opportunity_rate);
  return p;
}

// --- join/greedy: Algorithm 1 on a random host (E3/E4 family) -------------

std::vector<result_row> run_join_greedy(const scenario_context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 30));
  const double zipf_s = ctx.get_double("zipf_s", 1.0);
  const double budget = ctx.get_double("budget", 10.0);
  const double lock = ctx.get_double("lock", 1.5);
  join_instance inst =
      make_join_instance(ctx.seed(), n, params_from(ctx), zipf_s);
  const std::size_t m =
      core::max_channels(inst.model->params(), budget, lock);
  const core::greedy_result g =
      core::greedy_fixed_lock(*inst.objective, inst.candidates, lock, m);
  result_row row;
  row.set("peers", peer_list(g.chosen))
      .set("channels", static_cast<long long>(g.chosen.size()))
      .set("estimated_u", g.objective_value)
      .set("exact_u_simplified", inst.model->simplified_utility(g.chosen))
      .set("exact_u", inst.model->utility(g.chosen))
      .set("e_rev", inst.model->expected_revenue(g.chosen))
      .set("e_fees", inst.model->expected_fees(g.chosen))
      .set("evaluations", static_cast<long long>(g.evaluations));
  return {row};
}

// --- join/discrete: Algorithm 2 (discretised funds) -----------------------

std::vector<result_row> run_join_discrete(const scenario_context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 12));
  const double budget = ctx.get_double("budget", 8.0);
  join_instance inst = make_join_instance(ctx.seed(), n, params_from(ctx),
                                          ctx.get_double("zipf_s", 1.0));
  core::discrete_search_options options;
  options.unit = ctx.get_double("unit", 2.0);
  const core::discrete_search_result r = core::discrete_exhaustive_search(
      *inst.objective, inst.candidates, budget, options);
  result_row row;
  row.set("peers", peer_list(r.chosen))
      .set("channels", static_cast<long long>(r.chosen.size()))
      .set("estimated_u", r.objective_value)
      .set("exact_u", inst.model->utility(r.chosen))
      .set("divisions", static_cast<long long>(r.divisions_total))
      .set("feasible_divisions",
           static_cast<long long>(r.divisions_feasible))
      .set("evaluations", static_cast<long long>(r.evaluations))
      .set("truncated", static_cast<long long>(r.truncated ? 1 : 0));
  return {row};
}

// --- join/continuous: III-D local search ----------------------------------

std::vector<result_row> run_join_continuous(const scenario_context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 16));
  const double budget = ctx.get_double("budget", 10.0);
  join_instance inst = make_join_instance(ctx.seed(), n, params_from(ctx),
                                          ctx.get_double("zipf_s", 1.0));
  core::local_search_options options;
  options.seed = ctx.make_rng()();
  const core::local_search_result r = core::continuous_local_search(
      *inst.objective, inst.candidates, budget, options);
  double total_lock = 0.0;
  for (const core::action& a : r.chosen) total_lock += a.lock;
  result_row row;
  row.set("peers", peer_list(r.chosen))
      .set("channels", static_cast<long long>(r.chosen.size()))
      .set("total_lock", total_lock)
      .set("objective_u_benefit", r.objective_value)
      .set("exact_u", inst.model->utility(r.chosen))
      .set("evaluations", static_cast<long long>(r.evaluations))
      .set("rounds", static_cast<long long>(r.rounds));
  return {row};
}

// --- join/estimators: the fixed-lambda ablation (E9) ----------------------

std::vector<result_row> run_join_estimators(const scenario_context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 40));
  const double lock = ctx.get_double("lock", 1.0);
  const auto m = static_cast<std::size_t>(ctx.get_int("channels", 4));
  join_instance inst =
      make_join_instance(ctx.seed(), n, params_from(ctx));
  const graph::betweenness_options backend = betweenness_options_from(ctx);

  std::vector<result_row> rows;
  const auto evaluate = [&](const std::string& name,
                            core::rate_estimator& est) {
    const core::estimated_objective obj(*inst.model, est);
    const core::greedy_result g =
        core::greedy_fixed_lock(obj, inst.candidates, lock, m);
    result_row row;
    row.set("estimator", name)
        .set("peers", peer_list(g.chosen))
        .set("estimated_u", g.objective_value)
        .set("exact_u_simplified", inst.model->simplified_utility(g.chosen))
        .set("exact_u", inst.model->utility(g.chosen))
        .set("e_rev", inst.model->expected_revenue(g.chosen))
        .set("estimations", static_cast<long long>(est.calls()));
    rows.push_back(std::move(row));
  };

  core::full_connection_rate_estimator full(*inst.model, inst.candidates,
                                            nullptr, backend);
  evaluate("full_connection", full);
  core::anchor_pair_rate_estimator anchor(*inst.model, nullptr, backend);
  evaluate("anchor_pair", anchor);
  core::degree_share_rate_estimator degree(*inst.model);
  evaluate("degree_share", degree);
  return rows;
}

// --- game/star: Theorem 8 closed form vs numeric check (E11) --------------

std::vector<result_row> run_game_star(const scenario_context& ctx) {
  const auto leaves = static_cast<std::size_t>(ctx.get_int("leaves", 5));
  topology::game_params p;
  p.a = ctx.get_double("a", 1.0);
  p.b = ctx.get_double("b", 1.0);
  p.l = ctx.get_double("l", 0.3);
  p.s = ctx.get_double("s", 1.0);
  const bool closed = topology::star_is_ne_closed_form(leaves, p);
  const graph::digraph g = graph::star_graph(leaves);
  const topology::nash_check_result numeric =
      topology::check_nash_equilibrium(g, p);
  // The paper's conditions are sufficient: closed-form NE must imply
  // numeric NE; the reverse gap is the conditions' conservatism.
  const char* verdict = closed == numeric.is_equilibrium ? "ok"
                        : closed ? "VIOLATION"
                                 : "conservative";
  result_row row;
  row.set("closed_form_ne", static_cast<long long>(closed ? 1 : 0))
      .set("numeric_ne",
           static_cast<long long>(numeric.is_equilibrium ? 1 : 0))
      .set("verdict", std::string(verdict))
      .set("deviations_checked",
           static_cast<long long>(numeric.deviations_checked))
      .set("thm9_sufficient",
           static_cast<long long>(
               topology::star_ne_sufficient_thm9(leaves, p) ? 1 : 0));
  return {row};
}

// --- game/path_circle: Theorems 10 and 11 ---------------------------------

std::vector<result_row> run_game_path_circle(const scenario_context& ctx) {
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 8));
  topology::game_params p;
  p.a = ctx.get_double("a", 1.0);
  p.b = ctx.get_double("b", 1.0);
  p.l = ctx.get_double("l", 0.5);
  p.s = ctx.get_double("s", 1.0);

  const auto dev = topology::path_endpoint_deviation(n, p);
  const topology::circle_chord_report chord =
      topology::circle_chord_gain(n, p);
  result_row row;
  row.set("path_deviation", dev ? dev->describe() : std::string("(none)"))
      .set("path_gain", dev ? dev->gain() : 0.0)
      .set("path_unstable", static_cast<long long>(dev ? 1 : 0))
      .set("circle_chord_gain", chord.gain)
      .set("circle_unstable",
           static_cast<long long>(chord.gain > 1e-9 ? 1 : 0));
  return {row};
}

// --- net/utilities: Section IV utilities across whole topologies ----------

std::vector<result_row> run_net_utilities(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "star");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 8));
  topology::game_params p;
  p.a = ctx.get_double("a", 1.0);
  p.b = ctx.get_double("b", 1.0);
  p.l = ctx.get_double("l", 0.5);
  p.s = ctx.get_double("s", 1.0);
  rng gen = ctx.make_rng();
  const graph::digraph g = make_topology(topo_name, n, gen);
  const std::vector<topology::utility_breakdown> us =
      topology::all_utilities(g, p);

  double welfare = 0.0, best = -1e300, worst = 1e300;
  for (const topology::utility_breakdown& u : us) {
    welfare += u.total;
    best = std::max(best, u.total);
    worst = std::min(worst, u.total);
  }
  result_row row;
  row.set("nodes", static_cast<long long>(g.node_count()))
      .set("channels", static_cast<long long>(g.edge_count() / 2))
      .set("welfare", welfare)
      .set("best_utility", best)
      .set("worst_utility", worst);
  return {row};
}

// --- sim/vs_analytic: E15 simulator validation ----------------------------

std::vector<result_row> run_sim_vs_analytic(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "star");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 8));
  const double balance = ctx.get_double("balance", 200.0);
  const double horizon = ctx.get_double("horizon", 200.0);
  const double fee_value = ctx.get_double("fee", 0.5);
  const double zipf_s = ctx.get_double("zipf_s", 1.0);

  rng gen = ctx.make_rng();
  const graph::digraph topo = make_topology(topo_name, n, gen);
  const graph::node_id hub = graph::max_degree_node(topo);
  const dist::zipf_transaction_distribution zipf(zipf_s);
  dist::demand_model demand(topo, zipf,
                            static_cast<double>(topo.node_count()));
  const double analytic =
      pcn::node_through_rate(topo, demand, hub) * fee_value;

  const std::uint64_t workload_seed = gen();
  const auto simulate = [&](double reset_period) {
    pcn::network net(topo.node_count());
    for (graph::edge_id e = 0; e < topo.edge_slots(); e += 2) {
      const graph::edge& ed = topo.edge_at(e);
      net.open_channel(ed.src, ed.dst, balance, balance);
    }
    const dist::fixed_tx_size sizes(1.0);
    const dist::constant_fee fee(fee_value);
    sim::workload_generator wl(demand, sizes, workload_seed);
    sim::sim_config config;
    config.horizon = horizon;
    config.fee = &fee;
    config.balance_reset_period = reset_period;
    return sim::run_simulation(net, wl, config);
  };

  const sim::sim_metrics fresh = simulate(5.0);
  const sim::sim_metrics depleted = simulate(0.0);
  const double measured = fresh.revenue_rate(hub);
  result_row row;
  row.set("hub", static_cast<long long>(hub))
      .set("analytic_e_rev", analytic)
      .set("measured_e_rev", measured)
      .set("rel_err", analytic > 0.0
                          ? std::abs(measured - analytic) / analytic
                          : 0.0)
      .set("success_reset", fresh.success_rate())
      .set("success_deplete", depleted.success_rate())
      .set("attempted", static_cast<long long>(fresh.attempted));
  return {row};
}

// --- sim/rates: Eq. 2 edge rates across topologies ------------------------

std::vector<result_row> run_sim_rates(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "cycle");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 10));
  const double zipf_s = ctx.get_double("zipf_s", 1.0);
  const double tx_size = ctx.get_double("tx_size", 0.0);
  rng gen = ctx.make_rng();
  const graph::digraph g = make_topology(topo_name, n, gen);
  const dist::zipf_transaction_distribution zipf(zipf_s);
  const dist::demand_model demand(g, zipf,
                                  static_cast<double>(g.node_count()));
  const pcn::rate_result rates = pcn::edge_transaction_rates(
      g, demand, tx_size, betweenness_options_from(ctx));
  double total = 0.0, max_rate = 0.0;
  for (const double r : rates.edge_rate) {
    total += r;
    max_rate = std::max(max_rate, r);
  }
  result_row row;
  row.set("edges", static_cast<long long>(g.edge_count()))
      .set("total_edge_rate", total)
      .set("max_edge_rate", max_rate)
      .set("unroutable_rate", rates.unroutable_rate);
  return {row};
}

// --- sim/rebalance_policy: circular self-payment rebalancing ([30]) -------

/// One simulation under `policy` (null = no rebalancing), on a fresh copy of
/// the network so the with/without arms replay the identical workload
/// against the identical initial deposits.
sim::sim_metrics simulate_with_policy(
    const graph::digraph& topo, const dist::demand_model& demand,
    const std::vector<std::pair<double, double>>& deposits, double horizon,
    double rebalance_period, std::uint64_t workload_seed,
    const sim::rebalancing_policy* policy) {
  pcn::network net(topo.node_count());
  std::size_t channel = 0;
  for (graph::edge_id e = 0; e < topo.edge_slots(); e += 2) {
    const graph::edge& ed = topo.edge_at(e);
    net.open_channel(ed.src, ed.dst, deposits[channel].first,
                     deposits[channel].second);
    ++channel;
  }
  const dist::fixed_tx_size sizes(1.0);
  sim::workload_generator wl(demand, sizes, workload_seed);
  sim::sim_config config;
  config.horizon = horizon;
  config.rebalancing = policy;
  config.rebalance_period = rebalance_period;
  return sim::run_simulation(net, wl, config);
}

std::vector<result_row> run_rebalance_policy(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "cycle");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 12));
  const double balance = ctx.get_double("balance", 12.0);
  const double horizon = ctx.get_double("horizon", 120.0);
  const double rebalance_period = ctx.get_double("rebalance_period", 5.0);
  sim::rebalancing_policy policy;
  policy.low_watermark = ctx.get_double("low_watermark", 0.25);
  policy.target = ctx.get_double("target", 0.5);
  policy.max_cycle_len =
      static_cast<std::size_t>(ctx.get_int("max_cycle_len", 8));
  policy.donor_aware = ctx.get_int("donor_aware", 0) != 0;

  rng gen = ctx.make_rng();
  const graph::digraph topo = make_topology(topo_name, n, gen);
  const dist::zipf_transaction_distribution zipf(
      ctx.get_double("zipf_s", 1.0));
  const dist::demand_model demand(topo, zipf,
                                  static_cast<double>(topo.node_count()));
  // Heterogeneous deposits around `balance`, shared by both arms. Uniform
  // 50/50 deposits would make the experiment degenerate: every watermark
  // rebalance then re-depletes its donor channels to exactly the mirror
  // image of the original deficit, which triggers an exactly-inverse
  // rebalance later in the same sweep — each sweep is a net no-op and the
  // two arms never diverge (see sim/rebalancing.h).
  std::vector<std::pair<double, double>> deposits;
  deposits.reserve(topo.edge_slots() / 2);
  for (graph::edge_id e = 0; e < topo.edge_slots(); e += 2) {
    // Sequenced draws: argument evaluation order is unspecified, and a
    // compiler-dependent a/b swap would break cross-machine byte-identity.
    const double deposit_a = balance * (0.4 + 1.2 * gen.uniform01());
    const double deposit_b = balance * (0.4 + 1.2 * gen.uniform01());
    deposits.emplace_back(deposit_a, deposit_b);
  }
  const std::uint64_t workload_seed = gen();

  const sim::sim_metrics none =
      simulate_with_policy(topo, demand, deposits, horizon, rebalance_period,
                           workload_seed, nullptr);
  const sim::sim_metrics rebal =
      simulate_with_policy(topo, demand, deposits, horizon, rebalance_period,
                           workload_seed, &policy);

  result_row row;
  row.set("attempted", static_cast<long long>(none.attempted))
      .set("success_none", none.success_rate())
      .set("success_rebal", rebal.success_rate())
      .set("success_delta", rebal.success_rate() - none.success_rate())
      .set("delivered_none", none.volume_delivered)
      .set("delivered_rebal", rebal.volume_delivered)
      .set("throughput_delta",
           horizon > 0.0
               ? (rebal.volume_delivered - none.volume_delivered) / horizon
               : 0.0)
      .set("triggered", static_cast<long long>(rebal.rebalances_triggered))
      .set("rebalanced", static_cast<long long>(rebal.rebalances_succeeded))
      .set("cycle_success_rate",
           rebal.rebalances_triggered
               ? static_cast<double>(rebal.rebalances_succeeded) /
                     static_cast<double>(rebal.rebalances_triggered)
               : 0.0)
      .set("rebalance_volume", rebal.rebalance_volume);
  return {row};
}

// --- sim/estimation_convergence: N_u / p_trans recovery vs horizon --------

/// The shared setup of the estimation scenarios: a host, the ground-truth
/// Zipf demand on it, and an estimate fitted to a simulated transaction log
/// of the given horizon.
struct estimation_instance {
  graph::digraph topo;
  std::unique_ptr<dist::demand_model> truth;
  sim::demand_estimate estimate;
};

estimation_instance make_estimation_instance(const scenario_context& ctx) {
  estimation_instance inst;
  const std::string topo_name = ctx.get_string("topology", "ba");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 16));
  const double horizon = ctx.get_double("horizon", 100.0);
  const double alpha = ctx.get_double("alpha", 0.0);
  rng gen = ctx.make_rng();
  inst.topo = make_topology(topo_name, n, gen);
  // demand_model materialises the rows; the distribution can stay local.
  const dist::zipf_transaction_distribution zipf(
      ctx.get_double("zipf_s", 1.0));
  inst.truth = std::make_unique<dist::demand_model>(
      inst.topo, zipf, static_cast<double>(inst.topo.node_count()));
  const dist::fixed_tx_size sizes(1.0);
  sim::workload_generator wl(*inst.truth, sizes, gen());
  const std::vector<sim::tx_event> log = wl.generate(horizon);
  inst.estimate =
      alpha > 0.0 ? sim::estimate_demand_smoothed(
                        log, inst.topo.node_count(), horizon, alpha)
                  : sim::estimate_demand(log, inst.topo.node_count(), horizon);
  return inst;
}

std::vector<result_row> run_estimation_convergence(
    const scenario_context& ctx) {
  const estimation_instance inst = make_estimation_instance(ctx);
  const sim::estimation_error err =
      sim::compare_to_truth(inst.estimate, *inst.truth);
  result_row row;
  row.set("observations", static_cast<long long>(inst.estimate.observations))
      .set("total_rate_hat", inst.estimate.total_rate)
      .set("total_rate_true", inst.truth->total_rate())
      .set("max_rate_abs_error", err.max_rate_abs_error)
      .set("mean_rate_abs_error", err.mean_rate_abs_error)
      .set("max_row_tv_distance", err.max_row_tv_distance)
      .set("mean_row_tv_distance", err.mean_row_tv_distance);
  return {row};
}

// --- sim/estimation_downstream: estimated demand through E_rev ------------

std::vector<result_row> run_estimation_downstream(
    const scenario_context& ctx) {
  const estimation_instance inst = make_estimation_instance(ctx);
  const dist::demand_model estimated =
      sim::to_demand_model(inst.estimate, inst.topo);

  // Through-rates (the node-betweenness side of E_rev) under the true and
  // the estimated demand, all nodes in one sweep each.
  const graph::betweenness_result true_bt =
      graph::weighted_betweenness(inst.topo, inst.truth->weight_fn());
  const graph::betweenness_result est_bt =
      graph::weighted_betweenness(inst.topo, estimated.weight_fn());

  const graph::node_id hub = graph::max_degree_node(inst.topo);
  double max_abs = 0.0, sum_abs = 0.0;
  for (std::size_t v = 0; v < true_bt.node.size(); ++v) {
    const double abs_err = std::abs(est_bt.node[v] - true_bt.node[v]);
    max_abs = std::max(max_abs, abs_err);
    sum_abs += abs_err;
  }
  result_row row;
  row.set("observations", static_cast<long long>(inst.estimate.observations))
      .set("hub", static_cast<long long>(hub))
      .set("hub_rate_true", true_bt.node[hub])
      .set("hub_rate_est", est_bt.node[hub])
      .set("hub_rel_err",
           true_bt.node[hub] > 0.0
               ? std::abs(est_bt.node[hub] - true_bt.node[hub]) /
                     true_bt.node[hub]
               : 0.0)
      .set("max_node_abs_err", max_abs)
      .set("mean_node_abs_err",
           sum_abs / static_cast<double>(true_bt.node.size()));
  return {row};
}

// --- topo/best_response: Section IV-B dynamics toward equilibria ----------

const char* outcome_name(topology::dynamics_outcome outcome) {
  return outcome == topology::dynamics_outcome::converged ? "converged"
         : outcome == topology::dynamics_outcome::cycled  ? "cycled"
                                                          : "round_cap";
}

std::vector<result_row> run_best_response(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "path");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 6));
  topology::game_params p;
  p.a = ctx.get_double("a", 1.0);
  p.b = ctx.get_double("b", 1.0);
  p.l = ctx.get_double("l", 0.5);
  p.s = ctx.get_double("s", 1.0);
  topology::dynamics_options options;
  options.max_rounds =
      static_cast<std::size_t>(ctx.get_int("max_rounds", 16));
  // The deviation_limits surface (ROADMAP "dynamics beyond n=8"): negative
  // = unlimited (the exhaustive default). Restricting the family sizes
  // makes larger n affordable, but a convergence under restricted limits
  // certifies only restricted stability — ne_certified reports 0 then.
  const long long max_removed = ctx.get_int("max_removed", -1);
  const long long max_added = ctx.get_int("max_added", -1);
  const long long max_deviations = ctx.get_int("max_deviations", -1);
  if (max_removed >= 0)
    options.limits.max_removed = static_cast<std::size_t>(max_removed);
  if (max_added >= 0)
    options.limits.max_added = static_cast<std::size_t>(max_added);
  if (max_deviations >= 0)
    options.limits.max_deviations_per_node =
        static_cast<std::uint64_t>(max_deviations);
  const bool restricted =
      max_removed >= 0 || max_added >= 0 || max_deviations >= 0;

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);
  const topology::dynamics_result dyn =
      topology::best_response_dynamics(start, p, options);

  double total_gain = 0.0;
  std::string trace;
  for (std::size_t i = 0; i < dyn.applied.size(); ++i) {
    total_gain += dyn.applied[i].gain();
    if (i < 12) {
      if (!trace.empty()) trace += '|';
      trace += render_double(dyn.applied[i].gain());
    } else if (i == 12) {
      trace += "|...";
    }
  }
  const std::string shape = topology::classify_topology(dyn.final_graph);
  result_row row;
  row.set("outcome", std::string(outcome_name(dyn.outcome)))
      .set("rounds", static_cast<long long>(dyn.rounds))
      .set("moves", static_cast<long long>(dyn.applied.size()))
      .set("total_gain", total_gain)
      .set("trace", trace.empty() ? std::string("(none)") : trace)
      .set("channels_start", static_cast<long long>(start.edge_count() / 2))
      .set("channels_final",
           static_cast<long long>(dyn.final_graph.edge_count() / 2))
      .set("final_shape", shape)
      .set("restricted", static_cast<long long>(restricted ? 1 : 0))
      // A converged UNRESTRICTED run is a Nash certificate: the final full
      // pass enumerated every unilateral deviation and found no improvement.
      // Under restricted limits convergence only suggests stability
      // (topology/nash.h), so ne_certified stays 0.
      .set("ne_certified",
           static_cast<long long>(
               dyn.outcome == topology::dynamics_outcome::converged &&
                       !restricted
                   ? 1
                   : 0))
      .set("is_star", static_cast<long long>(shape == "star" ? 1 : 0));
  return {row};
}

// --- arena/*: the large-population channel-creation arena -----------------

topology::game_params game_params_from(const scenario_context& ctx) {
  topology::game_params p;
  p.a = ctx.get_double("a", 1.0);
  p.b = ctx.get_double("b", 1.0);
  p.l = ctx.get_double("l", 1.5);
  p.s = ctx.get_double("s", 1.0);
  return p;
}

/// The arena's engine knobs from the common grid parameters. The provider
/// switches to the Brandes–Pich sampled backend above `exact_threshold`
/// nodes with `pivots` pivot sources; both rng streams (pivots, player
/// exploration) are fixed splitmix64 derivations of the job seed, so runs
/// stay pure functions of (params, seed) for any --jobs / thread budget.
arena::arena_options arena_options_from(const scenario_context& ctx,
                                        long long default_threshold) {
  arena::arena_options options;
  options.oracle = arena::oracle_from_name(ctx.get_string("oracle", "greedy"));
  options.order =
      arena::order_from_name(ctx.get_string("order", "round_robin"));
  options.max_rounds =
      static_cast<std::size_t>(ctx.get_int("max_rounds", 24));
  options.oracle_opts.candidate_k =
      static_cast<std::size_t>(ctx.get_int("candidate_k", 4));
  options.oracle_opts.candidate_random =
      static_cast<std::size_t>(ctx.get_int("candidate_random", 2));
  options.oracle_opts.max_channels =
      static_cast<std::size_t>(ctx.get_int("max_channels", 6));
  options.oracle_opts.max_removed =
      static_cast<std::size_t>(ctx.get_int("max_removed", 1));
  options.oracle_opts.max_added =
      static_cast<std::size_t>(ctx.get_int("max_added", 2));
  options.provider.exact_threshold = static_cast<std::size_t>(
      ctx.get_int("exact_threshold", default_threshold));
  options.provider.pivots = static_cast<std::size_t>(
      std::max(1LL, ctx.get_int("pivots", 32)));
  // full | incremental — bitwise-identical results either way (enforced by
  // tests/arena_incremental_test.cpp and, row for row, by
  // ScenarioCatalog.ArenaScenariosByteIdenticalAcrossJobCounts); the knob
  // exists so every scenario doubles as an equivalence fixture.
  options.provider.mode =
      arena::provider_mode_from_name(ctx.get_string("mode", "full"));
  options.provider.threads = ctx.threads();
  options.provider.seed = ctx.seed() ^ 0x7c63f8d1905bb7a3ULL;
  options.seed = ctx.seed() ^ 0x243f6a8885a308d3ULL;
  return options;
}

std::size_t max_channel_degree(const graph::digraph& g) {
  std::vector<std::size_t> degree(g.node_count(), 0);
  for (const topology::channel_pair& ch : topology::channel_pairs(g)) {
    ++degree[ch.a];
    ++degree[ch.b];
  }
  std::size_t max_degree = 0;
  for (const std::size_t d : degree) max_degree = std::max(max_degree, d);
  return max_degree;
}

std::vector<result_row> run_arena_best_response(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 24));
  const topology::game_params p = game_params_from(ctx);
  const arena::arena_options options = arena_options_from(
      ctx, static_cast<long long>(arena::default_exact_threshold));

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);
  const arena::arena_result res = arena::run_arena(start, p, options);

  const graph::digraph& final_graph = res.state.graph();
  const std::string shape = topology::classify_topology(final_graph);
  const double welfare = topology::social_welfare(final_graph, p).total;
  const topology::reference_welfare ref =
      topology::canonical_reference_welfare(n, p);
  result_row row;
  row.set("outcome", std::string(outcome_name(res.outcome)))
      .set("rounds", static_cast<long long>(res.rounds))
      .set("moves", static_cast<long long>(res.moves.size()))
      .set("proposals", static_cast<long long>(res.proposals))
      .set("total_gain", res.total_gain)
      .set("evaluations", static_cast<long long>(res.evaluations))
      .set("channels_start", static_cast<long long>(start.edge_count() / 2))
      .set("channels_final",
           static_cast<long long>(final_graph.edge_count() / 2))
      .set("final_shape", shape)
      .set("max_degree", static_cast<long long>(max_channel_degree(final_graph)))
      .set("welfare", welfare)
      .set("welfare_star", ref.star)
      .set("welfare_best_ref", ref.best)
      .set("best_ref", ref.best_name);
  return {row};
}

std::vector<result_row> run_arena_oracle_duel(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "path");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 6));
  const topology::game_params p = game_params_from(ctx);

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);

  std::vector<result_row> rows;
  const auto duel = [&](arena::oracle_kind kind) {
    arena::arena_options options = arena_options_from(
        ctx, static_cast<long long>(arena::default_exact_threshold));
    options.oracle = kind;
    const arena::arena_result res = arena::run_arena(start, p, options);
    const graph::digraph& final_graph = res.state.graph();
    result_row row;
    row.set("oracle", std::string(arena::oracle_name(kind)))
        .set("outcome", std::string(outcome_name(res.outcome)))
        .set("rounds", static_cast<long long>(res.rounds))
        .set("moves", static_cast<long long>(res.moves.size()))
        .set("evaluations", static_cast<long long>(res.evaluations))
        .set("channels_final",
             static_cast<long long>(final_graph.edge_count() / 2))
        .set("final_shape", topology::classify_topology(final_graph))
        .set("welfare", topology::social_welfare(final_graph, p).total);
    rows.push_back(std::move(row));
  };
  duel(arena::oracle_kind::greedy);
  duel(arena::oracle_kind::local);
  // The exhaustive reference only fits tiny populations (2^(n-1) deviated
  // graphs per player); evaluations stay 0 for it — exact utilities bypass
  // the provider.
  if (n <= 8) duel(arena::oracle_kind::brute);
  return rows;
}

std::vector<result_row> run_arena_scale_profile(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 150));
  const topology::game_params p = game_params_from(ctx);
  // Threshold 0: always the sampled provider — this family profiles the
  // Brandes–Pich regime (the whole point of the arena at n >> 8).
  const arena::arena_options options = arena_options_from(ctx, 0);

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);
  const arena::arena_result res = arena::run_arena(start, p, options);
  const graph::digraph& final_graph = res.state.graph();

  result_row row;
  row.set("nodes", static_cast<long long>(n))
      .set("outcome", std::string(outcome_name(res.outcome)))
      .set("rounds", static_cast<long long>(res.rounds))
      .set("moves", static_cast<long long>(res.moves.size()))
      .set("evaluations", static_cast<long long>(res.evaluations))
      .set("evals_per_player",
           static_cast<double>(res.evaluations) / static_cast<double>(n))
      .set("channels_start", static_cast<long long>(start.edge_count() / 2))
      .set("channels_final",
           static_cast<long long>(final_graph.edge_count() / 2))
      .set("final_shape", topology::classify_topology(final_graph))
      .set("max_degree",
           static_cast<long long>(max_channel_degree(final_graph)))
      .set("welfare", topology::social_welfare(final_graph, p).total);
  return {row};
}

// --- arena/heterogeneous: per-player (a, b, l) from sampled specs ---------

std::vector<result_row> run_arena_heterogeneous(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 40));
  const topology::game_params p = game_params_from(ctx);

  arena::population_options popts;
  popts.base = arena_options_from(
      ctx, static_cast<long long>(arena::default_exact_threshold));

  // Spec: point masses at the homogeneous (a, b, l) — the degenerate
  // configuration, byte-identical to arena/best_response on the same
  // stream — or mean-preserving lognormals with shape `sigma` (E stays at
  // the homogeneous value, only the skew varies).
  const dist::param_dist kind =
      dist::param_dist_from_name(ctx.get_string("dist", "point"));
  const double sigma = ctx.get_double("sigma", 0.5);
  dist::cost_param_specs specs;
  specs.a = {kind, p.a, kind == dist::param_dist::point ? 0.0 : sigma};
  specs.b = {kind, p.b, kind == dist::param_dist::point ? 0.0 : sigma};
  specs.l = {kind, p.l, kind == dist::param_dist::point ? 0.0 : sigma};
  rng param_stream(ctx.seed() ^ 0x452821e638d01377ULL);
  popts.player_params = dist::draw_population(specs, n, param_stream);

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);
  const arena::population_result res =
      arena::run_population(start, p, popts);
  const graph::digraph& final_graph = res.base.state.graph();

  // Heterogeneous welfare: each player's utility under its OWN params.
  double welfare = 0.0;
  for (graph::node_id u = 0; u < n; ++u) {
    topology::game_params pu = p;
    pu.a = popts.player_params[u].a;
    pu.b = popts.player_params[u].b;
    pu.l = popts.player_params[u].l;
    welfare += topology::node_utility(final_graph, u, pu).total;
  }

  // Does the star emerge around whoever drew cheap channels? Report the
  // hub's own l against the population spread.
  std::vector<std::size_t> degree(n, 0);
  for (const topology::channel_pair& ch :
       topology::channel_pairs(final_graph)) {
    ++degree[ch.a];
    ++degree[ch.b];
  }
  graph::node_id hub = 0;
  for (graph::node_id u = 1; u < n; ++u)
    if (degree[u] > degree[hub]) hub = u;
  double l_min = popts.player_params.front().l;
  double l_max = l_min;
  for (const core::cost_params& cp : popts.player_params) {
    l_min = std::min(l_min, cp.l);
    l_max = std::max(l_max, cp.l);
  }

  result_row row;
  row.set("outcome", std::string(outcome_name(res.base.outcome)))
      .set("rounds", static_cast<long long>(res.base.rounds))
      .set("moves", static_cast<long long>(res.base.moves.size()))
      .set("proposals", static_cast<long long>(res.base.proposals))
      .set("evaluations", static_cast<long long>(res.base.evaluations))
      .set("channels_start", static_cast<long long>(start.edge_count() / 2))
      .set("channels_final",
           static_cast<long long>(final_graph.edge_count() / 2))
      .set("final_shape", topology::classify_topology(final_graph))
      .set("max_degree",
           static_cast<long long>(max_channel_degree(final_graph)))
      .set("welfare", welfare)
      .set("hub", static_cast<long long>(hub))
      .set("hub_degree", static_cast<long long>(degree[hub]))
      .set("hub_l", popts.player_params[hub].l)
      .set("l_min", l_min)
      .set("l_max", l_max);
  return {row};
}

// --- arena/churn: joins, leaves and the deposit-conservation ledger -------

/// One undirected cycle of the channel graph (nodes in order, closed by a
/// channel last -> first), or empty when `g` is a forest. BFS spanning
/// forest + first non-tree edge, joined at the LCA — deterministic in
/// adjacency order.
std::vector<graph::node_id> find_channel_cycle(const graph::digraph& g) {
  const std::size_t n = g.node_count();
  std::vector<graph::node_id> parent(n, graph::invalid_node);
  std::vector<std::int64_t> depth(n, -1);
  for (graph::node_id root = 0; root < n; ++root) {
    if (depth[root] >= 0) continue;
    depth[root] = 0;
    std::vector<graph::node_id> frontier{root};
    for (std::size_t head = 0; head < frontier.size(); ++head) {
      const graph::node_id u = frontier[head];
      graph::node_id other = graph::invalid_node;
      g.for_each_out(u, [&](graph::edge_id, const graph::edge& e) {
        if (depth[e.dst] < 0) {
          depth[e.dst] = depth[u] + 1;
          parent[e.dst] = u;
          frontier.push_back(e.dst);
        } else if (e.dst != parent[u] && parent[e.dst] != u &&
                   other == graph::invalid_node) {
          other = e.dst;  // non-tree edge: u and e.dst close a cycle
        }
      });
      if (other == graph::invalid_node) continue;
      std::vector<graph::node_id> up{u};
      std::vector<graph::node_id> down{other};
      graph::node_id a = u;
      graph::node_id b = other;
      while (depth[a] > depth[b]) up.push_back(a = parent[a]);
      while (depth[b] > depth[a]) down.push_back(b = parent[b]);
      while (a != b) {
        up.push_back(a = parent[a]);
        down.push_back(b = parent[b]);
      }
      // up runs u..lca, down runs other..lca: emit u..lca then back down.
      std::vector<graph::node_id> cycle(up);
      for (auto it = down.rbegin() + 1; it != down.rend(); ++it)
        cycle.push_back(*it);
      return cycle;
    }
  }
  return {};
}

std::vector<result_row> run_arena_churn(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 24));
  const topology::game_params p = game_params_from(ctx);

  arena::population_options popts;
  popts.base = arena_options_from(
      ctx, static_cast<long long>(arena::default_exact_threshold));
  popts.track_ledger = true;
  popts.deposit_per_side = ctx.get_double("deposit", 4.0);

  const std::string churn = ctx.get_string("churn", "mixed");
  std::size_t initial = n;
  if (churn == "mixed") {
    initial = static_cast<std::size_t>(
        ctx.get_int("initial", static_cast<long long>(2 * n / 3)));
    popts.initial_players = initial;
    // Events land in the first half of the round budget so the population
    // has the second half to settle (convergence requires the schedule to
    // be drained).
    popts.churn = arena::make_churn_schedule(
        n, initial, static_cast<std::size_t>(ctx.get_int("joins", 6)),
        static_cast<std::size_t>(ctx.get_int("leaves", 6)),
        std::max<std::size_t>(2, popts.base.max_rounds / 2),
        ctx.seed() ^ 0xb5470917c2a7f64dULL);
  } else if (churn != "none") {
    throw precondition_error("unknown churn '" + churn +
                             "' (expected none|mixed)");
  }

  // The start topology spans the initial players; spare slots (who join
  // mid-run) begin isolated.
  rng gen = ctx.make_rng();
  const graph::digraph seed_topo = make_topology(topo_name, initial, gen);
  graph::digraph start(n);
  for (const topology::channel_pair& ch : topology::channel_pairs(seed_topo))
    start.add_bidirectional(ch.a, ch.b);

  const arena::population_result res = arena::run_population(start, p, popts);
  const graph::digraph& final_graph = res.base.state.graph();
  long long active_final = static_cast<long long>(n);
  if (!res.active.empty()) {
    active_final = std::count(res.active.begin(), res.active.end(), char(1));
  }

  // Post-run rebalancing contrast on the terminal topology: deplete each
  // channel's lower-id side deterministically (a direct single-hop payment
  // of 60% of its deposit), then run one watermark sweep. fee_aware = 1
  // makes every odd-id player non-cooperative: its rebalances pay
  // `fee_rate` per interior hop and are skipped when uneconomical. The
  // arena run above never reads `fee_aware`, so the axis is seed-neutral.
  const bool fee_aware = ctx.get_int("fee_aware", 0) != 0;
  pcn::network net = arena::to_network(final_graph, popts.deposit_per_side);
  // Deterministic depletion with a guaranteed repair path: drain one
  // actual cycle of the terminal graph in a consistent orientation
  // (single-hop payments between consecutive cycle nodes). The reverse
  // orientation is then over-funded, so circular rebalancing has a
  // feasible cycle by construction. A forest terminal graph (possible
  // after heavy churn) deplets nothing — rebalancing is structurally
  // impossible there and the columns honestly read zero.
  const std::vector<graph::node_id> cycle = find_channel_cycle(final_graph);
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    (void)net.execute_payment(cycle[i], cycle[(i + 1) % cycle.size()],
                              0.725 * popts.deposit_per_side);
  }
  std::vector<sim::rebalancing_policy> policies(n);
  for (std::size_t u = 0; u < n; ++u) {
    // Repair cycles may run most of the way around a ring-like topology.
    policies[u].max_cycle_len = n;
    if (fee_aware) {
      policies[u].fee_aware = true;
      policies[u].fee_rate = ctx.get_double("fee_rate", 0.02);
      policies[u].max_fee_fraction = ctx.get_double("max_fee_fraction", 0.5);
    }
  }
  const sim::rebalancing_sweep_stats reb = sim::rebalancing_sweep(net, policies);

  result_row row;
  row.set("outcome", std::string(outcome_name(res.base.outcome)))
      .set("rounds", static_cast<long long>(res.base.rounds))
      .set("moves", static_cast<long long>(res.base.moves.size()))
      .set("joins", static_cast<long long>(res.joins))
      .set("leaves", static_cast<long long>(res.leaves))
      .set("active_final", active_final)
      .set("channels_final",
           static_cast<long long>(final_graph.edge_count() / 2))
      .set("final_shape", topology::classify_topology(final_graph))
      .set("deposited", res.ledger.deposited)
      .set("refunded", res.ledger.refunded)
      .set("open_value", res.ledger.open_value)
      .set("conservation_gap", res.ledger.conservation_gap())
      .set("channels_opened", static_cast<long long>(res.ledger.channels_opened))
      .set("channels_closed", static_cast<long long>(res.ledger.channels_closed))
      .set("reb_triggered", static_cast<long long>(reb.triggered))
      .set("reb_succeeded", static_cast<long long>(reb.succeeded))
      .set("reb_volume", reb.volume)
      .set("reb_fees_paid", reb.fees_paid);
  return {row};
}

// --- scale/sampled_betweenness: Brandes–Pich error at 10^4 nodes ----------

std::vector<result_row> run_sampled_betweenness(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ba");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 2000));
  // Exact reference is O(n * (n + m)); above this threshold only the
  // sampled estimate runs and the error columns report -1 ("not measured").
  // Deliberately NOT arena::default_exact_threshold: that constant picks
  // the provider backend inside hot oracle loops, while this one gates a
  // once-per-run feasibility check for the error measurement, which stays
  // affordable far beyond 192 nodes.
  const auto exact_threshold =
      static_cast<std::size_t>(ctx.get_int("exact_threshold", 4000));

  rng gen = ctx.make_rng();
  const graph::digraph g = make_topology(topo_name, n, gen);
  const graph::pair_weight_fn unit = [](graph::node_id,
                                        graph::node_id) { return 1.0; };
  graph::betweenness_options options = betweenness_options_from(ctx);
  const std::size_t sources =
      options.backend == graph::betweenness_backend::sampled &&
              options.sample_pivots > 0
          ? std::min(options.sample_pivots, g.node_count())
          : g.node_count();
  const graph::betweenness_result estimate =
      graph::weighted_betweenness(g, unit, options);

  double max_rel = -1.0, mean_rel = -1.0;
  const bool exact_feasible = n <= exact_threshold;
  if (exact_feasible) {
    graph::betweenness_options exact_options;
    exact_options.backend = graph::betweenness_backend::parallel;
    exact_options.threads = ctx.threads();
    const graph::betweenness_result exact =
        graph::weighted_betweenness(g, unit, exact_options);
    double rel_sum = 0.0;
    std::size_t counted = 0;
    max_rel = 0.0;
    for (std::size_t v = 0; v < exact.node.size(); ++v) {
      if (exact.node[v] <= 1e-9) continue;
      const double rel =
          std::abs(estimate.node[v] - exact.node[v]) / exact.node[v];
      max_rel = std::max(max_rel, rel);
      rel_sum += rel;
      ++counted;
    }
    mean_rel = counted ? rel_sum / static_cast<double>(counted) : 0.0;
  }

  double sum_score = 0.0, top_score = 0.0;
  for (const double s : estimate.node) {
    sum_score += s;
    top_score = std::max(top_score, s);
  }
  result_row row;
  row.set("nodes", static_cast<long long>(g.node_count()))
      .set("channels", static_cast<long long>(g.edge_count() / 2))
      .set("sources_swept", static_cast<long long>(sources))
      .set("exact_feasible", static_cast<long long>(exact_feasible ? 1 : 0))
      .set("max_rel_err", max_rel)
      .set("mean_rel_err", mean_rel)
      .set("top_node_share", sum_score > 0.0 ? top_score / sum_score : 0.0);
  return {row};
}

// --- scale/host_properties: 10^4-node host structure via sampling ---------

std::vector<result_row> run_host_properties(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ba");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 10000));
  rng gen = ctx.make_rng();
  const graph::digraph g = make_topology(topo_name, n, gen);

  const std::size_t max_degree = max_channel_degree(g);
  const graph::node_id hub = graph::max_degree_node(g);

  // Betweenness concentration through the sampled backend — the whole point
  // of Brandes–Pich at this size; an exact sweep would be ~n/pivots slower.
  graph::betweenness_options options = betweenness_options_from(ctx);
  options.backend = graph::betweenness_backend::sampled;
  if (options.sample_pivots == 0) options.sample_pivots = 64;
  const graph::pair_weight_fn unit = [](graph::node_id,
                                        graph::node_id) { return 1.0; };
  const graph::betweenness_result bt =
      graph::weighted_betweenness(g, unit, options);
  double sum_score = 0.0, top_score = 0.0;
  for (const double s : bt.node) {
    sum_score += s;
    top_score = std::max(top_score, s);
  }
  result_row row;
  row.set("nodes", static_cast<long long>(g.node_count()))
      .set("channels", static_cast<long long>(g.edge_count() / 2))
      .set("max_degree", static_cast<long long>(max_degree))
      .set("mean_degree",
           static_cast<double>(g.edge_count()) /
               static_cast<double>(g.node_count()))
      .set("hub", static_cast<long long>(hub))
      .set("hub_ecc", static_cast<long long>(graph::eccentricity(g, hub)))
      .set("hub_bt_share", sum_score > 0.0 ? bt.node[hub] / sum_score : 0.0)
      .set("top_bt_share", sum_score > 0.0 ? top_score / sum_score : 0.0);
  return {row};
}

// --- scale/snapshot_host: committed CSV host, frozen end-to-end -----------

#ifndef LCG_SNAPSHOT_DIR
#define LCG_SNAPSHOT_DIR "data/snapshots"
#endif

std::vector<result_row> run_snapshot_host(const scenario_context& ctx) {
  // `snapshot` is a fixture NAME resolved against the committed snapshot
  // directory (so cache keys stay machine-independent); anything containing
  // a path separator is taken as a directory path verbatim, which is how
  // the heavy test feeds a generated 10^5-node host through this scenario.
  const std::string name = ctx.get_string("snapshot", "ba400");
  const std::string dir = name.find('/') != std::string::npos
                              ? name
                              : std::string(LCG_SNAPSHOT_DIR "/") + name;
  const graph::digraph g = graph::read_csv_snapshot(dir);
  const graph::csr_graph frozen = graph::freeze(g);

  const std::size_t max_degree = max_channel_degree(g);
  const graph::node_id hub = graph::max_degree_node(g);

  // The whole read path runs on the frozen view: hub reach by BFS and
  // sampled Brandes over the flat arrays — the exact configuration the
  // 10^5-node north star needs.
  std::int64_t hub_ecc = 0;
  std::size_t reachable = 0;
  for (const std::int32_t d : graph::bfs_distances(frozen, hub)) {
    if (d == graph::unreachable) continue;
    ++reachable;
    hub_ecc = std::max<std::int64_t>(hub_ecc, d);
  }

  graph::betweenness_options options = betweenness_options_from(ctx);
  options.backend = graph::betweenness_backend::sampled;
  if (options.sample_pivots == 0) options.sample_pivots = 64;
  const graph::pair_weight_fn unit = [](graph::node_id,
                                        graph::node_id) { return 1.0; };
  const graph::betweenness_result bt =
      graph::weighted_betweenness(frozen, unit, options);
  double sum_score = 0.0, top_score = 0.0;
  for (const double s : bt.node) {
    sum_score += s;
    top_score = std::max(top_score, s);
  }

  result_row row;
  row.set("nodes", static_cast<long long>(g.node_count()))
      .set("channels", static_cast<long long>(g.edge_count() / 2))
      .set("edges", static_cast<long long>(frozen.edge_count()))
      .set("max_degree", static_cast<long long>(max_degree))
      .set("mean_degree",
           g.node_count() ? static_cast<double>(g.edge_count()) /
                                static_cast<double>(g.node_count())
                          : 0.0)
      .set("hub", static_cast<long long>(hub))
      .set("hub_ecc", static_cast<long long>(hub_ecc))
      .set("reachable_share",
           g.node_count() ? static_cast<double>(reachable) /
                                static_cast<double>(g.node_count())
                          : 0.0)
      .set("hub_bt_share", sum_score > 0.0 ? bt.node[hub] / sum_score : 0.0)
      .set("top_bt_share", sum_score > 0.0 ? top_score / sum_score : 0.0);
  return {row};
}

// --- traffic/*: discrete-event HTLC traffic (src/traffic/) ----------------

/// Shared traffic_config surface: every traffic scenario exposes the same
/// engine knobs so sweeps compose across the family.
traffic::traffic_config traffic_config_from(const scenario_context& ctx,
                                            double default_horizon) {
  traffic::traffic_config config;
  config.horizon = ctx.get_double("horizon", default_horizon);
  config.hop_latency = ctx.get_double("hop_latency", 0.05);
  config.htlc_timeout = ctx.get_double("htlc_timeout", 2.0);
  config.gossip_refresh = ctx.get_double("gossip_refresh", 0.0);
  config.retry.kind =
      traffic::retry_from_name(ctx.get_string("retry", "none"));
  config.retry.max_retries =
      static_cast<std::uint32_t>(ctx.get_int("max_retries", 3));
  config.max_inflight =
      static_cast<std::size_t>(ctx.get_int("max_inflight", 0));
  return config;
}

void set_traffic_columns(result_row& row, const traffic::traffic_metrics& m) {
  row.set("attempted", static_cast<long long>(m.attempted))
      .set("delivered", static_cast<long long>(m.delivered))
      .set("success_rate", m.success_rate())
      .set("no_route", static_cast<long long>(m.failed_no_route))
      .set("mid_flight", static_cast<long long>(m.failed_mid_flight))
      .set("timed_out", static_cast<long long>(m.timed_out))
      .set("retries", static_cast<long long>(m.retries))
      .set("lock_failures", static_cast<long long>(m.lock_failures))
      .set("max_inflight", static_cast<long long>(m.max_inflight_seen))
      .set("events", static_cast<long long>(m.events))
      .set("volume_delivered", m.volume_delivered);
}

std::vector<result_row> run_traffic_baseline(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 32));
  const double balance = ctx.get_double("balance", 12.0);
  const double fee_value = ctx.get_double("fee", 0.5);
  const double zipf_s = ctx.get_double("zipf_s", 1.0);

  rng gen = ctx.make_rng();
  const graph::digraph topo = make_topology(topo_name, n, gen);
  const dist::zipf_transaction_distribution zipf(zipf_s);
  const dist::demand_model demand(topo, zipf,
                                  static_cast<double>(topo.node_count()));
  pcn::network net = arena::to_network(topo, balance);
  const dist::fixed_tx_size sizes(1.0);
  const dist::constant_fee fee(fee_value);
  const std::uint64_t workload_seed = gen();
  sim::workload_generator wl(demand, sizes, workload_seed);
  traffic::traffic_config config = traffic_config_from(ctx, 150.0);
  config.fee = &fee;
  const traffic::traffic_metrics m = traffic::run_traffic(net, wl, config);
  result_row row;
  set_traffic_columns(row, m);
  return {row};
}

/// Pearson correlation; 0 when either series is constant.
double pearson(const std::vector<double>& x, const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double mx = 0.0, my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0, sxx = 0.0, syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sxy += (x[i] - mx) * (y[i] - my);
    sxx += (x[i] - mx) * (x[i] - mx);
    syy += (y[i] - my) * (y[i] - my);
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

/// Runs the arena to a terminal topology, then replays heavy HTLC traffic
/// over that network and compares each node's realised fee revenue per unit
/// time with the analytic E_rev its strategy was optimising. One row per
/// top-analytic-revenue node; aggregate columns repeat on every row.
std::vector<result_row> run_traffic_arena_replay(const scenario_context& ctx) {
  const std::string topo_name = ctx.get_string("topology", "ws");
  const auto n = static_cast<std::size_t>(ctx.get_int("n", 120));
  const double balance = ctx.get_double("balance", 40.0);
  const double fee_value = ctx.get_double("fee", 0.5);
  const double zipf_s = ctx.get_double("zipf_s", 1.0);
  const topology::game_params p = game_params_from(ctx);
  // Threshold 0: the arena leg always uses the sampled provider (this is
  // the n >> 8 regime, same as arena/scale_profile).
  const arena::arena_options options = arena_options_from(ctx, 0);

  rng gen = ctx.make_rng();
  const graph::digraph start = make_topology(topo_name, n, gen);
  const arena::arena_result res = arena::run_arena(start, p, options);
  const graph::digraph& final_graph = res.state.graph();

  // Analytic per-node revenue rate on the terminal topology: one exact
  // betweenness sweep under the replay demand gives every node's
  // through-rate, times f_avg (Section IV's E_rev).
  const dist::zipf_transaction_distribution zipf(zipf_s);
  const dist::demand_model demand(final_graph, zipf,
                                  static_cast<double>(n));
  const graph::betweenness_result bt =
      graph::weighted_betweenness(final_graph, demand.weight_fn());
  std::vector<double> analytic(n, 0.0);
  for (graph::node_id v = 0; v < n; ++v)
    analytic[v] = bt.node[v] * fee_value;

  pcn::network net = arena::to_network(final_graph, balance);
  const dist::fixed_tx_size sizes(1.0);
  const dist::constant_fee fee(fee_value);
  const std::uint64_t workload_seed = gen();
  sim::workload_generator wl(demand, sizes, workload_seed);
  traffic::traffic_config config = traffic_config_from(ctx, 250.0);
  config.fee = &fee;
  const traffic::traffic_metrics m = traffic::run_traffic(net, wl, config);

  std::vector<double> realised(n, 0.0);
  for (graph::node_id v = 0; v < n; ++v) realised[v] = m.revenue_rate(v);
  const double corr = pearson(analytic, realised);

  std::vector<graph::node_id> order(n);
  for (graph::node_id v = 0; v < n; ++v) order[v] = v;
  std::sort(order.begin(), order.end(),
            [&](graph::node_id a, graph::node_id b) {
              if (analytic[a] != analytic[b]) return analytic[a] > analytic[b];
              return a < b;
            });
  const std::size_t top =
      std::min<std::size_t>(static_cast<std::size_t>(ctx.get_int("top", 8)),
                            n);
  std::vector<result_row> rows;
  for (std::size_t i = 0; i < top; ++i) {
    const graph::node_id v = order[i];
    result_row row;
    row.set("node", static_cast<long long>(v))
        .set("analytic_e_rev", analytic[v])
        .set("realised_e_rev", realised[v])
        .set("rel_err", analytic[v] > 0.0
                            ? std::abs(realised[v] - analytic[v]) / analytic[v]
                            : 0.0)
        .set("outcome", std::string(outcome_name(res.outcome)))
        .set("channels_final",
             static_cast<long long>(final_graph.edge_count() / 2))
        .set("attempted", static_cast<long long>(m.attempted))
        .set("success_rate", m.success_rate())
        .set("revenue_corr", corr);
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<value> ints(std::initializer_list<long long> xs) {
  std::vector<value> out;
  for (const long long x : xs) out.emplace_back(x);
  return out;
}

std::vector<value> doubles(std::initializer_list<double> xs) {
  std::vector<value> out;
  for (const double x : xs) out.emplace_back(x);
  return out;
}

std::vector<value> strings(std::initializer_list<const char*> xs) {
  std::vector<value> out;
  for (const char* x : xs) out.emplace_back(std::string(x));
  return out;
}

}  // namespace

// Every registration carries a cache version tag and its declared result
// columns. The tag is the scenario's code hash for runner/cache.h: bump it
// whenever the run function's observable output changes, and exactly that
// scenario's on-disk entries go stale. The column list must match what the
// run function emits, in order (runner_shard_test pins this); it is what
// lets --shard and all-cache-hit runs compute the sweep's CSV header
// without executing anything.
std::size_t register_builtin_scenarios() {
  static const bool registered = [] {
    registry& r = registry::global();
    r.add({"join/greedy",
           "Algorithm 1 (greedy, CELF) joining decision on a random host",
           {{"n", ints({20, 40, 80})},
            {"budget", doubles({6.0, 10.0})},
            {"lock", doubles({1.0, 1.5})}},
           run_join_greedy,
           "1",
           {"peers", "channels", "estimated_u", "exact_u_simplified",
            "exact_u", "e_rev", "e_fees", "evaluations"}});
    r.add({"join/discrete",
           "Algorithm 2 (discretised funds, exhaustive divisions)",
           {{"n", ints({10, 14})}, {"budget", doubles({6.0, 8.0})}},
           run_join_discrete,
           "1",
           {"peers", "channels", "estimated_u", "exact_u", "divisions",
            "feasible_divisions", "evaluations", "truncated"}});
    r.add({"join/continuous",
           "III-D continuous-funds local search over (peer, lock) actions",
           {{"n", ints({12, 20})}, {"budget", doubles({8.0, 12.0})}},
           run_join_continuous,
           "1",
           {"peers", "channels", "total_lock", "objective_u_benefit",
            "exact_u", "evaluations", "rounds"}});
    r.add({"join/estimators",
           "fixed-lambda ablation: greedy under three rate estimators (E9)",
           {{"n", ints({30, 40})},
            {"backend", strings({"serial", "parallel"})}},
           run_join_estimators,
           "1",
           {"estimator", "peers", "estimated_u", "exact_u_simplified",
            "exact_u", "e_rev", "estimations"}});
    r.add({"game/star",
           "Theorem 8 star equilibrium: closed form vs numeric checker (E11)",
           {{"s", doubles({0.0, 0.5, 1.0, 2.0})},
            {"l", doubles({0.05, 0.2, 0.5, 1.0})}},
           run_game_star,
           "1",
           {"closed_form_ne", "numeric_ne", "verdict", "deviations_checked",
            "thm9_sufficient"}});
    r.add({"game/path_circle",
           "Theorem 10 path instability + Theorem 11 circle chord gain",
           {{"n", ints({4, 6, 8, 12})}, {"l", doubles({0.5, 1.0, 2.0})}},
           run_game_path_circle,
           "1",
           {"path_deviation", "path_gain", "path_unstable",
            "circle_chord_gain", "circle_unstable"}});
    r.add({"net/utilities",
           "Section IV utilities and welfare across whole topologies",
           {{"topology", strings({"star", "cycle", "grid", "ba"})},
            {"n", ints({6, 9, 12})},
            {"s", doubles({1.0})}},
           run_net_utilities,
           "1",
           {"nodes", "channels", "welfare", "best_utility",
            "worst_utility"}});
    r.add({"sim/vs_analytic",
           "E15: discrete-event simulator revenue vs analytic E_rev",
           {{"topology", strings({"star", "cycle", "ba", "grid"})},
            {"n", ints({6, 9, 16})}},
           run_sim_vs_analytic,
           "1",
           {"hub", "analytic_e_rev", "measured_e_rev", "rel_err",
            "success_reset", "success_deplete", "attempted"}});
    r.add({"sim/rates",
           "Eq. 2 edge transaction rates (with optional capacity reduction)",
           {{"topology", strings({"cycle", "star", "ba", "er"})},
            {"n", ints({8, 12, 16, 20})},
            {"tx_size", doubles({0.0, 0.5})},
            {"backend", strings({"serial", "parallel"})}},
           run_sim_rates,
           "1",
           {"edges", "total_edge_rate", "max_edge_rate",
            "unroutable_rate"}});
    r.add({"sim/rebalance_policy",
           "circular rebalancing ([30]): watermark policy vs no rebalancing",
           {{"topology", strings({"cycle", "grid"})},
            {"low_watermark", doubles({0.1, 0.3})},
            {"max_cycle_len", ints({4, 12})},
            {"donor_aware", ints({0, 1})}},
           run_rebalance_policy,
           "2",
           {"attempted", "success_none", "success_rebal", "success_delta",
            "delivered_none", "delivered_rebal", "throughput_delta",
            "triggered", "rebalanced", "cycle_success_rate",
            "rebalance_volume"}});
    r.add({"sim/estimation_convergence",
           "N_u / p_trans(u,.) recovery from a transaction log vs horizon",
           {{"horizon", doubles({25.0, 100.0, 400.0})},
            {"alpha", doubles({0.0, 0.5})}},
           run_estimation_convergence,
           "1",
           {"observations", "total_rate_hat", "total_rate_true",
            "max_rate_abs_error", "mean_rate_abs_error",
            "max_row_tv_distance", "mean_row_tv_distance"}});
    r.add({"sim/estimation_downstream",
           "estimated demand plugged into E_rev through-rates vs truth",
           {{"horizon", doubles({50.0, 200.0, 800.0})},
            {"alpha", doubles({0.5})}},
           run_estimation_downstream,
           "1",
           {"observations", "hub", "hub_rate_true", "hub_rate_est",
            "hub_rel_err", "max_node_abs_err", "mean_node_abs_err"}});
    r.add({"topo/best_response",
           "Section IV-B best-response dynamics toward equilibrium shapes",
           {{"topology", strings({"star", "path", "cycle", "er"})},
            {"l", doubles({0.3, 1.5})},
            {"max_added", ints({-1, 1})}},
           run_best_response,
           "2",
           {"outcome", "rounds", "moves", "total_gain", "trace",
            "channels_start", "channels_final", "final_shape", "restricted",
            "ne_certified", "is_star"}});
    r.add({"arena/best_response",
           "large-population arena: oracle best response, welfare vs refs",
           {{"topology", strings({"path", "ws"})},
            {"n", ints({16, 40})},
            {"order", strings({"round_robin", "random"})},
            {"mode", strings({"full", "incremental"})}},
           run_arena_best_response,
           "2",
           {"outcome", "rounds", "moves", "proposals", "total_gain",
            "evaluations", "channels_start", "channels_final", "final_shape",
            "max_degree", "welfare", "welfare_star", "welfare_best_ref",
            "best_ref"},
           {"mode"}});
    r.add({"arena/oracle_duel",
           "greedy vs local (vs brute at n<=8) oracles on one start",
           {{"topology", strings({"path", "er"})}, {"n", ints({6, 20})}},
           run_arena_oracle_duel,
           "2",
           {"oracle", "outcome", "rounds", "moves", "evaluations",
            "channels_final", "final_shape", "welfare"}});
    r.add({"arena/scale_profile",
           "arena at n >> 8 through the sampled betweenness provider",
           {{"topology", strings({"ws"})},
            {"n", ints({120})},
            {"pivots", ints({16})},
            {"candidate_k", ints({3})},
            {"candidate_random", ints({0})},
            {"max_channels", ints({3})},
            {"mode", strings({"full", "incremental"})}},
           run_arena_scale_profile,
           "2",
           {"nodes", "outcome", "rounds", "moves", "evaluations",
            "evals_per_player", "channels_start", "channels_final",
            "final_shape", "max_degree", "welfare"},
           {"mode"}});
    r.add({"arena/heterogeneous",
           "per-player (a,b,l) from point/lognormal specs; who hubs?",
           // n = 40 keeps the default catalog fast; the n >= 120 coverage
           // lives in tests/arena_population_test.cpp and bench_arena.
           {{"topology", strings({"ws"})},
            {"n", ints({40})},
            {"dist", strings({"point", "lognormal"})},
            {"pivots", ints({16})},
            {"candidate_k", ints({3})},
            {"candidate_random", ints({0})},
            {"max_channels", ints({3})},
            {"mode", strings({"full", "incremental"})}},
           run_arena_heterogeneous,
           "1",
           {"outcome", "rounds", "moves", "proposals", "evaluations",
            "channels_start", "channels_final", "final_shape", "max_degree",
            "welfare", "hub", "hub_degree", "hub_l", "l_min", "l_max"},
           // The point-mass spec consumes no draws and replays the
           // homogeneous run, so the dist axis must share seeds.
           {"dist", "mode"}});
    r.add({"arena/churn",
           "joins/leaves with deposit-conservation ledger + rebalance mix",
           {{"topology", strings({"ws"})},
            {"n", ints({24})},
            {"churn", strings({"none", "mixed"})},
            {"fee_aware", ints({0, 1})},
            {"mode", strings({"full", "incremental"})}},
           run_arena_churn,
           "1",
           {"outcome", "rounds", "moves", "joins", "leaves", "active_final",
            "channels_final", "final_shape", "deposited", "refunded",
            "open_value", "conservation_gap", "channels_opened",
            "channels_closed", "reb_triggered", "reb_succeeded", "reb_volume",
            "reb_fees_paid"},
           // churn=none must replay the static run on the same stream and
           // fee_aware only affects post-run analysis.
           {"churn", "fee_aware", "mode"}});
    r.add({"traffic/baseline",
           "discrete-event HTLC traffic: retries x gossip staleness",
           {{"retry", strings({"none", "exclude", "backoff"})},
            {"gossip_refresh", doubles({0.0, 5.0})}},
           run_traffic_baseline,
           "1",
           {"attempted", "delivered", "success_rate", "no_route",
            "mid_flight", "timed_out", "retries", "lock_failures",
            "max_inflight", "events", "volume_delivered"}});
    r.add({"traffic/arena_replay",
           "arena terminal topology under HTLC traffic: realised vs E_rev",
           {{"n", ints({120})},
            {"pivots", ints({16})},
            {"candidate_k", ints({3})},
            {"candidate_random", ints({0})},
            {"max_channels", ints({3})},
            {"retry", strings({"exclude"})},
            {"gossip_refresh", doubles({1.0})}},
           run_traffic_arena_replay,
           "1",
           {"node", "analytic_e_rev", "realised_e_rev", "rel_err", "outcome",
            "channels_final", "attempted", "success_rate", "revenue_corr"}});
    r.add({"scale/sampled_betweenness",
           "Brandes–Pich pivot error vs exact on 10^3..10^4-node hosts",
           {{"n", ints({2000, 10000})},
            {"backend", strings({"sampled"})},
            {"pivots", ints({64, 256})}},
           run_sampled_betweenness,
           "1",
           {"nodes", "channels", "sources_swept", "exact_feasible",
            "max_rel_err", "mean_rel_err", "top_node_share"}});
    r.add({"scale/host_properties",
           "10^4-node host structure: degrees, hub reach, sampled centrality",
           {{"topology", strings({"ba", "ws", "grid"})},
            {"n", ints({10000})},
            {"pivots", ints({64})}},
           run_host_properties,
           "1",
           {"nodes", "channels", "max_degree", "mean_degree", "hub",
            "hub_ecc", "hub_bt_share", "top_bt_share"}});
    r.add({"scale/snapshot_host",
           "committed CSV snapshot host: load, freeze, sampled centrality",
           {{"snapshot", strings({"ba400"})}, {"pivots", ints({64})}},
           run_snapshot_host,
           "1",
           {"nodes", "channels", "edges", "max_degree", "mean_degree", "hub",
            "hub_ecc", "reachable_share", "hub_bt_share", "top_bt_share"}});
    return true;
  }();
  (void)registered;
  return registry::global().size();
}

}  // namespace lcg::runner
