// Demand-parameter estimation from transaction logs (future-work item 3).

#include "sim/estimation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/greedy.h"
#include "core/rate_estimator.h"
#include "graph/generators.h"
#include "pcn/rates.h"

namespace lcg::sim {
namespace {

dist::demand_model zipf_demand(const graph::digraph& g, double s,
                               double total) {
  const dist::zipf_transaction_distribution zipf(s);
  return dist::demand_model(g, zipf, total);
}

TEST(Estimation, RecoversRatesAndRowsFromLongLogs) {
  const graph::digraph g = graph::star_graph(5);
  const auto truth = zipf_demand(g, 1.0, 12.0);
  const dist::fixed_tx_size sizes(1.0);
  workload_generator wl(truth, sizes, 42);
  const double horizon = 4000.0;
  const auto log = wl.generate(horizon);
  const demand_estimate est = estimate_demand(log, g.node_count(), horizon);

  const estimation_error err = compare_to_truth(est, truth);
  EXPECT_LT(err.max_rate_abs_error, 0.12);   // rates ~2 each
  EXPECT_LT(err.mean_row_tv_distance, 0.03);
  EXPECT_NEAR(est.total_rate, 12.0, 0.4);
}

TEST(Estimation, ErrorShrinksWithHorizon) {
  const graph::digraph g = graph::cycle_graph(6);
  const auto truth = zipf_demand(g, 1.0, 10.0);
  const dist::fixed_tx_size sizes(1.0);

  const auto error_at = [&](double horizon) {
    workload_generator wl(truth, sizes, 7);
    const auto log = wl.generate(horizon);
    return compare_to_truth(
        estimate_demand(log, g.node_count(), horizon), truth);
  };
  const estimation_error short_run = error_at(50.0);
  const estimation_error long_run = error_at(5000.0);
  EXPECT_LT(long_run.mean_row_tv_distance, short_run.mean_row_tv_distance);
  EXPECT_LT(long_run.mean_rate_abs_error, short_run.mean_rate_abs_error);
}

TEST(Estimation, UnseenSenderGetsUniformPrior) {
  // Only node 0 sends; node 1's estimated row must fall back to uniform.
  graph::digraph g(3);
  g.add_bidirectional(0, 1);
  g.add_bidirectional(1, 2);
  std::vector<tx_event> log{{0.5, 0, 2, 1.0}, {1.0, 0, 1, 1.0},
                            {1.5, 0, 2, 1.0}};
  const demand_estimate est = estimate_demand(log, 3, 2.0);
  EXPECT_DOUBLE_EQ(est.sender_rate[1], 0.0);
  EXPECT_NEAR(est.receiver_p[1][0], 0.5, 1e-12);
  EXPECT_NEAR(est.receiver_p[1][2], 0.5, 1e-12);
  // Node 0's row is the empirical 1/3, 2/3.
  EXPECT_NEAR(est.receiver_p[0][1], 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(est.receiver_p[0][2], 2.0 / 3.0, 1e-12);
  EXPECT_EQ(est.observations, 3u);
}

TEST(Estimation, SmoothingPullsSparseRowsTowardUniform) {
  std::vector<tx_event> log{{0.5, 0, 1, 1.0}};  // one observation
  const demand_estimate raw = estimate_demand(log, 3, 1.0);
  const demand_estimate smooth = estimate_demand_smoothed(log, 3, 1.0, 1.0);
  EXPECT_DOUBLE_EQ(raw.receiver_p[0][1], 1.0);
  EXPECT_DOUBLE_EQ(raw.receiver_p[0][2], 0.0);
  // alpha = 1: (1 + 1) / (1 + 2) and (0 + 1) / 3.
  EXPECT_NEAR(smooth.receiver_p[0][1], 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(smooth.receiver_p[0][2], 1.0 / 3.0, 1e-12);
}

TEST(Estimation, EstimatedModelPredictsEdgeRates) {
  // End-to-end: estimate demand from a log, rebuild a demand_model, and
  // check the analytic edge rates derived from it track the ground truth.
  const graph::digraph g = graph::star_graph(4);
  const auto truth = zipf_demand(g, 1.5, 8.0);
  const dist::fixed_tx_size sizes(1.0);
  workload_generator wl(truth, sizes, 99);
  const double horizon = 3000.0;
  const auto log = wl.generate(horizon);
  const demand_estimate est = estimate_demand(log, g.node_count(), horizon);
  const dist::demand_model rebuilt = to_demand_model(est, g);

  const auto true_rates = pcn::edge_transaction_rates(g, truth);
  const auto est_rates = pcn::edge_transaction_rates(g, rebuilt);
  for (graph::edge_id e = 0; e < g.edge_slots(); ++e) {
    EXPECT_NEAR(est_rates.edge_rate[e], true_rates.edge_rate[e],
                0.1 * true_rates.edge_rate[e] + 0.05)
        << "edge " << e;
  }
}

TEST(Estimation, ModerateLogsRecoverTheJoinDecision) {
  // Greedy joining (Algorithm 1, M = 4, lock 1) on a 30-node BA host: the
  // peers picked from a smoothed demand estimate equal the peers picked
  // from the true demand once the log is moderately long.
  rng gen(4);
  const graph::digraph host = graph::barabasi_albert(30, 2, gen);
  core::model_params params;
  params.onchain_cost = 1.0;
  params.opportunity_rate = 0.02;
  params.fee_avg = 3.0;
  params.fee_avg_tx = 0.5;
  params.user_tx_rate = 1.0;
  const core::utility_model truth =
      core::make_zipf_model(host, 1.0, 30.0, params);
  std::vector<graph::node_id> candidates(host.node_count());
  for (graph::node_id v = 0; v < host.node_count(); ++v) candidates[v] = v;

  const auto greedy_peers = [&](const core::utility_model& model) {
    core::full_connection_rate_estimator est(model, candidates);
    const core::estimated_objective obj(model, est);
    std::vector<graph::node_id> peers;
    for (const core::action& a :
         core::greedy_fixed_lock(obj, candidates, 1.0, 4).chosen)
      peers.push_back(a.peer);
    std::sort(peers.begin(), peers.end());
    return peers;
  };
  const std::vector<graph::node_id> truth_peers = greedy_peers(truth);
  ASSERT_EQ(truth_peers.size(), 4u);

  const dist::fixed_tx_size sizes(1.0);
  for (const double horizon : {500.0, 2500.0}) {
    workload_generator wl(truth.demand(), sizes, 23);
    const auto log = wl.generate(horizon);
    const demand_estimate est = estimate_demand_smoothed(
        log, host.node_count(), horizon, /*alpha=*/0.1);
    const core::utility_model estimated(host, to_demand_model(est, host),
                                        truth.newcomer_probabilities(),
                                        params);
    EXPECT_EQ(greedy_peers(estimated), truth_peers) << "horizon " << horizon;
  }
}

TEST(Estimation, RejectsBadInputs) {
  EXPECT_THROW(estimate_demand({}, 3, 0.0), precondition_error);
  EXPECT_THROW(estimate_demand_smoothed({}, 3, 1.0, -0.5),
               precondition_error);
}

}  // namespace
}  // namespace lcg::sim
