// Golden-value and accounting tests for the three lambda_uv estimators
// (core/rate_estimator.h) on the paper's small fixtures.
//
// Fixtures are chosen so the expected rates are exact by hand: a star and a
// 4-path under uniform demand with total rate 12 (n = 4 senders, N_s = 3,
// p_trans = 1/3, so every ordered pair has weight exactly 1). The tests pin:
//
//   * the golden rates of full_connection / anchor_pair / degree_share,
//   * the capacity-discount (tx-size) multiplier P(size <= lock),
//   * that calls() counts estimate() invocations only — never construction
//     work — and is completely unaffected by the betweenness backend choice,
//   * that the parallel/sampled(k >= n) backends reproduce the serial
//     estimator values bit-for-bit.

#include "core/rate_estimator.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/utility.h"
#include "dist/transaction_dist.h"
#include "dist/tx_size.h"
#include "graph/generators.h"

namespace lcg::core {
namespace {

constexpr double kTol = 1e-12;

/// Uniform demand: every ordered pair (s, r) has weight
/// (total_rate / n) * 1 / (n - 1). total_rate = n * (n - 1) makes it 1.
utility_model make_uniform_model(graph::digraph host) {
  const std::size_t n = host.node_count();
  const dist::uniform_transaction_distribution uniform;
  dist::demand_model demand(host, uniform,
                            static_cast<double>(n * (n - 1)));
  const std::vector<double> newcomer(n, 1.0 / static_cast<double>(n));
  return utility_model(std::move(host), std::move(demand), newcomer,
                       model_params{});
}

std::vector<graph::node_id> all_nodes(const utility_model& model) {
  std::vector<graph::node_id> ids;
  for (graph::node_id v = 0; v < model.host().node_count(); ++v)
    ids.push_back(v);
  return ids;
}

// --- golden values: star with 3 leaves (centre 0), pair weight 1 ----------
//
// full_connection attaches u to everyone. A leaf pair (i, j) has two
// shortest paths (via the centre, via u), so channel (i, u) carries 1/2 per
// ordered pair with endpoint i => rate 1. Centre pairs are distance-1, so
// the centre channel carries nothing.

TEST(RateEstimator, FullConnectionGoldenOnStar) {
  const utility_model model = make_uniform_model(graph::star_graph(3));
  full_connection_rate_estimator est(model, all_nodes(model));
  EXPECT_NEAR(est.estimate(0, 1.0), 0.0, kTol);
  EXPECT_NEAR(est.estimate(1, 1.0), 1.0, kTol);
  EXPECT_NEAR(est.estimate(2, 1.0), 1.0, kTol);
  EXPECT_NEAR(est.estimate(3, 1.0), 1.0, kTol);
}

// A repeated candidate would add a second parallel edge pair, split the
// candidate's through-traffic between the pairs and read only the last one.

TEST(RateEstimator, FullConnectionRejectsRepeatedCandidate) {
  const utility_model model = make_uniform_model(graph::star_graph(5));
  const std::vector<graph::node_id> repeated{3, 1, 4, 3};
  try {
    full_connection_rate_estimator est(model, repeated);
    ADD_FAILURE() << "a repeated candidate must throw";
  } catch (const precondition_error& e) {
    EXPECT_NE(std::string(e.what()).find("candidate 3 "), std::string::npos)
        << e.what();
  }
  const std::vector<graph::node_id> once{3, 1, 4};
  EXPECT_NO_THROW(full_connection_rate_estimator(model, once));
  const std::vector<graph::node_id> outside{3, 6};
  EXPECT_THROW(full_connection_rate_estimator(model, outside),
               precondition_error);
}

// anchor_pair on the star attaches u to (v, centre): u's channels only ever
// parallel an existing distance-1 hop, so no shortest path crosses u.

TEST(RateEstimator, AnchorPairGoldenOnStar) {
  const utility_model model = make_uniform_model(graph::star_graph(3));
  anchor_pair_rate_estimator est(model);
  for (graph::node_id v = 0; v < 4; ++v) {
    EXPECT_NEAR(est.estimate(v, 1.0), 0.0, kTol) << v;
  }
}

// degree_share: total_rate * in_degree(v) / sum_deg; star in-degrees are
// centre 3, leaves 1, sum 6, total_rate 12.

TEST(RateEstimator, DegreeShareGoldenOnStar) {
  const utility_model model = make_uniform_model(graph::star_graph(3));
  degree_share_rate_estimator est(model);
  EXPECT_NEAR(est.estimate(0, 1.0), 6.0, kTol);
  EXPECT_NEAR(est.estimate(1, 1.0), 2.0, kTol);
  EXPECT_NEAR(est.estimate(2, 1.0), 2.0, kTol);
  EXPECT_NEAR(est.estimate(3, 1.0), 2.0, kTol);
}

// --- golden values: path 0-1-2-3, pair weight 1 ---------------------------
//
// full_connection: (0,2)/(1,3) split 1/2 with the host path; (0,3) routes
// entirely through u (length 2 vs 3). Endpoint channels therefore carry
// 1/2 + 1 = 3/2 per direction, interior channels 1/2.
//
// anchor_pair: anchor is node 1 (first maximum-degree node). Only v = 3
// gives u a useful shortcut (3-u-1 ties 3-2-1, and extends to 3-u-1-0 tying
// 3-2-1-0): edge (3,u) and (u,3) each carry 1/2 + 1/2 = 1 => rate 1.

TEST(RateEstimator, FullConnectionGoldenOnPath) {
  const utility_model model = make_uniform_model(graph::path_graph(4));
  full_connection_rate_estimator est(model, all_nodes(model));
  EXPECT_NEAR(est.estimate(0, 1.0), 1.5, kTol);
  EXPECT_NEAR(est.estimate(1, 1.0), 0.5, kTol);
  EXPECT_NEAR(est.estimate(2, 1.0), 0.5, kTol);
  EXPECT_NEAR(est.estimate(3, 1.0), 1.5, kTol);
}

TEST(RateEstimator, AnchorPairGoldenOnPath) {
  const utility_model model = make_uniform_model(graph::path_graph(4));
  anchor_pair_rate_estimator est(model);
  EXPECT_NEAR(est.estimate(0, 1.0), 0.0, kTol);
  EXPECT_NEAR(est.estimate(1, 1.0), 0.0, kTol);
  EXPECT_NEAR(est.estimate(2, 1.0), 0.0, kTol);
  EXPECT_NEAR(est.estimate(3, 1.0), 1.0, kTol);
}

TEST(RateEstimator, DegreeShareGoldenOnPath) {
  const utility_model model = make_uniform_model(graph::path_graph(4));
  degree_share_rate_estimator est(model);
  EXPECT_NEAR(est.estimate(0, 1.0), 2.0, kTol);
  EXPECT_NEAR(est.estimate(1, 1.0), 4.0, kTol);
  EXPECT_NEAR(est.estimate(2, 1.0), 4.0, kTol);
  EXPECT_NEAR(est.estimate(3, 1.0), 2.0, kTol);
}

// --- capacity discount (II-B): estimate scales by P(tx size <= lock) ------

TEST(RateEstimator, CapacityDiscountScalesEveryEstimator) {
  const utility_model model = make_uniform_model(graph::path_graph(4));
  // A point mass at 2.0: locks below 2 admit nothing, locks >= 2 everything.
  const dist::fixed_tx_size point(2.0);
  full_connection_rate_estimator full(model, all_nodes(model), &point);
  anchor_pair_rate_estimator anchor(model, &point);
  degree_share_rate_estimator degree(model, &point);
  EXPECT_NEAR(full.estimate(0, 1.0), 0.0, kTol);
  EXPECT_NEAR(full.estimate(0, 2.5), 1.5, kTol);
  EXPECT_NEAR(anchor.estimate(3, 1.0), 0.0, kTol);
  EXPECT_NEAR(anchor.estimate(3, 2.5), 1.0, kTol);
  EXPECT_NEAR(degree.estimate(1, 1.0), 0.0, kTol);
  EXPECT_NEAR(degree.estimate(1, 2.5), 4.0, kTol);

  // Uniform sizes on [0, 4]: cdf(1) = 1/4 discounts smoothly.
  const dist::uniform_tx_size smooth(4.0);
  full_connection_rate_estimator quarter(model, all_nodes(model), &smooth);
  EXPECT_NEAR(quarter.estimate(3, 1.0), 1.5 * 0.25, kTol);
  EXPECT_NEAR(quarter.estimate(3, 4.0), 1.5, kTol);
}

// --- calls() accounting (the Theorem 4/5 cost metric) ---------------------

graph::betweenness_options parallel_options() {
  graph::betweenness_options options;
  options.backend = graph::betweenness_backend::parallel;
  options.threads = 4;
  return options;
}

graph::betweenness_options sampled_exact_options(std::size_t n) {
  graph::betweenness_options options;
  options.backend = graph::betweenness_backend::sampled;
  options.sample_pivots = n + 1;  // >= n sources -> degenerate exact
  options.rng_seed = 11;
  return options;
}

TEST(RateEstimator, CallsCountEstimateInvocationsOnly) {
  const utility_model model = make_uniform_model(graph::star_graph(3));
  // Construction (which runs the expensive sweep) must not count.
  full_connection_rate_estimator full(model, all_nodes(model));
  EXPECT_EQ(full.calls(), 0u);
  (void)full.estimate(1, 1.0);
  (void)full.estimate(1, 1.0);
  EXPECT_EQ(full.calls(), 2u);
  full.reset_calls();
  EXPECT_EQ(full.calls(), 0u);

  // Memoised anchor_pair repeats still count every estimate() call.
  anchor_pair_rate_estimator anchor(model);
  for (int i = 0; i < 5; ++i) (void)anchor.estimate(2, 1.0);
  EXPECT_EQ(anchor.calls(), 5u);
}

TEST(RateEstimator, CallsAccountingUnaffectedByBackend) {
  const utility_model model = make_uniform_model(graph::path_graph(4));
  const std::size_t n = model.host().node_count();
  const std::vector<graph::betweenness_options> backends = {
      graph::betweenness_options{}, parallel_options(),
      sampled_exact_options(n)};

  std::vector<std::uint64_t> full_calls, anchor_calls;
  std::vector<std::vector<double>> full_values, anchor_values;
  for (const graph::betweenness_options& options : backends) {
    full_connection_rate_estimator full(model, all_nodes(model), nullptr,
                                        options);
    anchor_pair_rate_estimator anchor(model, nullptr, options);
    std::vector<double> fv, av;
    for (graph::node_id v = 0; v < n; ++v) {
      fv.push_back(full.estimate(v, 1.0));
      av.push_back(anchor.estimate(v, 1.0));
      av.push_back(anchor.estimate(v, 1.0));  // memoised repeat
    }
    full_calls.push_back(full.calls());
    anchor_calls.push_back(anchor.calls());
    full_values.push_back(std::move(fv));
    anchor_values.push_back(std::move(av));
  }
  for (std::size_t i = 1; i < backends.size(); ++i) {
    EXPECT_EQ(full_calls[i], full_calls[0]);
    EXPECT_EQ(anchor_calls[i], anchor_calls[0]);
    // Exact backends are bit-identical, so the estimator values are too.
    EXPECT_EQ(full_values[i], full_values[0]);
    EXPECT_EQ(anchor_values[i], anchor_values[0]);
  }
  EXPECT_EQ(full_calls[0], static_cast<std::uint64_t>(n));
  EXPECT_EQ(anchor_calls[0], static_cast<std::uint64_t>(2 * n));
}

}  // namespace
}  // namespace lcg::core
