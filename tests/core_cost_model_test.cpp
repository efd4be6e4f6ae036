// Extended channel cost models (II-C note on [17]; future-work item 2).

#include "core/cost_model.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/brute_force.h"
#include "core/utility.h"
#include "graph/generators.h"

namespace lcg::core {
namespace {

TEST(CostModels, LinearMatchesParams) {
  const linear_cost cost(1.0, 0.05);
  EXPECT_DOUBLE_EQ(cost.channel_cost(0.0), 1.0);
  EXPECT_DOUBLE_EQ(cost.channel_cost(10.0), 1.5);
  model_params p;
  p.onchain_cost = 1.0;
  p.opportunity_rate = 0.05;
  EXPECT_DOUBLE_EQ(cost.channel_cost(7.0), p.channel_cost(7.0));
}

TEST(CostModels, InterestRateDiscount) {
  // 1 period at 10%: discount factor 1 - 1/1.1 = 0.0909...
  const interest_rate_cost cost(2.0, 0.10, 1.0);
  EXPECT_NEAR(cost.discount_factor(), 1.0 - 1.0 / 1.1, 1e-12);
  EXPECT_NEAR(cost.channel_cost(11.0), 2.0 + 11.0 * (1.0 - 1.0 / 1.1),
              1e-9);
}

TEST(CostModels, ZeroLifetimeOrRateIsFree) {
  EXPECT_DOUBLE_EQ(interest_rate_cost(0.5, 0.1, 0.0).channel_cost(100.0),
                   0.5);
  EXPECT_DOUBLE_EQ(interest_rate_cost(0.5, 0.0, 10.0).channel_cost(100.0),
                   0.5);
}

TEST(CostModels, SmallRateTimesLifetimeApproachesLinear) {
  // For small rho*T, 1 - (1+rho)^-T ~ rho*T: the paper's linear model.
  const double rho = 0.001, lifetime = 2.0;
  const interest_rate_cost interest(1.0, rho, lifetime);
  const linear_cost linear(1.0, rho * lifetime);
  for (const double locked : {0.0, 5.0, 50.0}) {
    EXPECT_NEAR(interest.channel_cost(locked), linear.channel_cost(locked),
                locked * rho * rho * lifetime * lifetime + 1e-12);
  }
}

TEST(CostModels, LongLifetimeCostsApproachFullLock) {
  // Locking forever at positive interest forfeits the full amount.
  const interest_rate_cost cost(0.0, 0.2, 1000.0);
  EXPECT_NEAR(cost.channel_cost(42.0), 42.0, 1e-6);
}

TEST(CostModels, RejectsNegativeInputs) {
  EXPECT_THROW(linear_cost(-1.0, 0.0), precondition_error);
  EXPECT_THROW(interest_rate_cost(1.0, -0.1, 1.0), precondition_error);
  const linear_cost c(1.0, 0.1);
  EXPECT_THROW(c.channel_cost(-5.0), precondition_error);
}

TEST(CostModels, UtilityModelSwapsCostModels) {
  const graph::digraph host = graph::star_graph(4);
  model_params params;
  params.onchain_cost = 1.0;
  params.opportunity_rate = 0.05;
  utility_model model = make_zipf_model(host, 1.0, 5.0, params);

  const strategy s{{0, 10.0}};
  const double linear_costs = model.channel_costs(s);
  EXPECT_NEAR(linear_costs, 1.0 + 0.5, 1e-12);

  // Harsh interest model: cost rises, utility falls by the same amount.
  const interest_rate_cost harsh(1.0, 0.3, 5.0);
  const double u_linear = model.utility(s);
  model.set_cost_model(&harsh);
  EXPECT_NEAR(model.channel_costs(s), harsh.channel_cost(10.0), 1e-12);
  EXPECT_NEAR(model.utility(s), u_linear + linear_costs -
                                    harsh.channel_cost(10.0),
              1e-9);
  // Restore the default.
  model.set_cost_model(nullptr);
  EXPECT_NEAR(model.channel_costs(s), linear_costs, 1e-12);
}

TEST(CostModels, HarsherCostsShrinkOptimalStrategies) {
  // Under steep lifetime discounting the brute-force optimum uses fewer /
  // thinner channels than under the mild linear model.
  const graph::digraph host = graph::star_graph(5);
  model_params params;
  params.onchain_cost = 0.5;
  params.opportunity_rate = 0.01;
  params.fee_avg = 1.0;
  params.fee_avg_tx = 0.5;
  utility_model model = make_zipf_model(host, 1.0, 6.0, params);
  const std::vector<graph::node_id> candidates{0, 1, 2, 3, 4};
  const std::vector<double> levels{1.0, 4.0};

  const auto optimum = [&] {
    return brute_force_lock_grid(
        [&](const strategy& s) { return model.utility(s); }, params,
        candidates, levels, 20.0);
  };
  const brute_force_result mild = optimum();
  const interest_rate_cost harsh(0.5, 0.5, 10.0);  // ~98% of lock forfeited
  model.set_cost_model(&harsh);
  const brute_force_result constrained = optimum();

  double mild_locked = 0.0, harsh_locked = 0.0;
  for (const action& a : mild.best) mild_locked += a.lock;
  for (const action& a : constrained.best) harsh_locked += a.lock;
  EXPECT_LE(harsh_locked, mild_locked);
  EXPECT_LE(constrained.value, mild.value + 1e-9);

  // At 5% per period each extra period makes locked capital dearer, so the
  // optimum's utility falls with the lifetime T.
  double previous = std::numeric_limits<double>::infinity();
  for (const double lifetime : {1.0, 5.0, 20.0, 80.0}) {
    const interest_rate_cost discounted(0.5, 0.05, lifetime);
    model.set_cost_model(&discounted);
    const double value = optimum().value;
    EXPECT_LT(value, previous) << "T=" << lifetime;
    previous = value;
  }
  model.set_cost_model(nullptr);
}

}  // namespace
}  // namespace lcg::core
