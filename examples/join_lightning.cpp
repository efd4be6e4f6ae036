// join_lightning: a full joining study on a Lightning-like snapshot.
//
//   $ ./examples/join_lightning [n] [budget]
//
// Generates a Barabasi-Albert host of n nodes (default 120) — the paper's
// transaction model is itself BA-inspired, and BA matches the Lightning
// Network's measured heavy-tailed degree distribution — then compares all
// three algorithms of Section III for one joining node and budget:
//
//   Algorithm 1  greedy, fixed lock per channel      (1 - 1/e approx)
//   Algorithm 2  exhaustive over discretised funds   (1 - 1/e approx)
//   Algorithm 3  continuous local search on U^b      (1/5 approx)
//
// and reports, for each, the exact model quantities of the chosen strategy.

#include <cstdlib>
#include <iostream>

#include "core/continuous.h"
#include "core/discrete_search.h"
#include "core/greedy.h"
#include "core/rate_estimator.h"
#include "core/utility.h"
#include "graph/generators.h"
#include "graph/properties.h"
#include "obs/span.h"
#include "util/rng.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace lcg;

  const std::size_t n =
      argc > 1 ? static_cast<std::size_t>(std::atoi(argv[1])) : 120;
  const double budget = argc > 2 ? std::atof(argv[2]) : 12.0;

  rng gen(2023);
  const graph::digraph host = graph::barabasi_albert(n, 2, gen);
  std::cout << "host: " << n << " nodes, " << host.edge_count() / 2
            << " channels, max degree "
            << host.out_degree(graph::max_degree_node(host)) << "\n";

  core::model_params params;
  params.onchain_cost = 1.0;
  params.opportunity_rate = 0.02;
  params.fee_avg = 3.0;
  params.fee_avg_tx = 0.5;
  params.user_tx_rate = 1.0;
  const core::utility_model model =
      core::make_zipf_model(host, 1.0, static_cast<double>(n), params);

  std::vector<graph::node_id> candidates(n);
  for (graph::node_id v = 0; v < n; ++v) candidates[v] = v;
  // Payment sizes ~ truncated exponential: a channel locked with l only
  // forwards sizes <= l, so the estimator discounts rates by P(size <= l)
  // and the optimisers face a real lock-sizing trade-off.
  const dist::truncated_exponential_tx_size sizes(1.0, 6.0);
  core::full_connection_rate_estimator estimator(model, candidates, &sizes);
  const core::estimated_objective objective(model, estimator);

  table t({"algorithm", "channels", "locked total", "exact E_rev",
           "exact E_fees", "exact U", "ms"});
  const auto report = [&](const std::string& name, const core::strategy& s,
                          double ms) {
    double locked = 0.0;
    for (const core::action& a : s) locked += a.lock;
    t.add_row({name, static_cast<long long>(s.size()), locked,
               model.expected_revenue(s), model.expected_fees(s),
               model.utility(s), ms});
  };

  {
    obs::scoped_timer sw;
    const double lock = 1.0;
    const core::greedy_result r = core::greedy_fixed_lock(
        objective, candidates, lock,
        core::max_channels(params, budget, lock));
    report("Alg 1 greedy (lock 1)", r.chosen, sw.elapsed_ms());
  }
  {
    obs::scoped_timer sw;
    const double lock = 2.0;
    const core::greedy_result r = core::greedy_fixed_lock(
        objective, candidates, lock,
        core::max_channels(params, budget, lock));
    report("Alg 1 greedy (lock 2)", r.chosen, sw.elapsed_ms());
  }
  {
    obs::scoped_timer sw;
    core::discrete_search_options opts;
    opts.unit = 2.0;
    opts.max_divisions = 200000;
    const core::discrete_search_result r = core::discrete_exhaustive_search(
        objective, candidates, budget, opts);
    report("Alg 2 discrete (m=2)", r.chosen, sw.elapsed_ms());
  }
  {
    obs::scoped_timer sw;
    core::local_search_options opts;
    opts.restarts = 2;
    const core::local_search_result r = core::continuous_local_search(
        objective, candidates, budget, opts);
    report("Alg 3 local search", r.chosen, sw.elapsed_ms());
  }
  t.print(std::cout);

  std::cout << "\npeers chosen by Alg 3:";
  core::local_search_options opts;
  opts.restarts = 2;
  const core::local_search_result r =
      core::continuous_local_search(objective, candidates, budget, opts);
  for (const core::action& a : r.chosen) {
    std::cout << "  node " << a.peer << " (degree "
              << host.out_degree(a.peer) << ", lock " << a.lock << ")";
  }
  std::cout
      << "\nTwo things to notice. High-degree hubs dominate every "
         "algorithm's picks: the Zipf demand concentrates traffic on them. "
         "And the algorithms optimise the paper's fixed-lambda *estimate* "
         "of revenue (Theorem 1's assumption) — the exact columns above "
         "recompute reality, and the gap between them is quantified by "
         "`lcg_run --filter join/estimators` (E9).\n";
  return 0;
}
