// Shared experiment fixtures.
//
// Every join-game experiment needs the same setup: a connected random host
// graph, the paper's utility model on it, a candidate set, and an estimated
// objective. `make_join_instance` builds exactly that for the join/*
// scenarios. `make_topology` names the standard graph shapes the
// topology/simulation scenarios sweep over and the bench binaries start
// from.

#ifndef LCG_RUNNER_FIXTURES_H
#define LCG_RUNNER_FIXTURES_H

#include <memory>
#include <string>
#include <vector>

#include "core/objective.h"
#include "core/rate_estimator.h"
#include "core/utility.h"
#include "graph/digraph.h"
#include "util/rng.h"

namespace lcg::runner {

/// A joining-node problem instance on a connected random host.
struct join_instance {
  graph::digraph host;
  std::unique_ptr<core::utility_model> model;
  std::unique_ptr<core::full_connection_rate_estimator> estimator;
  std::unique_ptr<core::estimated_objective> objective;
  std::vector<graph::node_id> candidates;
};

/// Host graph: Barabási–Albert (attach 2) when `barabasi` and n > 3,
/// otherwise an Erdős–Rényi graph made connected by a cycle overlay.
/// `total_rate` < 0 defaults to n (one transaction per node per unit time).
[[nodiscard]] join_instance make_join_instance(std::uint64_t seed,
                                               std::size_t n,
                                               core::model_params params,
                                               double zipf_s = 1.0,
                                               double total_rate = -1.0,
                                               bool barabasi = true);

/// The bench/experiment default economic parameters.
[[nodiscard]] core::model_params default_model_params();

/// Named topology factory: "star", "path", "cycle", "complete", "grid"
/// (rows x cols from n = rows*cols, as square as possible), "ba"
/// (Barabási–Albert, attach 2), "er" (Erdős–Rényi p=0.3 + cycle overlay),
/// "ws" (Watts–Strogatz ring, k=2 per side, beta=0.1 — linear edge count,
/// usable at 10^4 nodes where "er" would be quadratic). `gen` is consumed
/// only by the random families. Throws precondition_error for unknown names
/// or infeasible sizes.
[[nodiscard]] graph::digraph make_topology(const std::string& name,
                                           std::size_t n, rng& gen);

/// The topology names make_topology accepts (for --list / sweeps).
[[nodiscard]] const std::vector<std::string>& topology_names();

}  // namespace lcg::runner

#endif  // LCG_RUNNER_FIXTURES_H
