#include "arena/provider.h"

#include <algorithm>
#include <thread>

#include "arena/incremental.h"
#include "graph/csr.h"
#include "graph/properties.h"
#include "util/error.h"

namespace lcg::arena {

provider_mode provider_mode_from_name(std::string_view name) {
  if (name == "full") return provider_mode::full;
  if (name == "incremental") return provider_mode::incremental;
  throw precondition_error("unknown provider mode '" + std::string(name) +
                           "' (expected full|incremental)");
}

std::string_view provider_mode_name(provider_mode mode) {
  switch (mode) {
    case provider_mode::full:
      return "full";
    case provider_mode::incremental:
      return "incremental";
  }
  throw precondition_error("invalid provider_mode value");
}

utility_provider::utility_provider(topology::game_params params,
                                   provider_options options)
    : params_(params),
      options_(options),
      lanes_(options.threads != 0
                 ? options.threads
                 : std::max(1u, std::thread::hardware_concurrency())) {
  params_.validate();
  LCG_EXPECTS(options_.pivots > 0);
}

utility_provider::~utility_provider() = default;

void utility_provider::set_player_params(
    std::vector<core::cost_params> per_player) {
  for (const core::cost_params& p : per_player) p.validate();
  per_player_ = std::move(per_player);
}

graph::betweenness_options utility_provider::backend_for(
    std::size_t n) const {
  graph::betweenness_options backend;
  backend.threads = options_.threads;
  if (n <= options_.exact_threshold) {
    backend.backend = graph::betweenness_backend::parallel;
  } else {
    backend.backend = graph::betweenness_backend::sampled;
    backend.sample_pivots = options_.pivots;
    backend.rng_seed = options_.seed;
  }
  return backend;
}

std::vector<double> utility_provider::node_scores(
    const graph::digraph& g) const {
  const std::size_t n = g.node_count();
  const graph::betweenness_options backend = backend_for(n);
  const graph::source_plan plan = graph::betweenness_source_plan(n, backend);
  stats_.full_sweeps += plan.sources.size();
  // Every row the sweep reads is built here, on the calling thread, before
  // the backend's workers start; they only read them.
  dist::sender_rows ranking(params_.basis, active_, rank_masses(n));
  ranking.assign(graph::in_degrees(g));
  std::vector<double> rows(plan.sources.size() * n);
  ranking.rows(g, plan.sources, rows);
  std::vector<const double*> row_of(n, nullptr);
  for (std::size_t i = 0; i < plan.sources.size(); ++i)
    row_of[plan.sources[i]] = rows.data() + i * n;
  const graph::betweenness_result bw = graph::weighted_betweenness(
      graph::freeze(g),
      [&row_of](graph::node_id s, graph::node_id t) { return row_of[s][t]; },
      backend, &lanes_);
  return bw.node;
}

}  // namespace lcg::arena
