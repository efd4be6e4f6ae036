#include "arena/provider.h"

#include "graph/csr.h"
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
    : params_(params), options_(options) {
  params_.validate();
  LCG_EXPECTS(options_.pivots > 0);
}

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
  const graph::betweenness_options backend = backend_for(g.node_count());
  stats_.full_sweeps +=
      graph::betweenness_source_plan(g.node_count(), backend).sources.size();
  const lazy_prob_rows rows(g, rank_masses(g.node_count()), params_.basis,
                           active_);
  const graph::csr_graph frozen = graph::freeze(g);
  const graph::betweenness_result bw = graph::weighted_betweenness(
      frozen,
      [&rows](graph::node_id s, graph::node_id t) { return rows.row(s)[t]; },
      backend);
  return bw.node;
}

}  // namespace lcg::arena
