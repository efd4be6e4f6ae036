#include "arena/provider.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dist/zipf.h"
#include "graph/csr.h"
#include "graph/traversal.h"
#include "obs/registry.h"
#include "util/error.h"

namespace lcg::arena {

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Mirror of sweep_stats::full_sweeps (provider.h): the per-run ledger
/// stays the API, the obs counter aggregates process-wide.
obs::counter& full_sweep_counter() {
  static obs::counter& c =
      obs::registry::global().get_counter("arena/sweep_full");
  return c;
}

}  // namespace

double fees_of(const std::vector<double>& p_row,
               const std::vector<std::int32_t>& dist, graph::node_id u,
               double a) {
  double total = 0.0;
  for (graph::node_id v = 0; v < p_row.size(); ++v) {
    if (v == u || p_row[v] <= 0.0) continue;
    if (dist[v] == graph::unreachable) return inf;
    total += static_cast<double>(std::max<std::int32_t>(dist[v] - 1, 0)) *
             p_row[v];
  }
  return a * total;
}

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

namespace {

/// Sources one computation sweeps: |population| for exact backends,
/// min(pivots, |population|) for the sampled one (population excludes the
/// skipped node, matching graph/betweenness.cpp's select_sources).
std::uint64_t swept_sources(const graph::betweenness_options& options,
                            std::size_t population) {
  if (options.backend == graph::betweenness_backend::sampled &&
      options.sample_pivots > 0 && options.sample_pivots < population) {
    return options.sample_pivots;
  }
  return population;
}

}  // namespace

topology::utility_breakdown utility_provider::evaluate(
    const graph::digraph& g, graph::node_id u) const {
  LCG_EXPECTS(g.has_node(u));
  ++evaluations_;
  const graph::betweenness_options backend = backend_for(g.node_count());
  const std::uint64_t swept = swept_sources(backend, g.node_count() - 1);
  stats_.full_sweeps += swept;
  full_sweep_counter().add(swept);
  const lazy_prob_rows rows(g, rank_masses(g.node_count()), params_.basis,
                           active_);
  // One O(n + m) freeze buys the whole sweep flat-array locality; the frozen
  // view is bitwise-equivalent to the adjacency path on every backend, so
  // every pinned result upstream is unchanged.
  const graph::csr_graph frozen = graph::freeze(g);
  topology::utility_breakdown out;
  out.revenue =
      b_of(u) *
      graph::node_betweenness_of(
          frozen, u,
          [&rows](graph::node_id s, graph::node_id t) { return rows.row(s)[t]; },
          backend);
  out.fees =
      fees_of(rows.row(u), graph::bfs_distances(frozen, u), u, a_of(u));
  out.cost =
      l_of(u) * params_.cost_share * static_cast<double>(g.out_degree(u));
  out.total = std::isinf(out.fees) ? -inf : out.revenue - out.fees - out.cost;
  return out;
}

std::vector<double> utility_provider::node_scores(
    const graph::digraph& g) const {
  const graph::betweenness_options backend = backend_for(g.node_count());
  const std::uint64_t swept = swept_sources(backend, g.node_count());
  stats_.full_sweeps += swept;
  full_sweep_counter().add(swept);
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
