#include "graph/betweenness.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "graph/csr.h"
#include "graph/traversal.h"
#include "obs/registry.h"
#include "util/lanes.h"
#include "util/rng.h"

namespace lcg::graph {

namespace {

/// One source's complete Brandes contribution, computed independently of
/// every other source. `delta[v]` is the node dependency (delta[source] is
/// forced to 0), `edge` holds at most one entry per edge id. Buffers are
/// reused across sources to avoid reallocation.
struct source_contribution {
  node_id source = invalid_node;
  std::vector<double> delta;
  std::vector<std::pair<edge_id, double>> edge;
};

/// The Brandes backward accumulation over a (possibly cached) DAG: the ONE
/// place the per-source float operation sequence lives. Both the full-sweep
/// engine (compute_contribution) and the public source_dependencies entry
/// run exactly this, which is what makes DAG-reuse bitwise-equal. The DAG's
/// pred lists hold packed edge ids of `c` (shortest_path_dag(c, s)).
void accumulate_over_dag(const csr_graph& c, const sp_dag& dag, node_id s,
                         const pair_weight_fn& w,
                         std::vector<std::pair<edge_id, double>>* edge_out,
                         std::vector<double>& delta) {
  // Process vertices in order of non-increasing distance from s.
  for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
    const node_id v = *it;
    if (v == s) continue;
    const double through = w(s, v) + delta[v];
    for (const edge_id k : dag.pred[v]) {
      const node_id u = c.edge_src(k);
      const double contribution = dag.sigma[u] / dag.sigma[v] * through;
      // Each packed edge appears in at most one pred list, once, so this is
      // the single addition its original slot receives from source s.
      if (edge_out) edge_out->emplace_back(c.edge_slot(k), contribution);
      delta[u] += contribution;
    }
  }
  delta[s] = 0.0;  // dependency of a source on itself is not betweenness
}

/// Runs the Brandes backward accumulation for one source into `out`.
/// `want_edges` == false skips the per-edge recording (node-only queries).
/// `dag` is the lane's sweep scratch, re-filled in place so a lane's
/// sweeps after its first allocate nothing.
void compute_contribution(const csr_graph& c, node_id s,
                          const pair_weight_fn& w, bool want_edges,
                          source_contribution& out, sp_dag& dag) {
  out.source = s;
  out.delta.assign(c.node_count(), 0.0);
  out.edge.clear();
  shortest_path_dag(c, s, dag);
  accumulate_over_dag(c, dag, s, w, want_edges ? &out.edge : nullptr,
                      out.delta);
}

/// Adds `scale * contribution` into the accumulators. Per element this is
/// exactly one addition per source, in whatever order merge() is called —
/// the engine below always calls it in ascending source order, which makes
/// every backend's addition sequence per element identical to serial's.
void merge(const source_contribution& c, double scale,
           std::vector<double>* node_acc, std::vector<double>* edge_acc) {
  if (node_acc) {
    for (node_id v = 0; v < c.delta.size(); ++v) {
      if (v != c.source) (*node_acc)[v] += scale * c.delta[v];
    }
  }
  if (edge_acc) {
    for (const auto& [e, contribution] : c.edge) {
      (*edge_acc)[e] += scale * contribution;
    }
  }
}

std::size_t effective_threads(const betweenness_options& options,
                              std::size_t source_count) {
  if (options.backend == betweenness_backend::serial) return 1;
  std::size_t threads = options.threads != 0
                            ? options.threads
                            : std::max(1u, std::thread::hardware_concurrency());
  return std::max<std::size_t>(std::min(threads, source_count), 1);
}

/// The engine shared by every backend: sweep the given sources (ascending)
/// and accumulate `scale` times each contribution. The sources run in
/// bounded chunks: each chunk's contributions are computed on the lanes,
/// one slot per source, then merged by the caller in ascending source
/// order, so the result is bit-identical at every lane count and peak
/// memory stays at one chunk of per-source buffers. A lane's exception
/// rethrows here (lane_pool::run) before its chunk is merged.
void run_sweeps(const csr_graph& c, const std::vector<node_id>& sources,
                const pair_weight_fn& w, double scale, lane_pool& lanes,
                std::vector<double>* node_acc, std::vector<double>* edge_acc) {
  const bool want_edges = edge_acc != nullptr;
  const std::size_t chunk = lanes.lanes() == 1 ? 1 : lanes.lanes() * 8;
  std::vector<source_contribution> slots(std::min(chunk, sources.size()));
  std::vector<sp_dag> dags(lanes.lanes());
  for (std::size_t begin = 0; begin < sources.size(); begin += chunk) {
    const std::size_t end = std::min(begin + chunk, sources.size());
    lanes.run(end - begin, [&](std::size_t lane, std::size_t i) {
      compute_contribution(c, sources[begin + i], w, want_edges, slots[i],
                           dags[lane]);
    });
    for (std::size_t i = begin; i < end; ++i)
      merge(slots[i - begin], scale, node_acc, edge_acc);
  }
}

/// Sources and unbiased rescaling factor for one computation: the full
/// ascending id range for exact backends, a sorted pivot sample for the
/// sampled backend. `skip` (if valid) is excluded from the population.
std::pair<std::vector<node_id>, double> select_sources(
    std::size_t n, const betweenness_options& options, node_id skip) {
  std::vector<node_id> population;
  population.reserve(n);
  for (node_id s = 0; s < n; ++s) {
    if (s != skip) population.push_back(s);
  }
  const std::size_t k = options.sample_pivots;
  if (options.backend != betweenness_backend::sampled || k == 0 ||
      k >= population.size()) {
    return {std::move(population), 1.0};
  }
  // Partial Fisher–Yates over the population, then sort so that merging
  // happens in ascending source order (and k == |population| would be the
  // identity permutation, i.e. exact).
  rng gen(options.rng_seed);
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(gen.uniform_int(
        static_cast<std::int64_t>(i),
        static_cast<std::int64_t>(population.size()) - 1));
    std::swap(population[i], population[j]);
  }
  population.resize(k);
  std::sort(population.begin(), population.end());
  const double scale =
      static_cast<double>(n - (skip == invalid_node ? 0 : 1)) /
      static_cast<double>(k);
  return {std::move(population), scale};
}

}  // namespace

betweenness_backend betweenness_backend_from_name(std::string_view name) {
  if (name == "serial") return betweenness_backend::serial;
  if (name == "parallel") return betweenness_backend::parallel;
  if (name == "sampled") return betweenness_backend::sampled;
  throw precondition_error("unknown betweenness backend '" +
                           std::string(name) +
                           "' (expected serial|parallel|sampled)");
}

std::string_view betweenness_backend_name(betweenness_backend backend) {
  switch (backend) {
    case betweenness_backend::serial:
      return "serial";
    case betweenness_backend::parallel:
      return "parallel";
    case betweenness_backend::sampled:
      return "sampled";
  }
  throw precondition_error("invalid betweenness_backend value");
}

std::vector<node_id> sample_betweenness_pivots(std::size_t n, std::size_t k,
                                               std::uint64_t seed) {
  betweenness_options options;
  options.backend = betweenness_backend::sampled;
  options.sample_pivots = k;
  options.rng_seed = seed;
  return select_sources(n, options, invalid_node).first;
}

namespace {

/// Per-backend obs mirror of how many sources a computation sweeps —
/// the observable cost unit of the whole engine (PR 7's one-off ledger
/// generalised). One relaxed load when obs is disabled.
void count_swept_sources(betweenness_backend backend, std::size_t sources) {
  if (!obs::enabled()) return;
  static obs::counter& serial =
      obs::registry::global().get_counter("graph/sweep_source_serial");
  static obs::counter& parallel =
      obs::registry::global().get_counter("graph/sweep_source_parallel");
  static obs::counter& sampled =
      obs::registry::global().get_counter("graph/sweep_source_sampled");
  switch (backend) {
    case betweenness_backend::serial:
      serial.add(sources);
      break;
    case betweenness_backend::parallel:
      parallel.add(sources);
      break;
    case betweenness_backend::sampled:
      sampled.add(sources);
      break;
  }
}

}  // namespace

betweenness_result weighted_betweenness(const csr_graph& c,
                                        const pair_weight_fn& w,
                                        const betweenness_options& options,
                                        lane_pool* lanes) {
  betweenness_result result;
  result.node.assign(c.node_count(), 0.0);
  result.edge.assign(c.edge_slots(), 0.0);
  auto [sources, scale] = select_sources(c.node_count(), options, invalid_node);
  count_swept_sources(options.backend, sources.size());
  if (lanes) {
    run_sweeps(c, sources, w, scale, *lanes, &result.node, &result.edge);
  } else {
    lane_pool call_lanes(effective_threads(options, sources.size()));
    run_sweeps(c, sources, w, scale, call_lanes, &result.node, &result.edge);
  }
  return result;
}

betweenness_result betweenness(const csr_graph& c) {
  return weighted_betweenness(c, [](node_id, node_id) { return 1.0; });
}

double node_betweenness_of(const csr_graph& c, node_id u,
                           const pair_weight_fn& w,
                           const betweenness_options& options) {
  LCG_EXPECTS(c.has_node(u));
  std::vector<double> node_acc(c.node_count(), 0.0);
  // Pairs with source u are not routed *through* u, so u is excluded from
  // the source population (and from the sampled pivot pool).
  auto [sources, scale] = select_sources(c.node_count(), options, u);
  count_swept_sources(options.backend, sources.size());
  lane_pool lanes(effective_threads(options, sources.size()));
  run_sweeps(c, sources, w, scale, lanes, &node_acc, nullptr);
  return node_acc[u];
}

betweenness_result weighted_betweenness(const digraph& g,
                                        const pair_weight_fn& w,
                                        const betweenness_options& options) {
  return weighted_betweenness(freeze(g), w, options);
}

betweenness_result betweenness(const digraph& g) {
  return betweenness(freeze(g));
}

double node_betweenness_of(const digraph& g, node_id u,
                           const pair_weight_fn& w,
                           const betweenness_options& options) {
  return node_betweenness_of(freeze(g), u, w, options);
}

source_plan betweenness_source_plan(std::size_t n,
                                    const betweenness_options& options,
                                    node_id skip) {
  auto [sources, scale] = select_sources(n, options, skip);
  return source_plan{std::move(sources), scale};
}

void source_dependencies(const csr_graph& c, const sp_dag& dag, node_id s,
                         const pair_weight_fn& w, std::vector<double>& delta) {
  delta.assign(c.node_count(), 0.0);
  accumulate_over_dag(c, dag, s, w, nullptr, delta);
}

double separator_dependency(std::span<const std::int32_t> dist,
                            std::span<const double> sigma,
                            std::int32_t dist_su, double sigma_su,
                            std::span<const std::int32_t> dist_ut,
                            std::span<const double> sigma_ut,
                            std::span<const double> w) {
  if (dist_su == unreachable) return 0.0;
  double delta = 0.0;
  for (std::size_t t = 0; t < w.size(); ++t) {
    if (dist_ut[t] == unreachable) continue;
    // t == u is skipped above (dist_ut[u] is unreachable), and t == s
    // never counts: d_minus(s, s) == 0 < via.
    const std::int32_t via = dist_su + dist_ut[t];
    const std::int32_t direct = dist[t];
    if (direct == unreachable || via < direct) {
      delta += w[t];  // every shortest s -> t path passes u
    } else if (via == direct) {
      const double through = sigma_su * sigma_ut[t];
      delta += w[t] * (through / (sigma[t] + through));
    }
  }
  return delta;
}

namespace {

/// delta_s(u) accumulated over the cone sweep_dependency staged in
/// `scratch`; O(cone edges). This is accumulate_over_dag's float sequence
/// restricted to the cone: the ratio is its sigma[pred] / sigma[v], taken
/// before the multiplication there (DESIGN.md §8.5).
double cone_dependency(cone_scratch& scratch, std::span<const double> w) {
  const std::size_t k = scratch.cone_node.size();
  if (k < 2) return 0.0;  // u unreachable, or no shortest path leaves it
  std::vector<double>& delta = scratch.delta;
  delta.assign(k, 0.0);
  for (std::size_t i = k; i-- > 1;) {
    const double through = w[scratch.cone_node[i]] + delta[i];
    for (std::uint32_t j = scratch.cone_offset[i];
         j < scratch.cone_offset[i + 1]; ++j) {
      delta[scratch.cone_pred[j]] += scratch.cone_ratio[j] * through;
    }
  }
  return delta[0];
}

}  // namespace

double sweep_dependency(const csr_graph& c, node_id s, node_id u,
                        std::span<const double> w, cone_scratch& scratch) {
  LCG_EXPECTS(c.has_node(s) && c.has_node(u) && s != u);
  constexpr std::int32_t unmarked = -2;  // first[v]: v not in {u} + cone
  constexpr std::int32_t empty = -1;     // first[v]: marked, nothing staged
  cone_scratch& x = scratch;
  const std::size_t n = c.node_count();
  // dist, sigma and first are all-unreachable / 0 / unmarked between calls:
  // only the nodes a sweep discovers are touched, and those are reset below.
  if (x.dist.size() != n) {
    x.dist.assign(n, unreachable);
    x.sigma.assign(n, 0.0);
    x.first.assign(n, unmarked);
  }
  x.order.clear();
  x.next.clear();
  x.tail.clear();
  x.cone_node.clear();
  x.cone_pred.clear();
  x.cone_ratio.clear();
  x.cone_offset.assign(1, 0);

  x.dist[s] = 0;
  x.sigma[s] = 1.0;
  x.order.push_back(s);
  x.first[u] = empty;
  std::size_t pending = 1;  // marked nodes not yet dequeued (u to start)
  for (std::size_t head = 0; head < x.order.size(); ++head) {
    const node_id v = x.order[head];
    const bool marked = x.first[v] != unmarked;
    std::uint32_t local = 0;
    if (marked) {
      // Every in-edge of v from u or the cone is staged and every pred's
      // sigma is final by now, so v's cone entry is complete.
      local = static_cast<std::uint32_t>(x.cone_node.size());
      x.cone_node.push_back(v);
      for (std::int32_t e = x.first[v]; e != empty; e = x.next[e]) {
        const std::uint32_t t = x.tail[e];
        x.cone_pred.push_back(t);
        x.cone_ratio.push_back(x.sigma[x.cone_node[t]] / x.sigma[v]);
      }
      x.cone_offset.push_back(
          static_cast<std::uint32_t>(x.cone_pred.size()));
    }
    for (csr_graph::packed_id k = c.row_begin(v); k < c.row_end(v); ++k) {
      const node_id t = c.edge_dst(k);
      if (x.dist[t] == unreachable) {
        x.dist[t] = x.dist[v] + 1;
        x.order.push_back(t);
      }
      if (x.dist[t] != x.dist[v] + 1) continue;
      x.sigma[t] += x.sigma[v];
      if (!marked) continue;
      if (x.first[t] == unmarked) {
        x.first[t] = empty;
        ++pending;
      }
      x.next.push_back(x.first[t]);
      x.tail.push_back(local);
      x.first[t] = static_cast<std::int32_t>(x.next.size() - 1);
    }
    if (marked && --pending == 0) break;
  }
  for (const node_id v : x.order) {
    x.dist[v] = unreachable;
    x.sigma[v] = 0.0;
    x.first[v] = unmarked;
  }
  x.first[u] = unmarked;  // u itself may be unreachable
  return cone_dependency(x, w);
}

betweenness_result weighted_betweenness_naive(const digraph& g,
                                              const pair_weight_fn& w) {
  const std::size_t n = g.node_count();

  // Reverse graph with identical edge ids, for path counts *into* targets.
  digraph reversed(n);
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    const edge& ed = g.edge_at(e);
    // add in id order so reversed edge ids line up 1:1 with g's
    const edge_id re = reversed.add_edge(ed.dst, ed.src, ed.capacity);
    LCG_ENSURES(re == e);
    if (!ed.active) reversed.remove_edge(re);
  }

  std::vector<sp_dag> fwd, bwd;
  fwd.reserve(n);
  bwd.reserve(n);
  for (node_id v = 0; v < n; ++v) {
    fwd.push_back(shortest_path_dag(g, v));
    bwd.push_back(shortest_path_dag(reversed, v));
  }

  betweenness_result result;
  result.node.assign(n, 0.0);
  result.edge.assign(g.edge_slots(), 0.0);

  for (node_id s = 0; s < n; ++s) {
    for (node_id t = 0; t < n; ++t) {
      // Unreachable pairs (and the degenerate s == t pair) contribute
      // nothing; zero-weight pairs are skipped so they add exactly 0.0.
      if (s == t || fwd[s].dist[t] == unreachable) continue;
      const double weight = w(s, t);
      if (weight == 0.0) continue;
      const double total_paths = fwd[s].sigma[t];
      const std::int32_t d = fwd[s].dist[t];
      // Nodes strictly inside some shortest s->t path.
      for (node_id v = 0; v < n; ++v) {
        if (v == s || v == t) continue;
        if (fwd[s].dist[v] == unreachable || bwd[t].dist[v] == unreachable)
          continue;
        if (fwd[s].dist[v] + bwd[t].dist[v] == d) {
          result.node[v] +=
              weight * fwd[s].sigma[v] * bwd[t].sigma[v] / total_paths;
        }
      }
      // Edges on some shortest s->t path (first/last hop included).
      for (edge_id e = 0; e < g.edge_slots(); ++e) {
        if (!g.edge_active(e)) continue;
        const edge& ed = g.edge_at(e);
        if (fwd[s].dist[ed.src] == unreachable ||
            bwd[t].dist[ed.dst] == unreachable)
          continue;
        if (fwd[s].dist[ed.src] + 1 + bwd[t].dist[ed.dst] == d) {
          result.edge[e] +=
              weight * fwd[s].sigma[ed.src] * bwd[t].sigma[ed.dst] / total_paths;
        }
      }
    }
  }
  return result;
}

}  // namespace lcg::graph
