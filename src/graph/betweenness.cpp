#include "graph/betweenness.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>

#include "graph/csr.h"
#include "graph/traversal.h"
#include "obs/registry.h"
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

// The sweep engine below is templated over a uniform adjacency VIEW so the
// mutable digraph and the frozen CSR snapshot (graph/csr.h) run the exact
// same code — and therefore the exact same float operation sequence, which
// is what makes frozen-view results bitwise equal to adjacency-list ones.
// A view's edge KEY is the digraph edge id / the CSR packed index;
// result_slot() maps a key to the per-edge accumulator slot (identity /
// the original digraph edge id), so both paths emit one output layout.

struct digraph_sweep_view {
  const digraph& g;
  [[nodiscard]] std::size_t node_count() const { return g.node_count(); }
  [[nodiscard]] node_id src_of(edge_id e) const { return g.edge_at(e).src; }
  [[nodiscard]] edge_id result_slot(edge_id e) const { return e; }
  void dag(node_id s, sp_dag& out) const { shortest_path_dag(g, s, out); }
};

struct csr_sweep_view {
  const csr_graph& c;
  [[nodiscard]] std::size_t node_count() const { return c.node_count(); }
  [[nodiscard]] node_id src_of(csr_graph::packed_id k) const {
    return c.edge_src(k);
  }
  [[nodiscard]] edge_id result_slot(csr_graph::packed_id k) const {
    return c.edge_slot(k);
  }
  void dag(node_id s, sp_dag& out) const { shortest_path_dag(c, s, out); }
};

/// The Brandes backward accumulation over a (possibly cached) DAG: the ONE
/// place the per-source float operation sequence lives. Both the full-sweep
/// engine (compute_contribution) and the public source_dependencies entry
/// run exactly this, which is what makes DAG-reuse bitwise-equal. The DAG's
/// pred lists hold the view's edge keys (shortest_path_dag of the matching
/// graph representation).
template <typename View>
void accumulate_over_dag(const View& view, const sp_dag& dag, node_id s,
                         const pair_weight_fn& w,
                         std::vector<std::pair<edge_id, double>>* edge_out,
                         std::vector<double>& delta) {
  // Process vertices in order of non-increasing distance from s.
  for (auto it = dag.order.rbegin(); it != dag.order.rend(); ++it) {
    const node_id v = *it;
    if (v == s) continue;
    const double through = w(s, v) + delta[v];
    for (const edge_id e : dag.pred[v]) {
      const node_id u = view.src_of(e);
      const double contribution = dag.sigma[u] / dag.sigma[v] * through;
      // Each edge key appears in exactly one pred list at most once, so
      // this is the single addition its slot receives from source s.
      if (edge_out) edge_out->emplace_back(view.result_slot(e), contribution);
      delta[u] += contribution;
    }
  }
  delta[s] = 0.0;  // dependency of a source on itself is not betweenness
}

/// Runs the Brandes backward accumulation for one source into `out`.
/// `want_edges` == false skips the per-edge recording (node-only queries).
/// `dag` is the calling thread's sweep scratch, re-filled in place so a
/// thread's sweeps after its first allocate nothing.
template <typename View>
void compute_contribution(const View& view, node_id s,
                          const pair_weight_fn& w, bool want_edges,
                          source_contribution& out, sp_dag& dag) {
  out.source = s;
  out.delta.assign(view.node_count(), 0.0);
  out.edge.clear();
  view.dag(s, dag);
  accumulate_over_dag(view, dag, s, w, want_edges ? &out.edge : nullptr,
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
  return std::min(std::max<std::size_t>(threads, 1), source_count);
}

/// The engine shared by every backend: sweep the given sources (ascending)
/// and accumulate `scale` times each contribution. With threads > 1 the
/// sources are processed in bounded chunks — each chunk's contributions are
/// computed concurrently, then merged in source order — so the result is
/// bit-identical to the threads == 1 path.
template <typename View>
void run_sweeps(const View& view, const std::vector<node_id>& sources,
                const pair_weight_fn& w, double scale, std::size_t threads,
                std::vector<double>* node_acc, std::vector<double>* edge_acc) {
  const bool want_edges = edge_acc != nullptr;
  if (threads <= 1) {
    source_contribution c;
    sp_dag dag;
    for (const node_id s : sources) {
      compute_contribution(view, s, w, want_edges, c, dag);
      merge(c, scale, node_acc, edge_acc);
    }
    return;
  }

  // Chunked two-phase schedule over one persistent pool: each chunk's
  // contributions are computed concurrently, then merged by this thread in
  // ascending source order while the workers wait at a barrier. Bounds peak
  // memory to chunk_size per-source buffers without respawning threads per
  // chunk. A worker exception is captured, the remaining work is skipped
  // (workers keep the barrier cadence so nothing deadlocks), and the first
  // exception rethrows on the caller's thread — the same observable
  // behaviour as the serial backend.
  const std::size_t chunk_size = threads * 8;
  std::vector<source_contribution> slots(
      std::min(chunk_size, sources.size()));
  const std::size_t chunks = (sources.size() + chunk_size - 1) / chunk_size;
  std::atomic<std::size_t> cursor{0};
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;
  std::barrier sync(static_cast<std::ptrdiff_t>(threads) + 1);

  const auto worker = [&]() {
    sp_dag dag;
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t begin = chunk * chunk_size;
      const std::size_t end = std::min(begin + chunk_size, sources.size());
      try {
        while (!failed.load(std::memory_order_relaxed)) {
          const std::size_t i = cursor.fetch_add(1, std::memory_order_relaxed);
          if (i >= end) break;
          compute_contribution(view, sources[i], w, want_edges,
                               slots[i - begin], dag);
        }
      } catch (...) {
        {
          const std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();  // chunk computed
      sync.arrive_and_wait();  // chunk merged (and cursor reset) below
    }
  };

  {
    std::vector<std::jthread> pool;
    pool.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::size_t chunk = 0; chunk < chunks; ++chunk) {
      const std::size_t begin = chunk * chunk_size;
      const std::size_t end = std::min(begin + chunk_size, sources.size());
      sync.arrive_and_wait();  // wait for the compute phase
      if (!failed.load(std::memory_order_relaxed)) {
        for (std::size_t i = begin; i < end; ++i) {
          merge(slots[i - begin], scale, node_acc, edge_acc);
        }
      }
      // Workers may have over-incremented the cursor racing past `end`;
      // rewind it before releasing them into the next chunk.
      cursor.store(end, std::memory_order_relaxed);
      sync.arrive_and_wait();  // release the workers
    }
  }  // join
  if (first_error) std::rethrow_exception(first_error);
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

/// Shared by the digraph and CSR entry points: the backend dispatch is
/// identical, only the adjacency view differs.
template <typename View>
betweenness_result weighted_betweenness_on(const View& view,
                                           std::size_t edge_slots,
                                           const pair_weight_fn& w,
                                           const betweenness_options& options) {
  betweenness_result result;
  result.node.assign(view.node_count(), 0.0);
  result.edge.assign(edge_slots, 0.0);
  auto [sources, scale] =
      select_sources(view.node_count(), options, invalid_node);
  count_swept_sources(options.backend, sources.size());
  run_sweeps(view, sources, w, scale,
             effective_threads(options, sources.size()), &result.node,
             &result.edge);
  return result;
}

template <typename View>
double node_betweenness_of_on(const View& view, node_id u,
                              const pair_weight_fn& w,
                              const betweenness_options& options) {
  std::vector<double> node_acc(view.node_count(), 0.0);
  // Pairs with source u are not routed *through* u, so u is excluded from
  // the source population (and from the sampled pivot pool).
  auto [sources, scale] = select_sources(view.node_count(), options, u);
  count_swept_sources(options.backend, sources.size());
  run_sweeps(view, sources, w, scale,
             effective_threads(options, sources.size()), &node_acc, nullptr);
  return node_acc[u];
}

}  // namespace

betweenness_result weighted_betweenness(const digraph& g,
                                        const pair_weight_fn& w,
                                        const betweenness_options& options) {
  return weighted_betweenness_on(digraph_sweep_view{g}, g.edge_slots(), w,
                                 options);
}

betweenness_result betweenness(const digraph& g) {
  return weighted_betweenness(g, [](node_id, node_id) { return 1.0; });
}

betweenness_result weighted_betweenness(const csr_graph& c,
                                        const pair_weight_fn& w,
                                        const betweenness_options& options) {
  return weighted_betweenness_on(csr_sweep_view{c}, c.edge_slots(), w,
                                 options);
}

betweenness_result betweenness(const csr_graph& c) {
  return weighted_betweenness(c, [](node_id, node_id) { return 1.0; });
}

double node_betweenness_of(const digraph& g, node_id u,
                           const pair_weight_fn& w,
                           const betweenness_options& options) {
  LCG_EXPECTS(g.has_node(u));
  return node_betweenness_of_on(digraph_sweep_view{g}, u, w, options);
}

double node_betweenness_of(const csr_graph& c, node_id u,
                           const pair_weight_fn& w,
                           const betweenness_options& options) {
  LCG_EXPECTS(c.has_node(u));
  return node_betweenness_of_on(csr_sweep_view{c}, u, w, options);
}

source_plan betweenness_source_plan(std::size_t n,
                                    const betweenness_options& options,
                                    node_id skip) {
  auto [sources, scale] = select_sources(n, options, skip);
  return source_plan{std::move(sources), scale};
}

void source_dependencies(const digraph& g, const sp_dag& dag, node_id s,
                         const pair_weight_fn& w, std::vector<double>& delta) {
  delta.assign(g.node_count(), 0.0);
  accumulate_over_dag(digraph_sweep_view{g}, dag, s, w, nullptr, delta);
}

bool toggle_affects_source(const std::vector<std::int32_t>& dist,
                           const edge_toggle& t) {
  const std::int32_t da = dist[t.src];
  const std::int32_t db = dist[t.dst];
  if (da == unreachable) return false;  // tail never reached: edge unscanned
  if (t.added) return db == unreachable || da + 1 <= db;
  return db == da + 1;  // removal: exactly the pred[dst] membership test
}

std::vector<double> through_fractions(const digraph& g, const sp_dag& dag,
                                      node_id u) {
  std::vector<double> frac(g.node_count(), 0.0);
  if (dag.dist[u] == unreachable) return frac;
  std::vector<double> psi(g.node_count(), 0.0);  // shortest paths via u
  psi[u] = dag.sigma[u];
  // Forward pass in non-decreasing distance: every pred of v is strictly
  // closer, so its psi is final when v is processed.
  for (const node_id v : dag.order) {
    if (v == u || dag.dist[v] <= dag.dist[u]) continue;
    double via = 0.0;
    for (const edge_id e : dag.pred[v]) via += psi[g.edge_at(e).src];
    psi[v] = via;
    if (via > 0.0) frac[v] = via / dag.sigma[v];
  }
  return frac;
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
