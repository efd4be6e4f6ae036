// Weighted node and edge betweenness centrality (Brandes' algorithm),
// behind a pluggable multi-backend engine.
//
// Eq. (2) of the paper defines the probability that a directed edge carries
// a transaction as the edge betweenness weighted by the probability of each
// (sender, receiver) pair transacting:
//
//   p_e = sum_{s != r, m(s,r) > 0} me(s,r)/m(s,r) * p_trans(s,r)
//
// and Section IV expresses a node's expected routing revenue through the
// analogous node betweenness (pairs for which the node is an intermediary).
// Both are computed here by a single-pass Brandes sweep generalised with a
// per-pair weight function w(s,t):
//
//   node[v]  = sum_{s != t, v not in {s,t}} w(s,t) * m_v(s,t) / m(s,t)
//   edge[e]  = sum_{s != t}                 w(s,t) * m_e(s,t) / m(s,t)
//
// (edge betweenness counts the path's first and last hop as well, exactly as
// Eq. (2) requires; node betweenness excludes endpoints, as the revenue
// definition requires).
//
// One engine: every sweep runs over a frozen csr_graph (graph/csr.h). The
// digraph overloads below freeze their argument and forward; freeze keeps
// each node's active out-edge order, so a digraph call and a call on its
// frozen view execute the identical float operation sequence.
//
// Invariants shared by every backend and by the naive reference (pinned by
// tests/graph_betweenness_property_test.cpp):
//
//  * Self-loop-free input: digraph::add_edge forbids self-loops, so no
//    backend needs (or has) a u == v guard; a pair (s, s) never contributes.
//  * Unreachable pairs contribute nothing: a pair (s, t) with no s -> t path
//    adds 0 to every node and edge (the naive reference skips them, the
//    Brandes sweep never visits t from s).
//  * Zero-weight pairs contribute nothing: w(s, t) == 0 adds exactly 0.0
//    (never -0.0 or NaN) to every accumulator, so sparse weight matrices and
//    "exclude this node" masks are safe.
//  * Inactive edge slots stay exactly 0 in `edge` and are never traversed.
//  * Per ordered pair (source, element) at most ONE addition reaches each
//    accumulator element. This is what makes the parallel backend bit-exact:
//    contributions can be computed out of order and merged back in source
//    order, reproducing the serial addition sequence per element.
//
// Backends (betweenness_options::backend):
//
//  * serial    — the reference single-thread sweep, sources 0..n-1 in order.
//  * parallel  — sources are partitioned across a thread pool; per-source
//                contributions are merged into the accumulators in ascending
//                source order, so the result is BIT-IDENTICAL to serial for
//                any thread count.
//  * sampled   — the Brandes–Pich pivot estimator: k sources drawn uniformly
//                without replacement from a splitmix64-seeded stream
//                (util/rng.h, the executor's seeding scheme) and rescaled by
//                n/k, which makes the estimator unbiased. Pivots are sorted,
//                so sample_pivots >= n degenerates to the exact result
//                (bit-identical to serial). Honors `threads` like parallel.
//
// Complexity: O(|sources| * (n + m)) time for unweighted (hop-count)
// shortest paths; with all n sources this matches the O(n^2) estimation cost
// claimed in II-B for sparse graphs, and the sampled backend reduces it to
// O(k * (n + m)) for 10^4-node hosts.

#ifndef LCG_GRAPH_BETWEENNESS_H
#define LCG_GRAPH_BETWEENNESS_H

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/digraph.h"

namespace lcg::graph {

/// Weight of the ordered pair (s, t); typically N_s * p_trans(s, t).
using pair_weight_fn = std::function<double(node_id s, node_id t)>;

struct betweenness_result {
  std::vector<double> node;  // indexed by node_id
  std::vector<double> edge;  // indexed by edge_id (inactive edges: 0)
};

enum class betweenness_backend { serial, parallel, sampled };

/// How a betweenness computation runs; the default is the exact serial
/// reference. Every layer above (pcn/rates, core/rate_estimator, runner
/// scenarios, bench_betweenness) forwards one of these.
struct betweenness_options {
  betweenness_backend backend = betweenness_backend::serial;
  /// Worker threads for parallel/sampled; 0 = hardware concurrency.
  /// Ignored (always 1) by the serial backend. Never changes results.
  std::size_t threads = 0;
  /// Sampled backend: number of pivot sources k. 0 or >= n means exact
  /// (all sources). Ignored by serial/parallel.
  std::size_t sample_pivots = 0;
  /// Sampled backend: seed of the pivot stream (splitmix64-expanded).
  std::uint64_t rng_seed = 0;
};

/// Parses "serial" / "parallel" / "sampled"; throws precondition_error on
/// anything else (scenario and CLI parameter surface).
[[nodiscard]] betweenness_backend betweenness_backend_from_name(
    std::string_view name);
[[nodiscard]] std::string_view betweenness_backend_name(
    betweenness_backend backend);

/// The sampled backend's pivot set: k distinct node ids drawn uniformly
/// from {0..n-1} (partial Fisher–Yates over a splitmix64-seeded stream),
/// returned SORTED ascending. k >= n AND k == 0 both return all ids (k == 0
/// means "exact" throughout betweenness_options). Exposed so tests and
/// tooling can reproduce exactly which sources a weighted_betweenness
/// estimate used. Note: node_betweenness_of draws over the population with
/// the queried node removed, so its pivot set is NOT reproduced by this
/// helper.
[[nodiscard]] std::vector<node_id> sample_betweenness_pivots(
    std::size_t n, std::size_t k, std::uint64_t seed);

class csr_graph;  // graph/csr.h

/// Node and edge betweenness with per-pair weights, over active edges; the
/// multi-backend entry point (see the file comment for backend semantics;
/// the default options are the exact serial reference). `edge` is indexed
/// by ORIGINAL digraph edge id (csr_graph::edge_slot), inactive slots 0.
[[nodiscard]] betweenness_result weighted_betweenness(
    const csr_graph& c, const pair_weight_fn& w,
    const betweenness_options& options = {});

/// Unweighted betweenness (w == 1 for every ordered pair).
[[nodiscard]] betweenness_result betweenness(const csr_graph& c);

/// Weighted dependency accumulated at a single node `u` (pairs with either
/// endpoint equal to u contribute nothing: sources s == u are skipped, and
/// a target t == u only ever contributes to nodes strictly inside an s -> u
/// path, never to u itself). Same cost as the full sweep from all sources
/// except it skips source u and the final per-edge bookkeeping. The sampled
/// backend draws pivots from the n - 1 sources != u and rescales by
/// (n - 1)/k, keeping the estimator unbiased.
[[nodiscard]] double node_betweenness_of(
    const csr_graph& c, node_id u, const pair_weight_fn& w,
    const betweenness_options& options = {});

/// The same three entry points on a mutable digraph: freeze(g), then the
/// overload above. A caller sweeping one graph several times freezes once.
[[nodiscard]] betweenness_result weighted_betweenness(
    const digraph& g, const pair_weight_fn& w,
    const betweenness_options& options = {});
[[nodiscard]] betweenness_result betweenness(const digraph& g);
[[nodiscard]] double node_betweenness_of(
    const digraph& g, node_id u, const pair_weight_fn& w,
    const betweenness_options& options = {});

/// Quadratic-per-pair reference implementation used to validate the Brandes
/// sweep in tests. O(n^2 * m). Shares the invariants listed above.
[[nodiscard]] betweenness_result weighted_betweenness_naive(
    const digraph& g, const pair_weight_fn& w);

// --- Pricing one node's dependency (the arena evaluator's seam) ----------
//
// The arena's candidate evaluator (arena/incremental.h) prices a candidate
// by delta_s(u) alone, summed over the source plan below in ascending
// source order. Every candidate toggles only channels that touch u, so it
// first prices delta_s(u) with separator_dependency, from sweeps of G - u
// that all candidates share; only candidates that can still win run the
// exact kernel, sweep_dependency, which reproduces the full backward
// accumulation's delta_s(u) bit for bit (DESIGN.md §8.5).
// source_dependencies is the full accumulation itself, kept as the
// reference sweep_dependency is pinned against.

struct sp_dag;  // graph/traversal.h

/// The sources one betweenness computation sweeps, plus the unbiased
/// rescale applied to each contribution: the full ascending id range with
/// scale 1 for exact backends, a sorted pivot sample with scale
/// |population|/k for the sampled backend (population = n, or n - 1 when
/// `skip` is a valid node — the node_betweenness_of convention). This is
/// the exact source selection every entry point above uses.
struct source_plan {
  std::vector<node_id> sources;
  double scale = 1.0;
};
[[nodiscard]] source_plan betweenness_source_plan(
    std::size_t n, const betweenness_options& options,
    node_id skip = invalid_node);

/// Brandes backward accumulation for source `s` over a PRECOMPUTED DAG
/// (`dag` must be shortest_path_dag(c, s); its pred lists hold packed ids of
/// `c`). Writes the per-node dependency into `delta` (resized/zeroed;
/// delta[s] forced to 0). The float operation sequence is IDENTICAL to the
/// internal sweep engine's, so feeding a cached DAG whose bits match
/// shortest_path_dag(c, s) reproduces the full sweep's delta bit for bit.
void source_dependencies(const csr_graph& c, const sp_dag& dag, node_id s,
                         const pair_weight_fn& w, std::vector<double>& delta);

/// delta_s(u) through u as a separator (Brandes 2001's Bellman criterion).
/// `dist` and `sigma` are the hop distances and path counts from s in G - u
/// (u's edges removed). `dist_su` and `sigma_su` are d(s, u) and sigma(s, u)
/// in G (`unreachable` when no path exists). `dist_ut[t]` and `sigma_ut[t]`
/// are d(u, t) and sigma(u, t) in G, with dist_ut[u] == unreachable.
/// Returns the sum over t of w[t] * f(t), where f = 1 when
/// d(s,u) + d(u,t) < d_minus(s,t), f = sigma_su * sigma_ut /
/// (sigma_minus(s,t) + sigma_su * sigma_ut) when the two are equal, and 0
/// otherwise. This equals sweep_dependency in exact arithmetic but not in
/// its bits, so the arena uses it only as a filter with a margin. O(n).
[[nodiscard]] double separator_dependency(
    std::span<const std::int32_t> dist, std::span<const double> sigma,
    std::int32_t dist_su, double sigma_su,
    std::span<const std::int32_t> dist_ut, std::span<const double> sigma_ut,
    std::span<const double> w);

/// Buffers sweep_dependency reuses across calls; a warm scratch sweeps
/// without allocating. Holds no result between calls (dist, sigma and
/// first are reset where a sweep touched them); callers leave its fields
/// alone.
struct cone_scratch {
  std::vector<std::int32_t> dist;
  std::vector<double> sigma;
  std::vector<std::int32_t> first;  // per node: head of its staged in-edges
  std::vector<node_id> order;       // BFS FIFO
  std::vector<std::int32_t> next;   // staged in-edge chain
  std::vector<std::uint32_t> tail;  // staged in-edge tail (cone index)
  // u's cone: cone_node[0] == u, then the cone in BFS order; the in-edges
  // of cone_node[i] from u or a cone node are [cone_offset[i],
  // cone_offset[i + 1]) of cone_pred (tail's cone index) and cone_ratio
  // (sigma[tail] / sigma[node]).
  std::vector<node_id> cone_node;
  std::vector<std::uint32_t> cone_offset;
  std::vector<std::uint32_t> cone_pred;
  std::vector<double> cone_ratio;
  std::vector<double> delta;
};

/// delta_s(u) from a fresh sweep of `c` (s != u), where w[t] == w(s, t) is
/// the sender's weight row: a BFS for dist, sigma and order that stages
/// only the DAG edges leaving u or a node of u's dependency cone, and stops
/// once u and every cone node have been dequeued; then the backward
/// accumulation over the cone alone. Bitwise equal to
/// source_dependencies(c, shortest_path_dag(c, s), s, w)[u].
[[nodiscard]] double sweep_dependency(const csr_graph& c, node_id s,
                                      node_id u, std::span<const double> w,
                                      cone_scratch& scratch);

}  // namespace lcg::graph

#endif  // LCG_GRAPH_BETWEENNESS_H
