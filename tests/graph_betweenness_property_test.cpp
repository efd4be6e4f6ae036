// Randomized property-test harness for the multi-backend betweenness engine.
//
// This is the equivalence contract of graph/betweenness.h, exercised on a
// corpus of 50+ random and adversarial graphs (Erdős–Rényi incl. sparse
// disconnected ones, Barabási–Albert, hand-built edge cases) under mixed
// pair-weight schemes:
//
//   1. serial == weighted_betweenness_naive      (reference, 1e-9 rel/abs)
//   2. parallel == serial                        (BITWISE, any thread count)
//   3. sampled with k >= n == serial             (BITWISE, degenerate exact)
//   4. sampled with k < n == (n/k) * sum over the advertised pivot set
//                                                (the rescaled error bound)
//   5. E[sampled] == exact                       (unbiasedness, seed-averaged)
//   6. node_betweenness_of consistent with the full sweep across backends
//   7. the one BFS body: digraph, csr_graph and separator-row sweeps agree,
//      and its reversed and filtered views equal sweeps of materialised
//      reversed and filtered copies            (BITWISE, every source)
//
// plus the documented invariants: zero-weight pairs add exactly 0.0 (never
// -0.0/NaN), unreachable pairs contribute nothing, inactive edge slots stay
// exactly zero under every backend. All randomness is seeded; the test is
// fully deterministic.

#include "graph/betweenness.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "util/rng.h"

namespace lcg::graph {
namespace {

constexpr double kTol = 1e-9;

struct corpus_case {
  std::string name;
  digraph g;
  pair_weight_fn w;
};

/// Mixed weight schemes, cycling with the case index: unit, random,
/// sparse-masked (many exact zeros), and large-scale random weights.
pair_weight_fn make_weights(std::size_t scheme, std::size_t n,
                            std::uint64_t seed) {
  if (scheme % 4 == 0) {
    return [](node_id, node_id) { return 1.0; };
  }
  auto weights = std::make_shared<std::vector<double>>(n * n, 0.0);
  rng gen(seed * 0x9e3779b9ULL + scheme);
  for (double& w : *weights) w = gen.uniform01();
  if (scheme % 4 == 2) {
    // Sparse mask: exact zeros on a third of all ordered pairs.
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t t = 0; t < n; ++t) {
        if ((s + 2 * t) % 3 == 0) (*weights)[s * n + t] = 0.0;
      }
    }
  } else if (scheme % 4 == 3) {
    for (double& w : *weights) w *= 1000.0;
  }
  return [weights, n](node_id s, node_id t) {
    return (*weights)[static_cast<std::size_t>(s) * n + t];
  };
}

/// The 50+ graph corpus. Each case owns its (deterministic) weight scheme.
std::vector<corpus_case> build_corpus() {
  std::vector<corpus_case> corpus;
  std::size_t index = 0;
  const auto add = [&](std::string name, digraph g) {
    const std::size_t n = g.node_count();
    corpus.push_back({std::move(name), std::move(g),
                      make_weights(index, n, 7919 + index)});
    ++index;
  };

  // Erdős–Rényi across densities; p = 0.08 is usually disconnected with
  // isolated nodes at these sizes.
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    const std::size_t n = 6 + seed % 9;
    const double p = std::vector<double>{0.08, 0.2, 0.45, 0.9}[seed % 4];
    rng gen(seed);
    add("er n=" + std::to_string(n) + " p=" + std::to_string(p) +
            " seed=" + std::to_string(seed),
        erdos_renyi(n, p, gen));
  }
  // Barabási–Albert (always connected, heavy-tailed).
  for (std::uint64_t seed = 1; seed <= 18; ++seed) {
    const std::size_t attach = 1 + seed % 3;
    const std::size_t n = attach + 4 + seed % 12;
    rng gen(1000 + seed);
    add("ba n=" + std::to_string(n) + " attach=" + std::to_string(attach) +
            " seed=" + std::to_string(seed),
        barabasi_albert(n, attach, gen));
  }
  // Hand-built edge cases.
  add("single node", digraph(1));
  add("two nodes no edges", digraph(2));
  add("edgeless n=5", digraph(5));
  add("path 6", path_graph(6));
  add("star 5", star_graph(5));
  add("complete 5", complete_graph(5));
  {
    // Two disconnected components (path + triangle).
    digraph g(7);
    g.add_bidirectional(0, 1);
    g.add_bidirectional(1, 2);
    g.add_bidirectional(3, 4);
    g.add_bidirectional(4, 5);
    g.add_bidirectional(5, 3);
    add("two components + isolated node", std::move(g));
  }
  {
    // Inactive edge slots: remove the shortcut from a cycle-with-chord.
    digraph g = cycle_graph(6);
    const edge_id chord = g.add_bidirectional(0, 3);
    g.remove_edge(chord);
    g.remove_edge(chord + 1);
    add("cycle 6 with removed chord", std::move(g));
  }
  return corpus;
}

void expect_near_result(const betweenness_result& got,
                        const betweenness_result& want,
                        const std::string& context) {
  ASSERT_EQ(got.node.size(), want.node.size()) << context;
  ASSERT_EQ(got.edge.size(), want.edge.size()) << context;
  for (std::size_t v = 0; v < want.node.size(); ++v) {
    EXPECT_NEAR(got.node[v], want.node[v],
                kTol * std::max(1.0, std::abs(want.node[v])))
        << context << " node " << v;
  }
  for (std::size_t e = 0; e < want.edge.size(); ++e) {
    EXPECT_NEAR(got.edge[e], want.edge[e],
                kTol * std::max(1.0, std::abs(want.edge[e])))
        << context << " edge " << e;
  }
}

void expect_bitwise_result(const betweenness_result& got,
                           const betweenness_result& want,
                           const std::string& context) {
  // Vector operator== compares element-wise with double ==; a -0.0 vs 0.0
  // discrepancy would still pass here, so signbit is pinned separately in
  // the invariant tests below.
  EXPECT_TRUE(got.node == want.node && got.edge == want.edge) << context;
}

/// The exact contribution of a single source s: the full sweep under the
/// weight function restricted to pairs with that source.
betweenness_result single_source_contribution(const digraph& g, node_id s,
                                              const pair_weight_fn& w) {
  return weighted_betweenness(g, [&w, s](node_id a, node_id b) {
    return a == s ? w(a, b) : 0.0;
  });
}

TEST(BetweennessProperty, CorpusHasAtLeast50Graphs) {
  EXPECT_GE(build_corpus().size(), 50u);
}

TEST(BetweennessProperty, SerialMatchesNaiveReference) {
  for (const corpus_case& c : build_corpus()) {
    const betweenness_result fast = weighted_betweenness(c.g, c.w);
    const betweenness_result slow = weighted_betweenness_naive(c.g, c.w);
    expect_near_result(fast, slow, c.name);
  }
}

TEST(BetweennessProperty, ParallelIsBitIdenticalToSerial) {
  for (const corpus_case& c : build_corpus()) {
    const betweenness_result serial = weighted_betweenness(c.g, c.w);
    for (const std::size_t threads : {2u, 5u, 16u}) {
      betweenness_options options;
      options.backend = betweenness_backend::parallel;
      options.threads = threads;
      expect_bitwise_result(weighted_betweenness(c.g, c.w, options), serial,
                            c.name + " threads=" + std::to_string(threads));
    }
  }
}

TEST(BetweennessProperty, SampledWithAllPivotsIsExact) {
  for (const corpus_case& c : build_corpus()) {
    const betweenness_result serial = weighted_betweenness(c.g, c.w);
    betweenness_options options;
    options.backend = betweenness_backend::sampled;
    options.rng_seed = 12345;
    for (const std::size_t k :
         {c.g.node_count(), c.g.node_count() + 10, std::size_t{0}}) {
      options.sample_pivots = k;
      expect_bitwise_result(weighted_betweenness(c.g, c.w, options), serial,
                            c.name + " k=" + std::to_string(k));
    }
  }
}

TEST(BetweennessProperty, SampledEqualsRescaledSumOverAdvertisedPivots) {
  // The estimator's entire error is the sampling of the pivot set: given the
  // pivots it advertises (sample_betweenness_pivots), the result must equal
  // (n/k) * sum of those sources' exact contributions. This pins both the
  // rescaling and the pivot stream.
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    if (n < 4) continue;
    const std::size_t k = n / 2;
    betweenness_options options;
    options.backend = betweenness_backend::sampled;
    options.sample_pivots = k;
    options.rng_seed = 0xfeedULL + n;
    const betweenness_result sampled =
        weighted_betweenness(c.g, c.w, options);

    const std::vector<node_id> pivots =
        sample_betweenness_pivots(n, k, options.rng_seed);
    ASSERT_EQ(pivots.size(), k) << c.name;
    betweenness_result expected;
    expected.node.assign(n, 0.0);
    expected.edge.assign(c.g.edge_slots(), 0.0);
    const double scale = static_cast<double>(n) / static_cast<double>(k);
    for (const node_id s : pivots) {
      const betweenness_result one = single_source_contribution(c.g, s, c.w);
      for (std::size_t v = 0; v < n; ++v)
        expected.node[v] += scale * one.node[v];
      for (std::size_t e = 0; e < expected.edge.size(); ++e)
        expected.edge[e] += scale * one.edge[e];
    }
    expect_near_result(sampled, expected, c.name + " sampled k<n");
  }
}

TEST(BetweennessProperty, SampledPivotsAreSortedDistinctAndSeedStable) {
  const std::vector<node_id> a = sample_betweenness_pivots(100, 20, 7);
  const std::vector<node_id> b = sample_betweenness_pivots(100, 20, 7);
  const std::vector<node_id> c = sample_betweenness_pivots(100, 20, 8);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);  // different stream (collision chance is negligible)
  ASSERT_EQ(a.size(), 20u);
  for (std::size_t i = 1; i < a.size(); ++i) EXPECT_LT(a[i - 1], a[i]);
  EXPECT_EQ(sample_betweenness_pivots(10, 10, 3).size(), 10u);
  EXPECT_EQ(sample_betweenness_pivots(10, 99, 3).size(), 10u);
}

TEST(BetweennessProperty, SampledIsUnbiasedAcrossSeeds) {
  rng gen(4242);
  const digraph g = erdos_renyi(12, 0.35, gen);
  const pair_weight_fn w = make_weights(1, g.node_count(), 4242);
  const betweenness_result exact = weighted_betweenness(g, w);

  const std::size_t rounds = 400;
  betweenness_options options;
  options.backend = betweenness_backend::sampled;
  options.sample_pivots = 6;
  std::vector<double> mean_node(g.node_count(), 0.0);
  for (std::size_t r = 0; r < rounds; ++r) {
    options.rng_seed = 0xabc0000ULL + r;
    const betweenness_result est = weighted_betweenness(g, w, options);
    for (std::size_t v = 0; v < mean_node.size(); ++v)
      mean_node[v] += est.node[v] / static_cast<double>(rounds);
  }
  double max_exact = 0.0;
  for (const double x : exact.node) max_exact = std::max(max_exact, x);
  ASSERT_GT(max_exact, 0.0);
  for (std::size_t v = 0; v < mean_node.size(); ++v) {
    // Monte-Carlo mean of 400 draws: loose but deterministic (fixed seeds).
    EXPECT_NEAR(mean_node[v], exact.node[v], 0.15 * max_exact) << v;
  }
}

TEST(BetweennessProperty, NodeBetweennessOfConsistentAcrossBackends) {
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    if (n < 2 || n > 12) continue;  // keep the per-node sweeps cheap
    const betweenness_result full = weighted_betweenness(c.g, c.w);
    for (node_id u = 0; u < n; ++u) {
      const double serial = node_betweenness_of(c.g, u, c.w);
      // The full sweep adds the same per-source deltas in the same order
      // (source u contributes nothing to u), so this is bitwise too.
      EXPECT_EQ(serial, full.node[u]) << c.name << " u=" << u;

      betweenness_options options;
      options.backend = betweenness_backend::parallel;
      options.threads = 3;
      EXPECT_EQ(node_betweenness_of(c.g, u, c.w, options), serial)
          << c.name << " u=" << u;

      options.backend = betweenness_backend::sampled;
      options.sample_pivots = n;  // >= n - 1 sources -> degenerate exact
      options.rng_seed = 99;
      EXPECT_EQ(node_betweenness_of(c.g, u, c.w, options), serial)
          << c.name << " u=" << u;
    }
  }
}

TEST(BetweennessProperty, NodeBetweennessOfSampledUsesMinusOneRescale) {
  // With u excluded the population is n - 1 sources, so the unbiased rescale
  // is (n-1)/k; pin it the same way as the full-sweep rescale test.
  rng gen(777);
  const digraph g = erdos_renyi(10, 0.4, gen);
  const std::size_t n = g.node_count();
  const pair_weight_fn w = make_weights(3, n, 777);
  const betweenness_result full = weighted_betweenness(g, w);
  for (node_id u = 0; u < n; ++u) {
    betweenness_options options;
    options.backend = betweenness_backend::sampled;
    options.sample_pivots = 4;
    options.rng_seed = 0xbeefULL + u;
    const double got = node_betweenness_of(g, u, w, options);
    // Mean over many seeds must approach the exact value (scale correct on
    // average); a wrong n/k-vs-(n-1)/k factor would bias every seed by 9/10.
    double mean = 0.0;
    const std::size_t rounds = 300;
    for (std::size_t r = 0; r < rounds; ++r) {
      options.rng_seed = 0x1234ULL + 977 * r + u;
      mean += node_betweenness_of(g, u, w, options) /
              static_cast<double>(rounds);
    }
    const double tol = 0.15 * std::max(1.0, full.node[u]);
    EXPECT_NEAR(mean, full.node[u], tol) << "u=" << u;
    EXPECT_TRUE(std::isfinite(got));
  }
}

// ---------------------------------------------------------------------------
// Documented invariants (header comment of graph/betweenness.h).
// ---------------------------------------------------------------------------

std::vector<betweenness_options> all_backend_options() {
  betweenness_options serial;
  betweenness_options parallel;
  parallel.backend = betweenness_backend::parallel;
  parallel.threads = 4;
  betweenness_options sampled;
  sampled.backend = betweenness_backend::sampled;
  sampled.sample_pivots = 3;
  sampled.rng_seed = 5;
  return {serial, parallel, sampled};
}

TEST(BetweennessInvariant, ZeroWeightPairsAddExactPositiveZero) {
  const digraph g = path_graph(5);
  const auto zero_w = [](node_id, node_id) { return 0.0; };
  for (const betweenness_options& options : all_backend_options()) {
    const betweenness_result b = weighted_betweenness(g, zero_w, options);
    for (const double x : b.node) {
      EXPECT_EQ(x, 0.0);
      EXPECT_FALSE(std::signbit(x));  // exactly +0.0, never -0.0
      EXPECT_FALSE(std::isnan(x));
    }
    for (const double x : b.edge) {
      EXPECT_EQ(x, 0.0);
      EXPECT_FALSE(std::signbit(x));
    }
  }
}

TEST(BetweennessInvariant, UnreachablePairsContributeNothing) {
  // Two components; all weight is on cross-component (unreachable) pairs.
  digraph g(6);
  g.add_bidirectional(0, 1);
  g.add_bidirectional(1, 2);
  g.add_bidirectional(3, 4);
  g.add_bidirectional(4, 5);
  const auto cross_w = [](node_id s, node_id t) {
    return (s < 3) != (t < 3) ? 5.0 : 0.0;
  };
  for (const betweenness_options& options : all_backend_options()) {
    const betweenness_result b = weighted_betweenness(g, cross_w, options);
    for (const double x : b.node) EXPECT_EQ(x, 0.0);
    for (const double x : b.edge) EXPECT_EQ(x, 0.0);
  }
  const betweenness_result naive = weighted_betweenness_naive(g, cross_w);
  for (const double x : naive.node) EXPECT_EQ(x, 0.0);
  for (const double x : naive.edge) EXPECT_EQ(x, 0.0);
}

TEST(BetweennessInvariant, InactiveEdgeSlotsStayZeroUnderEveryBackend) {
  digraph g = path_graph(4);
  const edge_id shortcut = g.add_bidirectional(0, 3);
  g.remove_edge(shortcut);
  g.remove_edge(shortcut + 1);
  for (const betweenness_options& options : all_backend_options()) {
    const betweenness_result b = weighted_betweenness(
        g, [](node_id, node_id) { return 2.0; }, options);
    EXPECT_EQ(b.edge[shortcut], 0.0);
    EXPECT_EQ(b.edge[shortcut + 1], 0.0);
  }
}

TEST(BetweennessInvariant, WorkerExceptionPropagatesFromParallelBackend) {
  // A throwing pair-weight function must surface as an exception on the
  // calling thread (as the serial backend does), not std::terminate the
  // process from inside a worker.
  const digraph g = path_graph(40);
  const auto throwing_w = [](node_id s, node_id t) -> double {
    if (s == 17 && t == 3) throw precondition_error("bad pair weight");
    return 1.0;
  };
  betweenness_options options;
  options.backend = betweenness_backend::parallel;
  options.threads = 4;
  EXPECT_THROW((void)weighted_betweenness(g, throwing_w, options),
               precondition_error);
  options.backend = betweenness_backend::sampled;
  options.sample_pivots = 0;  // exact: every source swept
  EXPECT_THROW((void)weighted_betweenness(g, throwing_w, options),
               precondition_error);
}

// ---------------------------------------------------------------------------
// The arena evaluator's two kernels (arena/incremental.cpp), over random
// channel-toggle sequences on the corpus: the exact phase (sweep_dependency
// per plan source on one freeze, merged in ascending order) must reproduce
// the engine bit for bit, and the separator value, priced from sweeps of
// G - u that every toggle of u's channels leaves unchanged, must match it
// far inside the filter's margin.
// ---------------------------------------------------------------------------

/// Undirected channels of g (both directions active), as (a < b) pairs.
std::vector<std::pair<node_id, node_id>> channel_list(const digraph& g) {
  std::vector<std::pair<node_id, node_id>> out;
  for (node_id a = 0; a < g.node_count(); ++a) {
    for (node_id b = a + 1; b < g.node_count(); ++b) {
      if (g.find_edge(a, b) != invalid_edge &&
          g.find_edge(b, a) != invalid_edge) {
        out.emplace_back(a, b);
      }
    }
  }
  return out;
}

/// Applies one channel toggle. Additions append fresh slots; removals
/// deactivate both directions in place.
void apply_channel_toggle(digraph& g, node_id a, node_id b, bool add) {
  if (add) {
    g.add_bidirectional(a, b);
  } else {
    g.remove_edge(g.find_edge(a, b));
    g.remove_edge(g.find_edge(b, a));
  }
}

/// The sender's weight row w(s, .), the span the kernels take.
std::vector<double> weight_row(const pair_weight_fn& w, node_id s,
                               std::size_t n) {
  std::vector<double> row(n);
  for (node_id t = 0; t < n; ++t) row[t] = w(s, t);
  return row;
}

TEST(BetweennessToggle, FrozenPlanEvaluationMatchesFullExactAndSampled) {
  // The arena's exact phase replayed against the public engine: one freeze
  // of the toggled graph, sweep_dependency for every plan source, merged in
  // ascending source order with one scale-multiplied addition each. The
  // result must be BITWISE equal to node_betweenness_of on the toggled
  // graph, under the exact plan and a genuinely sampled one.
  std::size_t exercised = 0;
  cone_scratch scratch;
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    if (n < 6 || n > 13) continue;
    rng gen(0xdecade + n);
    const auto u = static_cast<node_id>(
        gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));

    betweenness_options exact;  // serial, every source
    betweenness_options sampled;
    sampled.backend = betweenness_backend::sampled;
    sampled.sample_pivots = n / 2;
    sampled.rng_seed = 0xcafe + n;
    for (const betweenness_options& options : {exact, sampled}) {
      digraph g = c.g;
      const source_plan plan = betweenness_source_plan(n, options, u);
      // Toggle a u-incident channel pattern, like an oracle candidate:
      // remove one existing u-channel (if any) and add one new u-channel.
      bool toggled = false;
      for (node_id v = 0; v < n && !toggled; ++v) {
        if (v != u && g.find_edge(u, v) != invalid_edge) {
          apply_channel_toggle(g, u, v, /*add=*/false);
          toggled = true;
        }
      }
      for (node_id v = 0; v < n; ++v) {
        if (v != u && g.find_edge(u, v) == invalid_edge) {
          apply_channel_toggle(g, u, v, /*add=*/true);
          toggled = true;
          break;
        }
      }
      if (!toggled) continue;
      const csr_graph view = freeze(g);
      double acc = 0.0;
      for (const node_id s : plan.sources) {
        acc += plan.scale * sweep_dependency(view, s, u,
                                             weight_row(c.w, s, n), scratch);
      }
      EXPECT_EQ(acc, node_betweenness_of(g, u, c.w, options))
          << c.name << " u=" << u << " backend "
          << betweenness_backend_name(options.backend);
      ++exercised;
    }
  }
  EXPECT_GE(exercised, 20u);
}

TEST(BetweennessToggle, SweepDependencyMatchesFullAccumulation) {
  // The exact kernel against the full backward accumulation, bit for bit,
  // on each corpus graph and on views re-frozen along a random
  // channel-toggle sequence (parallel channels included). Every (s, u)
  // pair is checked, so u unreachable from s, u a leaf of the DAG and u
  // adjacent to s all occur; the counters pin that.
  std::size_t unreachable_u = 0, leaf_u = 0, adjacent_u = 0;
  cone_scratch scratch;
  std::vector<double> delta;
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    if (n < 2) continue;
    const auto check = [&](const csr_graph& view, const std::string& ctx) {
      for (node_id s = 0; s < n; ++s) {
        const sp_dag dag = shortest_path_dag(view, s);
        source_dependencies(view, dag, s, c.w, delta);
        const std::vector<double> row = weight_row(c.w, s, n);
        for (node_id u = 0; u < n; ++u) {
          if (u == s) continue;
          const double got = sweep_dependency(view, s, u, row, scratch);
          ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                    std::bit_cast<std::uint64_t>(delta[u]))
              << ctx << " s=" << s << " u=" << u;
          if (dag.dist[u] == unreachable) {
            ++unreachable_u;
          } else if (delta[u] == 0.0) {
            ++leaf_u;
          }
          if (dag.dist[u] == 1) ++adjacent_u;
        }
      }
    };
    digraph g = c.g;
    check(freeze(g), c.name);
    rng gen(0xc0de + n);
    for (int step = 0; step < 3; ++step) {
      const auto channels = channel_list(g);
      const bool add = channels.empty() || gen.uniform01() < 0.5;
      node_id a = 0, b = 0;
      if (add) {
        a = static_cast<node_id>(
            gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
        b = static_cast<node_id>(
            gen.uniform_int(0, static_cast<std::int64_t>(n) - 2));
        if (b >= a) ++b;
      } else {
        const auto& pick = channels[static_cast<std::size_t>(gen.uniform_int(
            0, static_cast<std::int64_t>(channels.size()) - 1))];
        a = pick.first;
        b = pick.second;
      }
      apply_channel_toggle(g, a, b, add);
      check(freeze(g), c.name + " step=" + std::to_string(step));
    }
  }
  EXPECT_GT(unreachable_u, 0u);
  EXPECT_GT(leaf_u, 0u);
  EXPECT_GT(adjacent_u, 0u);
}

/// Folds a last hop into (distance, path count): the evaluator's recipe
/// for d(s, u) over u's in-edges and d(u, t) over its out-edges.
void fold_hop(std::int32_t d, double sigma, std::int32_t& best,
              double& count) {
  if (d == unreachable) return;
  if (best == unreachable || d + 1 < best) {
    best = d + 1;
    count = sigma;
  } else if (d + 1 == best) {
    count += sigma;
  }
}

TEST(BetweennessToggle, SeparatorMatchesConeSweepWithinMargin) {
  // The arena's separator filter against the exact kernel. Per corpus
  // graph: a node u, a directed counterparty edge into u that no toggle
  // touches, and slots for up to two of u's channels and two new ones.
  // G - u is swept ONCE, before the toggles; then, along a random sequence
  // of slot toggles, every plan source's separator value must match
  // sweep_dependency on the re-frozen view within the filter's margin
  // (1e-6 + 1e-9 |v|) / 10^3, for the exact plan and a sampled one.
  std::size_t checks = 0, unreachable_u = 0, adjacent_u = 0;
  std::size_t counterparty = 0, sampled_checks = 0;
  cone_scratch scratch;
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    if (n < 3) continue;
    rng gen(0x5e9a7a + n);
    const auto u = static_cast<node_id>(
        gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    digraph g = c.g;
    node_id counterparty_tail = invalid_node;
    for (node_id v = 0; v < n; ++v) {
      if (v != u && g.find_edge(v, u) == invalid_edge &&
          g.find_edge(u, v) == invalid_edge) {
        g.add_edge(v, u);
        counterparty_tail = v;
        break;
      }
    }
    // Slots: (u -> peer, peer -> u) edge pairs, switched on and off in
    // place like the evaluator's; new channels start switched off.
    std::vector<std::pair<edge_id, edge_id>> slots;
    for (const auto& [a, b] : channel_list(g)) {
      if (slots.size() == 2 || (a != u && b != u)) continue;
      const node_id peer = a == u ? b : a;
      slots.emplace_back(g.find_edge(u, peer), g.find_edge(peer, u));
    }
    for (node_id v = 0; v < n && slots.size() < 4; ++v) {
      if (v == u || g.find_edge(u, v) != invalid_edge ||
          g.find_edge(v, u) != invalid_edge)
        continue;
      const edge_id forward = g.add_bidirectional(u, v);
      g.remove_edge(forward);
      g.remove_edge(forward + 1);
      slots.emplace_back(forward, forward + 1);
    }

    digraph minus = g;
    for (edge_id e = 0; e < minus.edge_slots(); ++e) {
      const edge& ed = minus.edge_at(e);
      if (minus.edge_active(e) && (ed.src == u || ed.dst == u))
        minus.remove_edge(e);
    }
    const csr_graph minus_view = freeze(minus);
    std::vector<sp_dag> minus_dag;
    for (node_id v = 0; v < n; ++v)
      minus_dag.push_back(shortest_path_dag(minus_view, v));

    betweenness_options sampled;
    sampled.backend = betweenness_backend::sampled;
    sampled.sample_pivots = (n - 1) / 2;
    sampled.rng_seed = 0xbead + n;
    for (int step = 0; step < 6; ++step) {
      if (step > 0 && !slots.empty()) {
        const auto [forward, reverse] =
            slots[static_cast<std::size_t>(gen.uniform_int(
                0, static_cast<std::int64_t>(slots.size()) - 1))];
        if (g.edge_active(forward)) {
          g.remove_edge(forward);
          g.remove_edge(reverse);
        } else {
          g.restore_edge(forward);
          g.restore_edge(reverse);
        }
      }
      // d(u, t) and sigma(u, t) over the candidate's out-edges.
      std::vector<std::int32_t> dist_ut(n, unreachable);
      std::vector<double> sigma_ut(n, 0.0);
      g.for_each_out(u, [&](edge_id, const edge& ed) {
        for (node_id t = 0; t < n; ++t) {
          fold_hop(minus_dag[ed.dst].dist[t], minus_dag[ed.dst].sigma[t],
                   dist_ut[t], sigma_ut[t]);
        }
      });
      const csr_graph view = freeze(g);
      for (const betweenness_options& options :
           {betweenness_options{}, sampled}) {
        const source_plan plan = betweenness_source_plan(n, options, u);
        double sep_total = 0.0, exact_total = 0.0;
        for (const node_id s : plan.sources) {
          std::int32_t dist_su = unreachable;
          double sigma_su = 0.0;
          g.for_each_in(u, [&](edge_id, const edge& ed) {
            fold_hop(minus_dag[s].dist[ed.src], minus_dag[s].sigma[ed.src],
                     dist_su, sigma_su);
          });
          const std::vector<double> row = weight_row(c.w, s, n);
          const double exact = sweep_dependency(view, s, u, row, scratch);
          const double sep = separator_dependency(
              minus_dag[s].dist, minus_dag[s].sigma, dist_su, sigma_su,
              dist_ut, sigma_ut, row);
          EXPECT_LE(std::abs(sep - exact),
                    (1e-6 + 1e-9 * std::abs(exact)) / 1e3)
              << c.name << " step=" << step << " s=" << s << " u=" << u
              << " sep=" << sep << " exact=" << exact;
          sep_total += plan.scale * sep;
          exact_total += plan.scale * exact;
          ++checks;
          if (dist_su == unreachable) ++unreachable_u;
          if (dist_su == 1) ++adjacent_u;
          if (counterparty_tail != invalid_node &&
              minus_dag[s].dist[counterparty_tail] != unreachable)
            ++counterparty;
          if (options.backend == betweenness_backend::sampled)
            ++sampled_checks;
        }
        EXPECT_LE(std::abs(sep_total - exact_total),
                  (1e-6 + 1e-9 * std::abs(exact_total)) / 1e3)
            << c.name << " step=" << step << " u=" << u;
      }
    }
  }
  EXPECT_GT(checks, 1000u);
  EXPECT_GT(unreachable_u, 0u);
  EXPECT_GT(adjacent_u, 0u);
  EXPECT_GT(counterparty, 0u);
  EXPECT_GT(sampled_checks, 0u);
}

TEST(BetweennessInvariant, BackendNamesRoundTrip) {
  for (const auto backend :
       {betweenness_backend::serial, betweenness_backend::parallel,
        betweenness_backend::sampled}) {
    EXPECT_EQ(betweenness_backend_from_name(betweenness_backend_name(backend)),
              backend);
  }
  EXPECT_THROW((void)betweenness_backend_from_name("gpu"), precondition_error);
  EXPECT_THROW((void)betweenness_backend_from_name(""), precondition_error);
}

// ---------------------------------------------------------------------------
// Re-freeze axis: the engine sweeps only frozen views, so a view re-frozen
// after every step of a random toggle sequence must still match the naive
// reference on the mutable digraph. Removals leave inactive slots behind
// (frozen out), additions append fresh slots (frozen in), and the per-edge
// vector stays indexed by original edge id through both.
// ---------------------------------------------------------------------------

TEST(BetweennessCsr, RefrozenViewMatchesNaiveAcrossToggleSequences) {
  for (const corpus_case& c : build_corpus()) {
    if (c.g.node_count() < 3) continue;
    digraph g = c.g;  // mutable copy
    rng gen(0xC5A0 + g.node_count());
    for (int step = 0; step < 4; ++step) {
      const auto channels = channel_list(g);
      const bool add = channels.empty() || (gen.uniform01() < 0.4);
      node_id a, b;
      if (add) {
        // A uniformly random distinct pair; parallel channels are fine.
        a = static_cast<node_id>(
            gen.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 1));
        b = static_cast<node_id>(
            gen.uniform_int(0, static_cast<std::int64_t>(g.node_count()) - 2));
        if (b >= a) ++b;
      } else {
        const auto& pick = channels[static_cast<std::size_t>(gen.uniform_int(
            0, static_cast<std::int64_t>(channels.size()) - 1))];
        a = pick.first;
        b = pick.second;
      }
      apply_channel_toggle(g, a, b, add);

      const csr_graph frozen = freeze(g);
      ASSERT_EQ(frozen.edge_count(), g.edge_count()) << c.name;
      const betweenness_result naive = weighted_betweenness_naive(g, c.w);
      // The exact backends; the sampled one is pinned against its own
      // pivot sum above.
      for (const betweenness_options& options : all_backend_options()) {
        if (options.backend == betweenness_backend::sampled) continue;
        expect_near_result(weighted_betweenness(frozen, c.w, options), naive,
                           c.name + " step=" + std::to_string(step) +
                               " backend=" +
                               std::string(betweenness_backend_name(
                                   options.backend)));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// One BFS body: every hop-count sweep of graph/traversal.h runs the same
// loop over either representation, so on every corpus graph, and on views
// with edges removed (a random quarter of the slots, and every edge of one
// node u: the G - u the arena's separator sweeps), all of them must agree
// bit for bit from every source, the separator rows from cold and from
// warm buffers alike.
// ---------------------------------------------------------------------------

/// Expects sweeps `a` and `b` to agree on every node `covered` accepts:
/// dist, sigma bitwise, and pred lists once a's keys are mapped through
/// key_of.
template <typename KeyOf, typename Covered>
void expect_same_dag(const sp_dag& a, KeyOf key_of, const sp_dag& b,
                     Covered covered, const std::string& ctx) {
  ASSERT_EQ(a.pred.size(), b.pred.size()) << ctx;
  for (node_id v = 0; v < b.pred.size(); ++v) {
    if (!covered(v)) continue;
    EXPECT_EQ(a.dist[v], b.dist[v]) << ctx << " v=" << v;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(a.sigma[v]),
              std::bit_cast<std::uint64_t>(b.sigma[v]))
        << ctx << " v=" << v;
    std::vector<edge_id> mapped;
    for (const edge_id k : a.pred[v]) mapped.push_back(key_of(k));
    EXPECT_EQ(mapped, std::vector<edge_id>(b.pred[v].begin(), b.pred[v].end()))
        << ctx << " v=" << v;
  }
}

TEST(BfsBody, RepresentationsAndSeparatorRowsAgreeBitwise) {
  std::size_t views = 0, unreachable_seen = 0, multi_path_seen = 0;
  // One warm pair of rows and FIFO, re-filled across sources, views and
  // node counts; they start out holding garbage.
  std::vector<std::int32_t> warm_dist(3, 7);
  std::vector<double> warm_sigma(3, std::nan(""));
  std::vector<node_id> warm_order{2, 0, 1};
  for (const corpus_case& c : build_corpus()) {
    const std::size_t n = c.g.node_count();
    digraph thinned = c.g;
    rng gen(0xbf5 + n);
    for (edge_id e = 0; e < thinned.edge_slots(); ++e)
      if (thinned.edge_active(e) && gen.bernoulli(0.25)) thinned.remove_edge(e);
    digraph minus_u = c.g;
    const node_id u = static_cast<node_id>(n / 2);
    std::vector<edge_id> cut;
    minus_u.for_each_out(u, [&](edge_id e, const edge&) { cut.push_back(e); });
    minus_u.for_each_in(u, [&](edge_id e, const edge&) { cut.push_back(e); });
    for (const edge_id e : cut) minus_u.remove_edge(e);

    for (const auto& [label, g] :
         {std::pair<const char*, const digraph&>{"whole", c.g},
          {"thinned", thinned},
          {"minus u", minus_u}}) {
      const std::string ctx = c.name + " " + label;
      const csr_graph view = freeze(g);
      warm_dist.resize(n);
      warm_sigma.resize(n);
      // The other two views, against materialised copies: g reversed, and
      // g with capacities 1..4 under a random threshold through filtered().
      digraph reversed(n);
      digraph capped = g;
      for (edge_id e = 0; e < g.edge_slots(); ++e) {
        if (!g.edge_active(e)) continue;
        reversed.add_edge(g.edge_at(e).dst, g.edge_at(e).src);
        capped.set_capacity(e, static_cast<double>(gen.uniform_int(1, 4)));
      }
      const double threshold = static_cast<double>(gen.uniform_int(1, 4));
      const edge_filter keep = [threshold](edge_id, const edge& ed) {
        return ed.capacity >= threshold;
      };
      const subgraph_result sub = filtered(capped, keep);
      const auto all = [](node_id) { return true; };
      for (node_id s = 0; s < n; ++s) {
        const sp_dag want = shortest_path_dag(g, s);
        const sp_dag got = shortest_path_dag(view, s);
        EXPECT_EQ(bfs_distances(g, s), want.dist) << ctx << " s=" << s;
        EXPECT_EQ(bfs_distances(view, s), want.dist) << ctx << " s=" << s;
        EXPECT_EQ(got.order, want.order) << ctx << " s=" << s;
        expect_same_dag(
            got, [&](csr_graph::packed_id k) { return view.edge_slot(k); },
            want, all, ctx + " csr s=" + std::to_string(s));
        for (node_id v = 0; v < n; ++v) {
          if (want.dist[v] == unreachable) ++unreachable_seen;
          if (want.sigma[v] > 1.0) ++multi_path_seen;
        }

        EXPECT_EQ(bfs_distances_to(g, s), bfs_distances(reversed, s))
            << ctx << " s=" << s;
        const sp_dag sub_dag = shortest_path_dag(sub.graph, s);
        const auto original = [&](edge_id e) { return sub.original_edge[e]; };
        // Toward the last node discovered, the whole DAG is final.
        sp_dag kept;
        shortest_path_dag(capped, s, sub_dag.order.back(), keep, kept);
        EXPECT_EQ(kept.order, sub_dag.order) << ctx << " s=" << s;
        expect_same_dag(sub_dag, original, kept, all,
                        ctx + " filtered s=" + std::to_string(s));
        for (node_id t = 0; t < n; ++t) {
          const std::string at =
              ctx + " s=" + std::to_string(s) + " t=" + std::to_string(t);
          // The first-found path walks each node's first DAG in-edge.
          std::vector<edge_id> first;
          if (sub_dag.dist[t] != unreachable)
            for (node_id v = t; v != s; v = capped.edge_at(first.back()).src)
              first.push_back(original(sub_dag.pred[v].front()));
          std::reverse(first.begin(), first.end());
          EXPECT_EQ(first_found_path(capped, s, t, keep), first) << at;
          // Stopped at t's level: final on every node no farther than t.
          shortest_path_dag(capped, s, t, keep, kept);
          const std::int32_t reach = sub_dag.dist[t];
          expect_same_dag(sub_dag, original, kept,
                          [&](node_id v) {
                            return reach == unreachable ||
                                   (sub_dag.dist[v] != unreachable &&
                                    sub_dag.dist[v] <= reach);
                          },
                          at + " stopped");
        }

        // The separator rows: cold, freshly allocated buffers and the
        // warm ones must both come out as the DAG's dist and sigma.
        std::vector<std::int32_t> cold_dist(n);
        std::vector<double> cold_sigma(n);
        std::vector<node_id> cold_order;
        shortest_path_counts(view, s, cold_dist, cold_sigma, cold_order);
        shortest_path_counts(view, s, warm_dist, warm_sigma, warm_order);
        EXPECT_EQ(cold_dist, want.dist) << ctx << " s=" << s;
        EXPECT_EQ(warm_dist, want.dist) << ctx << " s=" << s;
        EXPECT_EQ(cold_order, want.order) << ctx << " s=" << s;
        EXPECT_EQ(warm_order, want.order) << ctx << " s=" << s;
        for (node_id v = 0; v < n; ++v) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(cold_sigma[v]),
                    std::bit_cast<std::uint64_t>(want.sigma[v]))
              << ctx << " s=" << s << " v=" << v;
          ASSERT_EQ(std::bit_cast<std::uint64_t>(warm_sigma[v]),
                    std::bit_cast<std::uint64_t>(want.sigma[v]))
              << ctx << " s=" << s << " v=" << v;
        }
      }
      ++views;
    }
  }
  EXPECT_GE(views, 150u);
  EXPECT_GT(unreachable_seen, 0u);
  EXPECT_GT(multi_path_seen, 0u);
}

}  // namespace
}  // namespace lcg::graph
