#include "graph/traversal.h"

#include <gtest/gtest.h>

#include <vector>

#include "graph/csr.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcg::graph {
namespace {

TEST(Bfs, PathGraphDistances) {
  const digraph g = path_graph(5);
  const auto dist = bfs_distances(g, 0);
  for (node_id v = 0; v < 5; ++v)
    EXPECT_EQ(dist[v], static_cast<std::int32_t>(v));
}

TEST(Bfs, UnreachableIsMinusOne) {
  digraph g(3);
  g.add_edge(0, 1);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], 1);
  EXPECT_EQ(dist[2], unreachable);
}

TEST(Bfs, RespectsDirection) {
  digraph g(2);
  g.add_edge(0, 1);
  EXPECT_EQ(bfs_distances(g, 1)[0], unreachable);
}

TEST(Bfs, IgnoresInactiveEdges) {
  digraph g(3);
  const edge_id e = g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(e);
  const auto dist = bfs_distances(g, 0);
  EXPECT_EQ(dist[1], unreachable);
  EXPECT_EQ(dist[2], unreachable);
}

TEST(SpDag, CountsShortestPathsInDiamond) {
  // 0 -> {1, 2} -> 3: two shortest paths from 0 to 3.
  digraph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.add_edge(2, 3);
  const sp_dag dag = shortest_path_dag(g, 0);
  EXPECT_EQ(dag.dist[3], 2);
  EXPECT_DOUBLE_EQ(dag.sigma[3], 2.0);
  EXPECT_DOUBLE_EQ(dag.sigma[1], 1.0);
  EXPECT_EQ(dag.pred[3].size(), 2u);
  // Order is non-decreasing in distance.
  for (std::size_t i = 1; i < dag.order.size(); ++i)
    EXPECT_LE(dag.dist[dag.order[i - 1]], dag.dist[dag.order[i]]);
}

TEST(SpDag, ParallelEdgesMultiplyPaths) {
  digraph g(2);
  g.add_edge(0, 1);
  g.add_edge(0, 1);
  const sp_dag dag = shortest_path_dag(g, 0);
  EXPECT_DOUBLE_EQ(dag.sigma[1], 2.0);
}

TEST(SpDag, CycleGraphTwoWayCounts) {
  const digraph g = cycle_graph(4);
  const sp_dag dag = shortest_path_dag(g, 0);
  // Opposite node reachable two ways around the cycle.
  EXPECT_EQ(dag.dist[2], 2);
  EXPECT_DOUBLE_EQ(dag.sigma[2], 2.0);
}

/// Predecessor lists by definition: the active in-edges (x, v) with
/// dist[x] + 1 == dist[v], in the order BFS scans them (x by its position
/// in `order`, then x's out-edges in adjacency order).
std::vector<std::vector<edge_id>> expected_preds(const digraph& g,
                                                 const sp_dag& dag) {
  std::vector<std::vector<edge_id>> pred(g.node_count());
  for (const node_id x : dag.order) {
    g.for_each_out(x, [&](edge_id e, const edge& ed) {
      if (dag.dist[ed.dst] == dag.dist[x] + 1) pred[ed.dst].push_back(e);
    });
  }
  return pred;
}

void expect_same_dag(const sp_dag& got, const sp_dag& want) {
  EXPECT_EQ(got.dist, want.dist);
  EXPECT_EQ(got.sigma, want.sigma);
  EXPECT_EQ(got.order, want.order);
  EXPECT_TRUE(got.pred == want.pred);
  ASSERT_EQ(got.pred.size(), want.pred.size());
  for (node_id v = 0; v < want.pred.size(); ++v) {
    const std::vector<edge_id> a(got.pred[v].begin(), got.pred[v].end());
    const std::vector<edge_id> b(want.pred[v].begin(), want.pred[v].end());
    EXPECT_EQ(a, b) << "v=" << v;
  }
}

TEST(SpDag, ReusedBuffersEqualFreshSweeps) {
  // One warm sp_dag is re-filled across sources and across graphs whose
  // node count grows and shrinks, by both the digraph and the CSR overload;
  // every fill must equal a fresh by-value sweep field for field. The
  // in-place bfs_distances does the same with a warm row and FIFO.
  rng gen(77);
  sp_dag warm;
  std::vector<std::int32_t> warm_dist;
  std::vector<node_id> warm_order;
  for (const std::size_t n : {40u, 9u, 120u, 2u, 1u, 60u, 240u, 5u}) {
    digraph g = erdos_renyi(n, n > 2 ? 3.0 / static_cast<double>(n) : 0.9,
                            gen);
    if (n >= 2) g.add_edge(0, 1);  // one parallel edge multiplies paths
    for (edge_id e = 0; e < g.edge_slots(); ++e)
      if (gen.bernoulli(0.1)) g.remove_edge(e);
    const csr_graph c = freeze(g);
    for (node_id s = 0; s < n; ++s) {
      const sp_dag fresh = shortest_path_dag(g, s);
      shortest_path_dag(g, s, warm);
      expect_same_dag(warm, fresh);
      const std::vector<std::vector<edge_id>> want = expected_preds(g, fresh);
      for (node_id v = 0; v < n; ++v) {
        EXPECT_EQ(std::vector<edge_id>(fresh.pred[v].begin(),
                                       fresh.pred[v].end()),
                  want[v])
            << "n=" << n << " s=" << s << " v=" << v;
      }

      const sp_dag fresh_csr = shortest_path_dag(c, s);
      shortest_path_dag(c, s, warm);
      expect_same_dag(warm, fresh_csr);

      warm_dist.resize(n);  // keeps the previous source's distances
      bfs_distances(g, s, warm_dist, warm_order);
      EXPECT_EQ(warm_dist, bfs_distances(g, s)) << "n=" << n << " s=" << s;
    }
  }
}

TEST(ShortestPath, ReconstructsValidPath) {
  const digraph g = grid_graph(3, 3);
  const auto path = shortest_path(g, 0, 8);
  ASSERT_EQ(path.size(), 5u);  // 4 hops across the grid
  EXPECT_EQ(path.front(), 0u);
  EXPECT_EQ(path.back(), 8u);
  for (std::size_t i = 1; i < path.size(); ++i)
    EXPECT_NE(g.find_edge(path[i - 1], path[i]), invalid_edge);
}

TEST(ShortestPath, EmptyWhenUnreachable) {
  digraph g(2);
  EXPECT_TRUE(shortest_path(g, 0, 1).empty());
}

TEST(ShortestPath, TrivialSelf) {
  digraph g(1);
  const auto path = shortest_path(g, 0, 0);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path[0], 0u);
}

}  // namespace
}  // namespace lcg::graph
