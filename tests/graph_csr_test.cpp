// graph/csr.h: the frozen flat view's structural contract — per-node rows
// and capacities, edge cases (empty, single node, multi-component, inactive
// slots), the iteration-order pin that every bitwise-equivalence guarantee
// rests on, and BFS and the shortest-path DAG over the view against the
// adjacency-list results. The Brandes engine sweeps only frozen views; its
// corpus-wide checks live in graph_betweenness_property_test.cpp.

#include "graph/csr.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/generators.h"
#include "graph/traversal.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::graph {
namespace {

/// The packed (id, dst) sequence a frozen view yields for `v`.
std::vector<std::pair<csr_graph::packed_id, node_id>> frozen_row(
    const csr_graph& c, node_id v) {
  std::vector<std::pair<csr_graph::packed_id, node_id>> row;
  c.for_each_out(v, [&](csr_graph::packed_id k, node_id dst) {
    row.emplace_back(k, dst);
  });
  return row;
}

TEST(GraphCsr, FreezeMatchesDigraphStructure) {
  digraph g(4);
  g.add_edge(0, 1, 1.5);
  g.add_edge(0, 2, 2.5);
  g.add_edge(2, 3, 3.5);
  g.add_edge(3, 0, 4.5);
  const csr_graph c = freeze(g);
  EXPECT_EQ(c.node_count(), 4u);
  EXPECT_EQ(c.edge_count(), 4u);
  EXPECT_EQ(c.edge_slots(), g.edge_slots());
  EXPECT_EQ(c.rows(), (std::vector<csr_graph::packed_id>{0, 2, 2, 3, 4}));
  EXPECT_EQ(c.cols(), (std::vector<node_id>{1, 2, 3, 0}));
  EXPECT_EQ(c.srcs(), (std::vector<node_id>{0, 0, 2, 3}));
  EXPECT_EQ(c.capacities(), (std::vector<double>{1.5, 2.5, 3.5, 4.5}));
  EXPECT_EQ(c.out_degree(0), 2u);
  EXPECT_EQ(c.out_degree(1), 0u);
}

TEST(GraphCsr, FrozenIterationOrderPinsToDigraphActiveEdgeOrder) {
  // The contract every bitwise guarantee rests on: for each node, the
  // packed sequence equals the digraph's for_each_out sequence (insertion
  // order with inactive slots skipped), and edge_slot maps each packed
  // index back to the original edge id.
  rng gen(11);
  digraph g = erdos_renyi(30, 0.2, gen, 1.0);
  // Punch holes so packed ids != original ids.
  std::size_t removed = 0;
  for (edge_id e = 0; e < g.edge_slots() && removed < 7; e += 3) {
    if (g.edge_active(e)) {
      g.remove_edge(e);
      ++removed;
    }
  }
  const csr_graph c = freeze(g);
  ASSERT_EQ(c.edge_count(), g.edge_count());
  for (node_id v = 0; v < g.node_count(); ++v) {
    std::vector<edge_id> want_ids;
    std::vector<node_id> want_dsts;
    g.for_each_out(v, [&](edge_id e, const edge& ed) {
      want_ids.push_back(e);
      want_dsts.push_back(ed.dst);
    });
    const auto row = frozen_row(c, v);
    ASSERT_EQ(row.size(), want_ids.size()) << "node " << v;
    for (std::size_t i = 0; i < row.size(); ++i) {
      EXPECT_EQ(c.edge_slot(row[i].first), want_ids[i]) << "node " << v;
      EXPECT_EQ(row[i].second, want_dsts[i]) << "node " << v;
      EXPECT_EQ(c.edge_src(row[i].first), v);
    }
  }
}

TEST(GraphCsr, EmptyAndSingleNodeGraphs) {
  const csr_graph empty = freeze(digraph(0));
  EXPECT_EQ(empty.node_count(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);

  const csr_graph single = freeze(digraph(1));
  EXPECT_EQ(single.node_count(), 1u);
  EXPECT_EQ(single.edge_count(), 0u);
  EXPECT_EQ(single.out_degree(0), 0u);
  const std::vector<std::int32_t> dist = bfs_distances(single, 0);
  EXPECT_EQ(dist, (std::vector<std::int32_t>{0}));
}

TEST(GraphCsr, SelfLoopsCannotEnterAFreeze) {
  // The digraph forbids self-loops at construction, so no frozen view can
  // contain one — the reason none of the flat kernels carry a u == v guard.
  digraph g(2);
  EXPECT_THROW(g.add_edge(1, 1, 1.0), precondition_error);
  const csr_graph c = freeze(g);
  for (csr_graph::packed_id k = 0; k < c.edge_count(); ++k)
    EXPECT_NE(c.edge_src(k), c.edge_dst(k));
}

TEST(GraphCsr, MultiComponentFreezeAndTraversal) {
  digraph g(6);  // components {0,1,2}, {3,4}, isolated {5}
  g.add_bidirectional(0, 1, 1.0, 1.0);
  g.add_bidirectional(1, 2, 1.0, 1.0);
  g.add_bidirectional(3, 4, 1.0, 1.0);
  const csr_graph c = freeze(g);
  const std::vector<std::int32_t> dist = bfs_distances(c, 0);
  EXPECT_EQ(dist, bfs_distances(g, 0));
  EXPECT_EQ(dist[2], 2);
  EXPECT_EQ(dist[3], unreachable);
  EXPECT_EQ(dist[5], unreachable);
}

TEST(GraphCsr, FreezeKeepsPerNodeRowsAndCapacitiesAcrossHoles) {
  // Every node's frozen row carries the digraph's (dst, capacity) sequence,
  // and the removed slot is absent from the packed slots.
  rng gen(3);
  digraph g = barabasi_albert(60, 2, gen, 5.0);
  const edge_id hole = g.out_edge_ids(0).front();
  g.remove_edge(hole);
  const csr_graph c = freeze(g);
  ASSERT_EQ(c.edge_count(), g.edge_count());
  EXPECT_EQ(std::find(c.slots().begin(), c.slots().end(), hole),
            c.slots().end());
  for (node_id v = 0; v < g.node_count(); ++v) {
    std::vector<std::pair<node_id, double>> want_row, got_row;
    g.for_each_out(v, [&](edge_id, const edge& ed) {
      want_row.emplace_back(ed.dst, ed.capacity);
    });
    c.for_each_out(v, [&](csr_graph::packed_id k, node_id dst) {
      got_row.emplace_back(dst, c.edge_capacity(k));
    });
    EXPECT_EQ(got_row, want_row) << "node " << v;
  }
}

TEST(GraphCsr, FreezeEqualityDetectsToggles) {
  rng gen(9);
  digraph g = erdos_renyi(20, 0.3, gen, 1.0);
  const csr_graph before = freeze(g);
  EXPECT_EQ(before, freeze(g));  // refreeze of an untouched graph
  const edge_id e = g.out_edge_ids(0).front();
  g.remove_edge(e);
  EXPECT_FALSE(before == freeze(g));
  g.restore_edge(e);
  EXPECT_EQ(before, freeze(g));  // restore puts the slot back in place
}

TEST(GraphCsr, ShortestPathDagMatchesDigraphBitwise) {
  rng gen(17);
  digraph g = erdos_renyi(40, 0.15, gen, 1.0);
  g.remove_edge(g.out_edge_ids(1).front());
  const csr_graph c = freeze(g);
  for (node_id s = 0; s < g.node_count(); s += 7) {
    const sp_dag want = shortest_path_dag(g, s);
    const sp_dag got = shortest_path_dag(c, s);
    EXPECT_EQ(got.dist, want.dist);
    EXPECT_EQ(got.order, want.order);
    ASSERT_EQ(got.sigma.size(), want.sigma.size());
    for (std::size_t v = 0; v < want.sigma.size(); ++v)
      EXPECT_EQ(got.sigma[v], want.sigma[v]) << "sigma mismatch at " << v;
    // pred holds packed indices; mapping through edge_slot recovers the
    // digraph's pred lists element for element.
    ASSERT_EQ(got.pred.size(), want.pred.size());
    for (std::size_t v = 0; v < want.pred.size(); ++v) {
      ASSERT_EQ(got.pred[v].size(), want.pred[v].size());
      for (std::size_t i = 0; i < want.pred[v].size(); ++i)
        EXPECT_EQ(c.edge_slot(got.pred[v][i]), want.pred[v][i]);
    }
  }
}

}  // namespace
}  // namespace lcg::graph
