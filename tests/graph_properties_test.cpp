#include "graph/properties.h"

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/traversal.h"

namespace lcg::graph {
namespace {

TEST(Properties, StrongConnectivity) {
  EXPECT_TRUE(is_strongly_connected(cycle_graph(5)));
  EXPECT_TRUE(is_strongly_connected(path_graph(4)));  // bidirectional
  digraph one_way(2);
  one_way.add_edge(0, 1);
  EXPECT_FALSE(is_strongly_connected(one_way));
  digraph disconnected(3);
  disconnected.add_bidirectional(0, 1);
  EXPECT_FALSE(is_strongly_connected(disconnected));
  EXPECT_TRUE(is_strongly_connected(digraph(1)));
}

TEST(Properties, Eccentricity) {
  const digraph g = path_graph(5);
  EXPECT_EQ(eccentricity(g, 0), 4);
  EXPECT_EQ(eccentricity(g, 2), 2);
  digraph d(2);
  EXPECT_EQ(eccentricity(d, 0), unreachable);
}

TEST(Properties, Diameter) {
  EXPECT_EQ(diameter(path_graph(7)), 6);
  EXPECT_EQ(diameter(cycle_graph(8)), 4);
  EXPECT_EQ(diameter(star_graph(9)), 2);
  EXPECT_EQ(diameter(complete_graph(4)), 1);
  digraph d(2);
  EXPECT_EQ(diameter(d), unreachable);
}

TEST(Properties, LongestShortestPathThrough) {
  const digraph g = path_graph(7);
  // Middle node lies on the full end-to-end path.
  EXPECT_EQ(longest_shortest_path_through(g, 3).d, 6);
  // Endpoint only "lies on" paths that start/end at it.
  EXPECT_EQ(longest_shortest_path_through(g, 0).d, 6);
  // Star centre: every leaf pair path (length 2).
  EXPECT_EQ(longest_shortest_path_through(star_graph(5), 0).d, 2);
  // A leaf: longest path through it has length 2 (leaf <-> other leaf).
  EXPECT_EQ(longest_shortest_path_through(star_graph(5), 1).d, 2);
}

TEST(Properties, LongestShortestPathSkipsNonGeodesics) {
  // Cycle of 6: through node 0, the longest geodesic is length 3.
  EXPECT_EQ(longest_shortest_path_through(cycle_graph(6), 0).d, 3);
}

TEST(Properties, LongestShortestPathThroughReportsFirstPair) {
  // Path 0..6 through 3: (0, 6) and (6, 0) both reach 6; (0, 6) is first.
  const through_path p = longest_shortest_path_through(path_graph(7), 3);
  EXPECT_EQ(p.d, 6);
  EXPECT_EQ(p.s, 0u);
  EXPECT_EQ(p.t, 6u);
  // Star centre: the first leaf pair, (1, 2).
  const through_path star = longest_shortest_path_through(star_graph(5), 0);
  EXPECT_EQ(star.d, 2);
  EXPECT_EQ(star.s, 1u);
  EXPECT_EQ(star.t, 2u);
  // An isolated node lies on no path between distinct nodes.
  const through_path none = longest_shortest_path_through(digraph(3), 1);
  EXPECT_EQ(none.d, unreachable);
  EXPECT_EQ(none.s, invalid_node);
}

TEST(Properties, InDegrees) {
  digraph g(3);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.add_edge(1, 0);
  const auto deg = in_degrees(g);
  EXPECT_EQ(deg[0], 1u);
  EXPECT_EQ(deg[1], 2u);
  EXPECT_EQ(deg[2], 0u);
}

TEST(Properties, MaxDegreeNode) {
  EXPECT_EQ(max_degree_node(star_graph(4)), 0u);
  digraph g(3);
  g.add_bidirectional(0, 1);
  g.add_bidirectional(1, 2);
  EXPECT_EQ(max_degree_node(g), 1u);
}

}  // namespace
}  // namespace lcg::graph
