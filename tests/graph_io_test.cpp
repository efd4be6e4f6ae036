#include "graph/io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "graph/generators.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::graph {
namespace {

TEST(GraphIo, EdgeListRoundTrip) {
  rng gen(5);
  const digraph original = erdos_renyi(10, 0.3, gen, /*capacity=*/2.5);
  std::stringstream buffer;
  write_edge_list(buffer, original);
  const digraph loaded = read_edge_list(buffer);
  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.edge_count(), original.edge_count());
  for (node_id u = 0; u < original.node_count(); ++u) {
    EXPECT_EQ(loaded.out_neighbors(u), original.out_neighbors(u)) << u;
  }
}

TEST(GraphIo, EdgeListSkipsInactiveEdges) {
  digraph g(3);
  const edge_id e = g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.remove_edge(e);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const digraph loaded = read_edge_list(buffer);
  EXPECT_EQ(loaded.edge_count(), 1u);
  EXPECT_EQ(loaded.find_edge(0, 1), invalid_edge);
}

TEST(GraphIo, EdgeListPreservesCapacities) {
  digraph g(2);
  g.add_edge(0, 1, 3.25);
  std::stringstream buffer;
  write_edge_list(buffer, g);
  const digraph loaded = read_edge_list(buffer);
  EXPECT_DOUBLE_EQ(loaded.edge_at(0).capacity, 3.25);
}

TEST(GraphIo, ReadRejectsBadHeader) {
  std::stringstream bad("vertices 3\n0 1 1.0\n");
  EXPECT_THROW(read_edge_list(bad), error);
}

TEST(GraphIo, ReadRejectsOutOfRangeEndpoint) {
  std::stringstream bad("nodes 2\n0 5 1.0\n");
  EXPECT_THROW(read_edge_list(bad), error);
}

/// Captures the lcg::error message `fn` throws (fails the test if it
/// doesn't throw).
template <typename Fn>
std::string error_message_of(Fn&& fn) {
  try {
    fn();
  } catch (const error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected lcg::error";
  return {};
}

TEST(GraphIo, ReadRejectsDuplicateEdgesWithLineNumber) {
  // ISSUE 8 regression: the reader used to accept repeated (src, dst)
  // pairs silently, turning edge-list typos into parallel channels.
  std::stringstream dup("nodes 3\n0 1 1.0\n1 2 1.0\n0 1 2.5\n");
  const std::string msg =
      error_message_of([&] { (void)read_edge_list(dup); });
  EXPECT_NE(msg.find("line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("duplicate edge 0 -> 1"), std::string::npos) << msg;
}

TEST(GraphIo, ReadAcceptsParallelEdgesWhenOptedIn) {
  // The digraph is a multigraph; intentional parallel channels opt in.
  std::stringstream dup("nodes 2\n0 1 1.0\n0 1 2.5\n");
  edge_list_options options;
  options.allow_parallel_edges = true;
  const digraph g = read_edge_list(dup, options);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_DOUBLE_EQ(g.edge_at(0).capacity, 1.0);
  EXPECT_DOUBLE_EQ(g.edge_at(1).capacity, 2.5);
}

TEST(GraphIo, ReadLocatesMalformedAndOutOfRangeLines) {
  // ISSUE 8 regression: errors used to be unlocated ("malformed edge
  // line"); every message now carries the 1-based line number.
  std::stringstream truncated("nodes 3\n0 1 1.0\n1 2\n");
  const std::string trunc_msg =
      error_message_of([&] { (void)read_edge_list(truncated); });
  EXPECT_NE(trunc_msg.find("line 3"), std::string::npos) << trunc_msg;

  std::stringstream trailing("nodes 3\n0 1 1.0 garbage\n");
  const std::string trail_msg =
      error_message_of([&] { (void)read_edge_list(trailing); });
  EXPECT_NE(trail_msg.find("line 2"), std::string::npos) << trail_msg;

  std::stringstream out_of_range("nodes 2\n0 1 1.0\n\n0 5 1.0\n");
  const std::string range_msg =
      error_message_of([&] { (void)read_edge_list(out_of_range); });
  // Line 3 is blank (tolerated); the offending row is physical line 4.
  EXPECT_NE(range_msg.find("line 4"), std::string::npos) << range_msg;
  EXPECT_NE(range_msg.find("out of range"), std::string::npos) << range_msg;

  // Rows the digraph would reject (self-loop, negative capacity) and node
  // counts it cannot hold fail at the parse site, located like the rest.
  const struct {
    const char* text;
    const char* where;
    const char* what;
  } bad_rows[] = {
      {"nodes 3\n0 1 1.0\n0 0 1\n", "line 3", "self-loop on node 0"},
      {"nodes 3\n0 1 -1\n", "line 2", "bad capacity"},
      {"nodes -1\n", "line 1", "node count -1 out of range"},
      {"nodes 99999999999\n", "line 1", "out of range"},
  };
  for (const auto& row : bad_rows) {
    std::stringstream in(row.text);
    const std::string msg =
        error_message_of([&] { (void)read_edge_list(in); });
    EXPECT_NE(msg.find(std::string("edge list ") + row.where),
              std::string::npos)
        << row.text << " -> " << msg;
    EXPECT_NE(msg.find(row.what), std::string::npos)
        << row.text << " -> " << msg;
  }
}

TEST(GraphIo, ReadRejectsNegativeEndpoint) {
  std::stringstream bad("nodes 2\n-1 1 1.0\n");
  const std::string msg =
      error_message_of([&] { (void)read_edge_list(bad); });
  EXPECT_NE(msg.find("line 2"), std::string::npos) << msg;
}

TEST(GraphIo, DotRendersChannelsAsUndirected) {
  digraph g(3);
  g.add_bidirectional(0, 1, 4.0, 6.0);
  g.add_edge(1, 2, 1.0);  // unpaired direction
  std::stringstream buffer;
  write_dot(buffer, g, "test");
  const std::string out = buffer.str();
  EXPECT_NE(out.find("graph test {"), std::string::npos);
  EXPECT_NE(out.find("0 -- 1 [label=\"4/6\"]"), std::string::npos);
  EXPECT_NE(out.find("dir=forward"), std::string::npos);
}

TEST(GraphIo, EmptyGraph) {
  std::stringstream buffer;
  write_edge_list(buffer, digraph(0));
  const digraph loaded = read_edge_list(buffer);
  EXPECT_EQ(loaded.node_count(), 0u);
  EXPECT_EQ(loaded.edge_count(), 0u);
}

}  // namespace
}  // namespace lcg::graph
