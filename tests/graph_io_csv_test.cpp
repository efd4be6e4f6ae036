// graph/io.h CSV snapshots (CLoTH nodes/edges/channels shape): write→read
// byte identity, channel pairing, malformed-input error paths with located
// line numbers, and the committed data/snapshots/ba400 fixture parsing —
// the file scale/snapshot_host loads in CI.

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "graph/generators.h"
#include "graph/io.h"
#include "util/error.h"
#include "util/rng.h"

namespace lcg::graph {
namespace {

struct snapshot_text {
  std::string nodes, channels, edges;
};

snapshot_text write_to_text(const digraph& g) {
  std::ostringstream nodes, channels, edges;
  write_csv_snapshot(nodes, channels, edges, g);
  return {nodes.str(), channels.str(), edges.str()};
}

digraph read_from_text(const snapshot_text& t) {
  std::istringstream nodes(t.nodes), channels(t.channels), edges(t.edges);
  return read_csv_snapshot(nodes, channels, edges);
}

/// The lcg::error message thrown by reading `t` (test failure if none).
std::string read_error_of(const snapshot_text& t) {
  try {
    (void)read_from_text(t);
  } catch (const error& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected lcg::error";
  return {};
}

/// A canonical valid snapshot: one channel 0<->1 plus a one-way edge 1->2.
snapshot_text small_snapshot() {
  digraph g(3);
  g.add_bidirectional(0, 1, 4.0, 6.0);
  g.add_edge(1, 2, 2.5);
  return write_to_text(g);
}

TEST(GraphIoCsv, WriteProducesTheCLoThShape) {
  const snapshot_text t = small_snapshot();
  EXPECT_EQ(t.nodes, "id\n0\n1\n2\n");
  EXPECT_EQ(t.channels,
            "id,edge1,edge2,node1,node2,capacity\n"
            "0,0,1,0,1,10\n"
            "1,2,-1,1,2,2.5\n");
  EXPECT_EQ(t.edges,
            "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
            "0,0,1,0,1,4\n"
            "1,0,0,1,0,6\n"
            "2,1,-1,1,2,2.5\n");
}

TEST(GraphIoCsv, WriteReadWriteIsByteIdentical) {
  // Dense ids survive a round trip unchanged, so a second write of the
  // parsed graph reproduces the first byte for byte — including with
  // inactive slots in the source (they compact away in write #1).
  rng gen(21);
  digraph g = barabasi_albert(120, 2, gen, 7.5);
  g.remove_edge(g.out_edge_ids(3).front());
  g.remove_edge(g.out_edge_ids(10).front());
  const snapshot_text first = write_to_text(g);
  const digraph parsed = read_from_text(first);
  EXPECT_EQ(parsed.node_count(), g.node_count());
  EXPECT_EQ(parsed.edge_count(), g.edge_count());
  const snapshot_text second = write_to_text(parsed);
  EXPECT_EQ(second.nodes, first.nodes);
  EXPECT_EQ(second.channels, first.channels);
  EXPECT_EQ(second.edges, first.edges);
}

TEST(GraphIoCsv, ReadPreservesPerNodeAdjacencyAndBalances) {
  rng gen(8);
  const digraph g = erdos_renyi(25, 0.25, gen, 3.25);
  const digraph back = read_from_text(write_to_text(g));
  ASSERT_EQ(back.node_count(), g.node_count());
  ASSERT_EQ(back.edge_count(), g.edge_count());
  for (node_id v = 0; v < g.node_count(); ++v) {
    std::vector<std::pair<node_id, double>> want, got;
    g.for_each_out(v, [&](edge_id, const edge& ed) {
      want.emplace_back(ed.dst, ed.capacity);
    });
    back.for_each_out(v, [&](edge_id, const edge& ed) {
      got.emplace_back(ed.dst, ed.capacity);
    });
    EXPECT_EQ(got, want) << "node " << v;
  }
}

TEST(GraphIoCsv, EmptyGraphRoundTrips) {
  const snapshot_text t = write_to_text(digraph(0));
  const digraph back = read_from_text(t);
  EXPECT_EQ(back.node_count(), 0u);
  EXPECT_EQ(back.edge_count(), 0u);
}

TEST(GraphIoCsv, RejectsBadHeaders) {
  snapshot_text t = small_snapshot();
  t.nodes = "identifier\n0\n";
  EXPECT_NE(read_error_of(t).find("nodes.csv line 1"), std::string::npos);

  t = small_snapshot();
  t.edges = "id,channel,counter,from,to,balance\n";
  EXPECT_NE(read_error_of(t).find("edges.csv line 1"), std::string::npos);
}

TEST(GraphIoCsv, RejectsTruncatedRowsWithLineNumber) {
  snapshot_text t = small_snapshot();
  // Drop the balance field of the edge on line 3.
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,0,1,0\n"
      "2,1,-1,1,2,2.5\n";
  const std::string msg = read_error_of(t);
  EXPECT_NE(msg.find("edges.csv line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("expected 6 fields"), std::string::npos) << msg;
}

TEST(GraphIoCsv, RejectsBadBalancesAndCapacities) {
  snapshot_text t = small_snapshot();
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,0,1,0,not_a_number\n"
      "2,1,-1,1,2,2.5\n";
  std::string msg = read_error_of(t);
  EXPECT_NE(msg.find("edges.csv line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad balance"), std::string::npos) << msg;

  t = small_snapshot();
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,-4\n"
      "1,0,0,1,0,6\n"
      "2,1,-1,1,2,2.5\n";
  EXPECT_NE(read_error_of(t).find("bad balance"), std::string::npos);

  t = small_snapshot();
  t.channels =
      "id,edge1,edge2,node1,node2,capacity\n"
      "0,0,1,0,1,inf\n"
      "1,2,-1,1,2,2.5\n";
  msg = read_error_of(t);
  EXPECT_NE(msg.find("channels.csv line 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("bad capacity"), std::string::npos) << msg;
}

TEST(GraphIoCsv, RejectsDanglingNodeAndChannelIds) {
  snapshot_text t = small_snapshot();
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,0,1,0,6\n"
      "2,1,-1,1,9,2.5\n";  // node 9 not in nodes.csv
  std::string msg = read_error_of(t);
  EXPECT_NE(msg.find("edges.csv line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("dangling node id 9"), std::string::npos) << msg;

  t = small_snapshot();
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,0,1,0,6\n"
      "2,7,-1,1,2,2.5\n";  // channel 7 does not exist
  msg = read_error_of(t);
  EXPECT_NE(msg.find("dangling channel id 7"), std::string::npos) << msg;

  t = small_snapshot();
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,0,1,0,6\n"
      "2,1,-1,2,2,2.5\n";  // a self-loop, which no digraph can hold
  msg = read_error_of(t);
  EXPECT_NE(msg.find("edges.csv line 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("self-loop on node 2"), std::string::npos) << msg;
}

TEST(GraphIoCsv, RejectsNonDenseIdsAndBrokenCounterPairs) {
  snapshot_text t = small_snapshot();
  t.nodes = "id\n0\n2\n1\n";  // out of order
  EXPECT_NE(read_error_of(t).find("dense and ascending"), std::string::npos);

  t = small_snapshot();
  // Edge 1 claims counter 2, but edge 2 is 1->2 (doesn't mirror it).
  t.edges =
      "id,channel_id,counter_edge_id,from_node,to_node,balance\n"
      "0,0,1,0,1,4\n"
      "1,0,2,1,0,6\n"
      "2,1,-1,1,2,2.5\n";
  const std::string msg = read_error_of(t);
  EXPECT_NE(msg.find("does not mirror"), std::string::npos) << msg;
}

TEST(GraphIoCsv, RejectsChannelEdgeInconsistencies) {
  snapshot_text t = small_snapshot();
  // Channel 1's endpoints disagree with its edge1 (2->1 vs actual 1->2).
  t.channels =
      "id,edge1,edge2,node1,node2,capacity\n"
      "0,0,1,0,1,10\n"
      "1,2,-1,2,1,2.5\n";
  std::string msg = read_error_of(t);
  EXPECT_NE(msg.find("channels.csv line 3"), std::string::npos) << msg;
  EXPECT_NE(msg.find("endpoints disagree"), std::string::npos) << msg;

  t = small_snapshot();
  // Channel 1 claims edge2 = 0, but edge 2's counter is -1.
  t.channels =
      "id,edge1,edge2,node1,node2,capacity\n"
      "0,0,1,0,1,10\n"
      "1,2,0,1,2,2.5\n";
  msg = read_error_of(t);
  EXPECT_NE(msg.find("disagrees with edge1's counter"), std::string::npos)
      << msg;
}

TEST(GraphIoCsv, CommittedFixtureParses) {
  // The committed snapshot scale/snapshot_host loads in CI: BA host,
  // n = 400, attach 2, uniform balance 10 per direction.
  const std::string dir = std::string(LCG_SNAPSHOT_DIR) + "/ba400";
  ASSERT_TRUE(std::filesystem::exists(dir)) << dir;
  const digraph g = read_csv_snapshot(dir);
  EXPECT_EQ(g.node_count(), 400u);
  EXPECT_EQ(g.edge_count(), 1594u);
  for (edge_id e = 0; e < g.edge_slots(); ++e)
    ASSERT_EQ(g.edge_at(e).capacity, 10.0);
  // Byte identity against the committed files proves the writer still
  // produces exactly what is checked in.
  std::ostringstream nodes, channels, edges;
  write_csv_snapshot(nodes, channels, edges, g);
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(nodes.str(), slurp(dir + "/nodes.csv"));
  EXPECT_EQ(channels.str(), slurp(dir + "/channels.csv"));
  EXPECT_EQ(edges.str(), slurp(dir + "/edges.csv"));
}

TEST(GraphIoCsv, CommittedFixtureRegenerates) {
  // The fixture is reproducible, not hand-made: data/snapshots/ba400 is
  // barabasi_albert(400, 2, rng(400)) with balance 10 per direction,
  // written by write_csv_snapshot. Regenerating it must give the committed
  // bytes; write_csv_snapshot(dir, g) with the same graph rewrites it.
  const std::string dir = std::string(LCG_SNAPSHOT_DIR) + "/ba400";
  rng gen(400);
  const snapshot_text want = write_to_text(barabasi_albert(400, 2, gen, 10.0));
  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  };
  EXPECT_EQ(slurp(dir + "/nodes.csv"), want.nodes);
  EXPECT_EQ(slurp(dir + "/channels.csv"), want.channels);
  EXPECT_EQ(slurp(dir + "/edges.csv"), want.edges);
}

TEST(GraphIoCsv, DirectoryConvenienceRoundTrip) {
  rng gen(31);
  const digraph g = barabasi_albert(50, 2, gen, 1.0);
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "lcg_csv_roundtrip_test";
  std::filesystem::remove_all(dir);
  write_csv_snapshot(dir.string(), g);
  const digraph back = read_csv_snapshot(dir.string());
  EXPECT_EQ(back.node_count(), g.node_count());
  EXPECT_EQ(back.edge_count(), g.edge_count());
  std::filesystem::remove_all(dir);
  EXPECT_THROW((void)read_csv_snapshot(dir.string()), error);
}

}  // namespace
}  // namespace lcg::graph
