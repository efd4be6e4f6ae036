#include "graph/io.h"

#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <unordered_set>
#include <vector>

#include "util/error.h"
#include "util/format.h"

namespace lcg::graph {

namespace {

/// 1-based line-numbered error, the shape every reader in this file throws.
[[noreturn]] void fail_at(std::string_view file_kind, std::size_t line,
                          std::string_view what) {
  throw error(std::string(file_kind) + " line " + std::to_string(line) + ": " +
              std::string(what));
}

/// Splits a CSV row on ','. No quoting — none of the formats here need it.
std::vector<std::string_view> split_csv(std::string_view row) {
  std::vector<std::string_view> fields;
  std::size_t start = 0;
  while (true) {
    const std::size_t comma = row.find(',', start);
    if (comma == std::string_view::npos) {
      fields.push_back(row.substr(start));
      return fields;
    }
    fields.push_back(row.substr(start, comma - start));
    start = comma + 1;
  }
}

/// Strips one trailing '\r' so CRLF snapshots parse like LF ones.
std::string_view chomp(std::string_view line) {
  if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
  return line;
}

std::int64_t parse_id_field(std::string_view file_kind, std::size_t line,
                            std::string_view name, std::string_view text) {
  const auto v = parse_whole<std::int64_t>(text);
  if (!v) {
    fail_at(file_kind, line,
            "unparsable " + std::string(name) + " '" + std::string(text) + "'");
  }
  return *v;
}

double parse_amount_field(std::string_view file_kind, std::size_t line,
                          std::string_view name, std::string_view text) {
  const auto v = parse_whole<double>(text);
  if (!v || !std::isfinite(*v) || *v < 0.0) {
    fail_at(file_kind, line,
            "bad " + std::string(name) + " '" + std::string(text) +
                "' (want a finite non-negative number)");
  }
  return *v;
}

}  // namespace

void write_dot(std::ostream& os, const digraph& g, const std::string& name) {
  os << "graph " << name << " {\n";
  const std::vector<edge_id> partner = channel_partners(g);
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    // A channel renders once, at its first edge.
    if (!g.edge_active(e) || partner[e] < e) continue;
    const edge& ed = g.edge_at(e);
    if (partner[e] != invalid_edge) {
      os << "  " << ed.src << " -- " << ed.dst << " [label=\"" << ed.capacity
         << "/" << g.edge_at(partner[e]).capacity << "\"];\n";
    } else {
      os << "  " << ed.src << " -- " << ed.dst << " [dir=forward, label=\""
         << ed.capacity << "\"];\n";
    }
  }
  os << "}\n";
}

void write_edge_list(std::ostream& os, const digraph& g) {
  os << "nodes " << g.node_count() << "\n";
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_active(e)) continue;
    const edge& ed = g.edge_at(e);
    os << ed.src << " " << ed.dst << " " << ed.capacity << "\n";
  }
}

digraph read_edge_list(std::istream& is, const edge_list_options& options) {
  std::string line;
  std::size_t line_no = 0;

  if (!std::getline(is, line))
    fail_at("edge list", 1, "expected 'nodes <count>' header");
  ++line_no;
  std::size_t n = 0;
  {
    std::istringstream header(std::string(chomp(line)));
    std::string keyword, extra;
    std::int64_t count = 0;
    if (!(header >> keyword >> count) || keyword != "nodes" ||
        (header >> extra))
      fail_at("edge list", line_no, "expected 'nodes <count>' header");
    constexpr auto max_count = std::numeric_limits<node_id>::max();
    if (count < 0 || static_cast<std::uint64_t>(count) > max_count)
      fail_at("edge list", line_no,
              "node count " + std::to_string(count) + " out of range [0, " +
                  std::to_string(max_count) + "]");
    n = static_cast<std::size_t>(count);
  }

  digraph g(n);
  // (src << 32) | dst — node ids are 32-bit, so the key is collision-free.
  std::unordered_set<std::uint64_t> seen_pairs;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view body = chomp(line);
    if (body.empty()) continue;
    std::istringstream row{std::string(body)};
    std::int64_t src = -1, dst = -1;
    double capacity = 0.0;
    std::string extra;
    if (!(row >> src >> dst >> capacity) || (row >> extra))
      fail_at("edge list", line_no, "expected '<src> <dst> <capacity>'");
    if (src < 0 || dst < 0 || static_cast<std::size_t>(src) >= n ||
        static_cast<std::size_t>(dst) >= n)
      fail_at("edge list", line_no, "edge endpoint out of range");
    if (src == dst)
      fail_at("edge list", line_no, "self-loop on node " + std::to_string(src));
    if (!std::isfinite(capacity) || capacity < 0.0)
      fail_at("edge list", line_no,
              "bad capacity " + render_double(capacity) +
                  " (want a finite non-negative number)");
    if (!options.allow_parallel_edges) {
      const std::uint64_t key =
          (static_cast<std::uint64_t>(src) << 32) |
          static_cast<std::uint64_t>(dst);
      if (!seen_pairs.insert(key).second) {
        fail_at("edge list", line_no,
                "duplicate edge " + std::to_string(src) + " -> " +
                    std::to_string(dst) +
                    " (set edge_list_options::allow_parallel_edges to "
                    "accept multigraphs)");
      }
    }
    g.add_edge(static_cast<node_id>(src), static_cast<node_id>(dst), capacity);
  }
  return g;
}

// --- CSV snapshots --------------------------------------------------------

namespace {

constexpr std::string_view nodes_header = "id";
constexpr std::string_view channels_header =
    "id,edge1,edge2,node1,node2,capacity";
constexpr std::string_view edges_header =
    "id,channel_id,counter_edge_id,from_node,to_node,balance";

struct channel_rec {
  std::int64_t edge1 = -1;
  std::int64_t edge2 = -1;  // -1: one-way channel
  std::int64_t node1 = -1;
  std::int64_t node2 = -1;
};

struct edge_rec {
  std::int64_t channel = -1;
  std::int64_t counter = -1;  // -1: no reverse edge
  std::int64_t from = -1;
  std::int64_t to = -1;
  double balance = 0.0;
};

/// Reads the header line and checks it byte-for-byte.
void expect_header(std::istream& is, std::string_view file_kind,
                   std::string_view want) {
  std::string line;
  if (!std::getline(is, line) || chomp(line) != want)
    fail_at(file_kind, 1, "expected header '" + std::string(want) + "'");
}

/// Per-row driver: getline, chomp, skip blanks, enforce dense ascending ids
/// in field 0, then hand the remaining fields to `fn`.
template <typename Fn>
std::size_t read_rows(std::istream& is, std::string_view file_kind,
                      std::size_t want_fields, Fn&& fn) {
  std::string line;
  std::size_t line_no = 1;  // header consumed
  std::size_t next_id = 0;
  while (std::getline(is, line)) {
    ++line_no;
    const std::string_view body = chomp(line);
    if (body.empty()) continue;
    const std::vector<std::string_view> fields = split_csv(body);
    if (fields.size() != want_fields) {
      fail_at(file_kind, line_no,
              "expected " + std::to_string(want_fields) + " fields, got " +
                  std::to_string(fields.size()));
    }
    const std::int64_t id = parse_id_field(file_kind, line_no, "id", fields[0]);
    if (id != static_cast<std::int64_t>(next_id)) {
      fail_at(file_kind, line_no,
              "ids must be dense and ascending (expected " +
                  std::to_string(next_id) + ", got " + std::to_string(id) +
                  ")");
    }
    ++next_id;
    fn(line_no, fields);
  }
  return next_id;
}

}  // namespace

void write_csv_snapshot(std::ostream& nodes_os, std::ostream& channels_os,
                        std::ostream& edges_os, const digraph& g) {
  // Dense renumbering of the active edges in slot order.
  std::vector<edge_id> dense(g.edge_slots(), invalid_edge);
  std::vector<edge_id> packed;  // dense id -> original slot
  for (edge_id e = 0; e < g.edge_slots(); ++e) {
    if (!g.edge_active(e)) continue;
    dense[e] = static_cast<edge_id>(packed.size());
    packed.push_back(e);
  }
  const std::size_t m = packed.size();

  // Channels (graph::channel_partners) numbered in first-edge order.
  const std::vector<edge_id> slot_partner = channel_partners(g);
  std::vector<edge_id> partner(m, invalid_edge);  // dense -> dense
  std::vector<edge_id> channel_of(m, invalid_edge);
  std::vector<edge_id> channel_edge1;  // channel id -> dense edge id
  for (edge_id i = 0; i < m; ++i) {
    const edge_id r = slot_partner[packed[i]];
    if (r != invalid_edge) partner[i] = dense[r];
    if (partner[i] < i) {
      channel_of[i] = channel_of[partner[i]];
    } else {
      channel_of[i] = static_cast<edge_id>(channel_edge1.size());
      channel_edge1.push_back(i);
    }
  }

  nodes_os << nodes_header << "\n";
  for (node_id v = 0; v < g.node_count(); ++v) nodes_os << v << "\n";

  channels_os << channels_header << "\n";
  for (edge_id c = 0; c < channel_edge1.size(); ++c) {
    const edge_id i = channel_edge1[c];
    const edge& ed = g.edge_at(packed[i]);
    double capacity = ed.capacity;
    channels_os << c << "," << i << ",";
    if (partner[i] == invalid_edge) {
      channels_os << -1;
    } else {
      channels_os << partner[i];
      capacity += g.edge_at(packed[partner[i]]).capacity;
    }
    channels_os << "," << ed.src << "," << ed.dst << ","
                << render_double(capacity) << "\n";
  }

  edges_os << edges_header << "\n";
  for (edge_id i = 0; i < m; ++i) {
    const edge& ed = g.edge_at(packed[i]);
    edges_os << i << "," << channel_of[i] << ",";
    if (partner[i] == invalid_edge)
      edges_os << -1;
    else
      edges_os << partner[i];
    edges_os << "," << ed.src << "," << ed.dst << ","
             << render_double(ed.capacity) << "\n";
  }
}

digraph read_csv_snapshot(std::istream& nodes_is, std::istream& channels_is,
                          std::istream& edges_is) {
  expect_header(nodes_is, "nodes.csv", nodes_header);
  const std::size_t n =
      read_rows(nodes_is, "nodes.csv", 1, [](std::size_t, const auto&) {});

  expect_header(channels_is, "channels.csv", channels_header);
  std::vector<channel_rec> channels;
  read_rows(channels_is, "channels.csv", 6,
            [&](std::size_t line_no, const std::vector<std::string_view>& f) {
              channel_rec rec;
              rec.edge1 =
                  parse_id_field("channels.csv", line_no, "edge1", f[1]);
              rec.edge2 =
                  parse_id_field("channels.csv", line_no, "edge2", f[2]);
              rec.node1 =
                  parse_id_field("channels.csv", line_no, "node1", f[3]);
              rec.node2 =
                  parse_id_field("channels.csv", line_no, "node2", f[4]);
              parse_amount_field("channels.csv", line_no, "capacity", f[5]);
              for (const std::int64_t v : {rec.node1, rec.node2}) {
                if (v < 0 || static_cast<std::size_t>(v) >= n)
                  fail_at("channels.csv", line_no,
                          "dangling node id " + std::to_string(v));
              }
              channels.push_back(rec);
            });

  expect_header(edges_is, "edges.csv", edges_header);
  std::vector<edge_rec> edges;
  std::vector<std::size_t> edge_line;  // for post-pass diagnostics
  read_rows(edges_is, "edges.csv", 6,
            [&](std::size_t line_no, const std::vector<std::string_view>& f) {
              edge_rec rec;
              rec.channel =
                  parse_id_field("edges.csv", line_no, "channel_id", f[1]);
              rec.counter =
                  parse_id_field("edges.csv", line_no, "counter_edge_id", f[2]);
              rec.from =
                  parse_id_field("edges.csv", line_no, "from_node", f[3]);
              rec.to = parse_id_field("edges.csv", line_no, "to_node", f[4]);
              rec.balance =
                  parse_amount_field("edges.csv", line_no, "balance", f[5]);
              for (const std::int64_t v : {rec.from, rec.to}) {
                if (v < 0 || static_cast<std::size_t>(v) >= n)
                  fail_at("edges.csv", line_no,
                          "dangling node id " + std::to_string(v));
              }
              if (rec.from == rec.to)
                fail_at("edges.csv", line_no,
                        "self-loop on node " + std::to_string(rec.from));
              if (rec.channel < 0 ||
                  static_cast<std::size_t>(rec.channel) >= channels.size())
                fail_at("edges.csv", line_no,
                        "dangling channel id " + std::to_string(rec.channel));
              edges.push_back(rec);
              edge_line.push_back(line_no);
            });

  // Cross-file consistency (everything below indexes validated ids).
  const auto m = static_cast<std::int64_t>(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const edge_rec& rec = edges[i];
    if (rec.counter != -1) {
      if (rec.counter < 0 || rec.counter >= m)
        fail_at("edges.csv", edge_line[i],
                "dangling counter edge id " + std::to_string(rec.counter));
      const edge_rec& other = edges[static_cast<std::size_t>(rec.counter)];
      if (other.counter != static_cast<std::int64_t>(i) ||
          other.channel != rec.channel || other.from != rec.to ||
          other.to != rec.from)
        fail_at("edges.csv", edge_line[i],
                "counter edge " + std::to_string(rec.counter) +
                    " does not mirror this edge");
    }
  }
  for (std::size_t c = 0; c < channels.size(); ++c) {
    const channel_rec& rec = channels[c];
    const std::size_t line_no = c + 2;  // header + dense ids
    if (rec.edge1 < 0 || rec.edge1 >= m)
      fail_at("channels.csv", line_no,
              "dangling edge1 id " + std::to_string(rec.edge1));
    const edge_rec& e1 = edges[static_cast<std::size_t>(rec.edge1)];
    if (e1.channel != static_cast<std::int64_t>(c))
      fail_at("channels.csv", line_no,
              "edge1 belongs to channel " + std::to_string(e1.channel));
    if (e1.from != rec.node1 || e1.to != rec.node2)
      fail_at("channels.csv", line_no,
              "channel endpoints disagree with edge1");
    if (rec.edge2 != e1.counter)
      fail_at("channels.csv", line_no,
              "edge2 disagrees with edge1's counter edge");
  }

  digraph g(n);
  for (const edge_rec& rec : edges) {
    g.add_edge(static_cast<node_id>(rec.from), static_cast<node_id>(rec.to),
               rec.balance);
  }
  return g;
}

void write_csv_snapshot(const std::string& dir, const digraph& g) {
  std::filesystem::create_directories(dir);
  const std::filesystem::path base(dir);
  std::ofstream nodes(base / "nodes.csv");
  std::ofstream channels(base / "channels.csv");
  std::ofstream edges(base / "edges.csv");
  if (!nodes || !channels || !edges)
    throw error("write_csv_snapshot: cannot create files under " + dir);
  write_csv_snapshot(nodes, channels, edges, g);
  if (!nodes.flush() || !channels.flush() || !edges.flush())
    throw error("write_csv_snapshot: write failed under " + dir);
}

digraph read_csv_snapshot(const std::string& dir) {
  const std::filesystem::path base(dir);
  std::ifstream nodes(base / "nodes.csv");
  if (!nodes)
    throw error("read_csv_snapshot: cannot open " +
                (base / "nodes.csv").string());
  std::ifstream channels(base / "channels.csv");
  if (!channels)
    throw error("read_csv_snapshot: cannot open " +
                (base / "channels.csv").string());
  std::ifstream edges(base / "edges.csv");
  if (!edges)
    throw error("read_csv_snapshot: cannot open " +
                (base / "edges.csv").string());
  return read_csv_snapshot(nodes, channels, edges);
}

}  // namespace lcg::graph
