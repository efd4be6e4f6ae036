#include "dist/zipf.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <tuple>

#include "arena/provider.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace lcg::dist {
namespace {

constexpr double kTol = 1e-12;

TEST(RankFactors, NoTies) {
  // Degrees 5 > 3 > 1: plain Zipf masses 1, 1/2^s, 1/3^s.
  const std::vector<std::size_t> degrees{3, 5, 1};
  const auto rf = rank_factors(degrees, 1.0);
  EXPECT_NEAR(rf[1], 1.0, kTol);       // degree 5 -> rank 1
  EXPECT_NEAR(rf[0], 0.5, kTol);       // degree 3 -> rank 2
  EXPECT_NEAR(rf[2], 1.0 / 3.0, kTol); // degree 1 -> rank 3
}

TEST(RankFactors, TiesAreAveraged) {
  // Degrees {3, 1, 1}: ranks 2 and 3 are tied; the paper averages their
  // Zipf masses: rf = (1/2 + 1/3)/2 = 5/12 at s = 1.
  const std::vector<std::size_t> degrees{3, 1, 1};
  const auto rf = rank_factors(degrees, 1.0);
  EXPECT_NEAR(rf[0], 1.0, kTol);
  EXPECT_NEAR(rf[1], 5.0 / 12.0, kTol);
  EXPECT_NEAR(rf[2], 5.0 / 12.0, kTol);
}

TEST(RankFactors, AllTiedEqualsUniformMass) {
  const std::vector<std::size_t> degrees{2, 2, 2, 2};
  const auto rf = rank_factors(degrees, 1.5);
  const double expected =
      (1.0 + std::pow(2.0, -1.5) + std::pow(3.0, -1.5) +
       std::pow(4.0, -1.5)) /
      4.0;
  for (const double f : rf) EXPECT_NEAR(f, expected, kTol);
}

TEST(RankFactors, SZeroIsUniform) {
  const std::vector<std::size_t> degrees{9, 0, 4};
  const auto rf = rank_factors(degrees, 0.0);
  for (const double f : rf) EXPECT_NEAR(f, 1.0, kTol);
}

TEST(RankFactors, EmptyInput) {
  EXPECT_TRUE(rank_factors(std::vector<std::size_t>{}, 1.0).empty());
}

// The paper's claimed property: a strictly better rank block gives a
// strictly larger rank factor (r1(v1) < r2(v2) => rf(v1) > rf(v2)).
class RankFactorMonotonicity : public ::testing::TestWithParam<double> {};

TEST_P(RankFactorMonotonicity, HigherDegreeHigherFactor) {
  const double s = GetParam();
  rng gen(42);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<std::size_t> degrees(12);
    for (auto& d : degrees)
      d = static_cast<std::size_t>(gen.uniform_int(0, 5));
    const auto rf = rank_factors(degrees, s);
    for (std::size_t i = 0; i < degrees.size(); ++i) {
      for (std::size_t j = 0; j < degrees.size(); ++j) {
        if (degrees[i] > degrees[j]) {
          EXPECT_GT(rf[i], rf[j]) << "s=" << s;
        } else if (degrees[i] == degrees[j]) {
          EXPECT_NEAR(rf[i], rf[j], kTol);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Exponents, RankFactorMonotonicity,
                         ::testing::Values(0.5, 1.0, 2.0, 3.5));

TEST(TransactionProbabilities, StarLeafHandComputed) {
  // Star with centre 0 and leaves 1..3, sender = leaf 1, s = 1.
  // V' in-degrees (u's edges removed): centre 2, leaves 1 and 1.
  // rf: centre 1; leaves (1/2 + 1/3)/2 = 5/12. Sum = 11/6.
  const graph::digraph g = graph::star_graph(3);
  const auto p = transaction_probabilities(g, 1, 1.0);
  EXPECT_NEAR(p[0], 6.0 / 11.0, kTol);
  EXPECT_NEAR(p[1], 0.0, kTol);
  EXPECT_NEAR(p[2], 5.0 / 22.0, kTol);
  EXPECT_NEAR(p[3], 5.0 / 22.0, kTol);
}

TEST(TransactionProbabilities, StarCenterSeesUniformLeaves) {
  const graph::digraph g = graph::star_graph(3);
  const auto p = transaction_probabilities(g, 0, 1.0);
  EXPECT_NEAR(p[0], 0.0, kTol);
  for (graph::node_id leaf = 1; leaf <= 3; ++leaf)
    EXPECT_NEAR(p[leaf], 1.0 / 3.0, kTol);
}

TEST(TransactionProbabilities, SumsToOne) {
  rng gen(17);
  const graph::digraph g = graph::erdos_renyi(15, 0.3, gen);
  for (const double s : {0.0, 1.0, 2.5}) {
    for (graph::node_id u = 0; u < g.node_count(); ++u) {
      const auto p = transaction_probabilities(g, u, s);
      EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
      EXPECT_NEAR(p[u], 0.0, kTol);
    }
  }
}

TEST(TransactionProbabilities, RemovingSenderEdgesMatters) {
  // Path 0-1-2: from 0's perspective, node 1's in-degree drops to 1 after
  // removing 0's edge, equal to node 2's; so both tie.
  const graph::digraph g = graph::path_graph(3);
  const auto p = transaction_probabilities(g, 0, 1.0);
  EXPECT_NEAR(p[1], p[2], kTol);
}

TEST(NewcomerProbabilities, StarHandComputed) {
  // Newcomer ranks: centre degree 3 (rank 1), leaves degree 1 (ranks 2-4).
  // rf: 1 and (1/2 + 1/3 + 1/4)/3 = 13/36; sum = 1 + 13/12 = 25/12.
  const graph::digraph g = graph::star_graph(3);
  const auto p = newcomer_transaction_probabilities(g, 1.0);
  EXPECT_NEAR(p[0], 12.0 / 25.0, kTol);
  for (graph::node_id leaf = 1; leaf <= 3; ++leaf)
    EXPECT_NEAR(p[leaf], 13.0 / 75.0, kTol);
}

TEST(ProbabilityMatrix, RowsMatchPerSenderCalls) {
  rng gen(23);
  const graph::digraph g = graph::erdos_renyi(8, 0.4, gen);
  const auto matrix = transaction_probability_matrix(g, 1.2);
  for (graph::node_id u = 0; u < g.node_count(); ++u)
    EXPECT_EQ(matrix[u], transaction_probabilities(g, u, 1.2));
}

// --- Bitwise oracle ---------------------------------------------------------
//
// The row builder ranks by a counting pass and sums tie blocks from a
// pow(r, -s) table. The reference below is the historical implementation it
// replaced — a stable sort per row and one pow call per rank — kept verbatim
// so every row can be compared bit for bit, not within a tolerance.

std::vector<double> oracle_rank_factors(const std::vector<std::size_t>& degrees,
                                        double s) {
  const std::size_t n = degrees.size();
  std::vector<double> rf(n, 0.0);
  if (n == 0) return rf;
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&degrees](std::size_t a, std::size_t b) {
                     return degrees[a] > degrees[b];
                   });
  std::size_t block_start = 0;
  while (block_start < n) {
    std::size_t block_end = block_start + 1;
    while (block_end < n &&
           degrees[order[block_end]] == degrees[order[block_start]])
      ++block_end;
    double mass = 0.0;
    for (std::size_t r = block_start + 1; r <= block_end; ++r)
      mass += std::pow(static_cast<double>(r), -s);
    mass /= static_cast<double>(block_end - block_start);
    for (std::size_t i = block_start; i < block_end; ++i)
      rf[order[i]] = mass;
    block_start = block_end;
  }
  return rf;
}

std::vector<std::size_t> oracle_in_degrees(const graph::digraph& g,
                                           graph::node_id exclude) {
  std::vector<std::size_t> deg(g.node_count(), 0);
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    std::size_t d = 0;
    g.for_each_in(v, [&](graph::edge_id, const graph::edge& e) {
      if (exclude == graph::invalid_node ||
          (e.src != exclude && e.dst != exclude))
        ++d;
    });
    deg[v] = d;
  }
  return deg;
}

/// Sender row (u valid) or newcomer row (u == invalid_node) as the
/// historical code built it, mask included.
std::vector<double> oracle_sender_row(const graph::digraph& g,
                                      graph::node_id u, double s,
                                      rank_basis basis,
                                      const std::vector<char>* active) {
  const std::size_t n = g.node_count();
  if (u != graph::invalid_node && active != nullptr && !(*active)[u])
    return std::vector<double>(n, 0.0);
  const std::vector<std::size_t> deg = oracle_in_degrees(
      g, basis == rank_basis::drop_sender_edges ? u : graph::invalid_node);
  const auto member = [&](graph::node_id v) {
    return v != u && (active == nullptr || (*active)[v]);
  };
  std::vector<std::size_t> others;
  for (graph::node_id v = 0; v < n; ++v)
    if (member(v)) others.push_back(deg[v]);
  const std::vector<double> rf = oracle_rank_factors(others, s);
  std::vector<double> p(n, 0.0);
  const double total = std::accumulate(rf.begin(), rf.end(), 0.0);
  if (total <= 0.0) return p;
  std::size_t i = 0;
  for (graph::node_id v = 0; v < n; ++v)
    if (member(v)) p[v] = rf[i++] / total;
  return p;
}

std::vector<std::uint64_t> bits(const std::vector<double>& v) {
  std::vector<std::uint64_t> out;
  out.reserve(v.size());
  for (const double x : v) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

constexpr double kExponents[] = {0.0, 0.5, 1.0, 1.7, 2.3};
constexpr std::size_t kSizes[] = {1, 2, 3, 240};

/// A graph whose in-degrees tie heavily: few random channels (some of them
/// parallel, so the sender decrement must count multiplicity), then a share
/// of edges toggled off so only ACTIVE edges may count.
graph::digraph tie_heavy_graph(std::size_t n, rng& gen) {
  graph::digraph g(n);
  if (n < 2) return g;
  const std::size_t channels = 1 + n + n / 2;
  for (std::size_t c = 0; c < channels; ++c) {
    const auto a = static_cast<graph::node_id>(
        gen.uniform_int(0, static_cast<std::int64_t>(n) - 1));
    auto b = static_cast<graph::node_id>(
        gen.uniform_int(0, static_cast<std::int64_t>(n) - 2));
    if (b >= a) ++b;
    if (gen.bernoulli(0.8)) {
      g.add_bidirectional(a, b);
    } else {
      g.add_edge(a, b);
    }
  }
  for (graph::edge_id e = 0; e < g.edge_slots(); ++e)
    if (gen.bernoulli(0.15)) g.remove_edge(e);
  return g;
}

std::vector<char> random_mask(std::size_t n, rng& gen) {
  std::vector<char> mask(n);
  for (char& m : mask) m = gen.bernoulli(0.7) ? 1 : 0;
  return mask;
}

TEST(ZipfBitwise, RankFactorsMatchSortRanking) {
  rng gen(101);
  for (const double s : kExponents) {
    for (const std::size_t n : kSizes) {
      for (int trial = 0; trial < 25; ++trial) {
        // Degrees from a tiny range: heavy ties, blocks of every size.
        const std::int64_t top = trial % 2 == 0 ? 3 : 40;
        std::vector<std::size_t> degrees(n);
        for (std::size_t& d : degrees)
          d = static_cast<std::size_t>(gen.uniform_int(0, top));
        EXPECT_EQ(bits(rank_factors(degrees, s)),
                  bits(oracle_rank_factors(degrees, s)))
            << "s=" << s << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST(ZipfBitwise, SenderRowsMatchSortRanking) {
  rng gen(202);
  for (const std::size_t n : kSizes) {
    for (int trial = 0; trial < 3; ++trial) {
      const graph::digraph g = tie_heavy_graph(n, gen);
      const std::vector<char> mask = random_mask(n, gen);
      for (const double s : kExponents) {
        for (const rank_basis basis : {rank_basis::keep_sender_edges,
                                       rank_basis::drop_sender_edges}) {
          for (const std::vector<char>* active : {
                   static_cast<const std::vector<char>*>(nullptr), &mask}) {
            for (graph::node_id u = 0; u < n; ++u) {
              ASSERT_EQ(bits(transaction_probabilities(g, u, s, basis, active)),
                        bits(oracle_sender_row(g, u, s, basis, active)))
                  << "n=" << n << " trial=" << trial << " s=" << s
                  << " basis=" << static_cast<int>(basis)
                  << " masked=" << (active != nullptr) << " u=" << u;
            }
          }
        }
        EXPECT_EQ(bits(newcomer_transaction_probabilities(g, s)),
                  bits(oracle_sender_row(g, graph::invalid_node, s,
                                         rank_basis::keep_sender_edges,
                                         nullptr)));
        const auto matrix =
            transaction_probability_matrix(g, s, rank_basis::drop_sender_edges);
        for (graph::node_id u = 0; u < n; ++u) {
          ASSERT_EQ(bits(matrix[u]),
                    bits(oracle_sender_row(g, u, s,
                                           rank_basis::drop_sender_edges,
                                           nullptr)));
        }
      }
    }
  }
}

TEST(ZipfBitwise, LazyRowsMatchTransactionProbabilities) {
  // The arena's lazy rows reuse one in-degree pass and one mass table per
  // graph state; toggling channels between states must never leave a row
  // describing the previous state.
  rng gen(303);
  for (const std::size_t n : {std::size_t{3}, std::size_t{240}}) {
    graph::digraph g = tie_heavy_graph(n, gen);
    const std::vector<char> mask = random_mask(n, gen);
    for (int state = 0; state < 4; ++state) {
      for (graph::edge_id e = 0; e < g.edge_slots(); ++e) {
        if (!gen.bernoulli(0.2)) continue;
        if (g.edge_active(e)) {
          g.remove_edge(e);
        } else {
          g.restore_edge(e);
        }
      }
      for (const double s : kExponents) {
        const std::vector<double> masses = zipf_rank_masses(n, s);
        for (const rank_basis basis : {rank_basis::keep_sender_edges,
                                       rank_basis::drop_sender_edges}) {
          for (const std::vector<char>* active : {
                   static_cast<const std::vector<char>*>(nullptr), &mask}) {
            const arena::lazy_prob_rows rows(g, masses, basis, active);
            for (graph::node_id u = 0; u < n; ++u) {
              ASSERT_EQ(bits(rows.row(u)),
                        bits(transaction_probabilities(g, u, s, basis, active)))
                  << "n=" << n << " state=" << state << " s=" << s
                  << " u=" << u;
            }
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace lcg::dist
