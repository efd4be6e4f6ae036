#include "dist/zipf.h"

#include <algorithm>
#include <cmath>

#include "graph/properties.h"
#include "util/error.h"

namespace lcg::dist {

namespace {

/// Writes each member's tie-averaged Zipf mass into out[i] (non-members get
/// 0) and returns the members' sum in index order. Members are ranked by
/// degree descending with one counting pass; the block of k equal degrees
/// occupying ranks [r, r+k-1] gets (masses[r-1] + ... + masses[r+k-2]) / k,
/// added in ascending rank order — the exact float sequence of a
/// stable-sort ranking, so no bit moves.
template <typename Member>
double rank_block_masses(const std::vector<std::size_t>& deg, Member member,
                         const std::vector<double>& masses,
                         std::vector<double>& out) {
  std::size_t max_deg = 0;
  std::size_t members = 0;
  for (std::size_t i = 0; i < deg.size(); ++i) {
    if (!member(i)) continue;
    max_deg = std::max(max_deg, deg[i]);
    ++members;
  }
  LCG_EXPECTS(masses.size() >= members);

  std::vector<std::size_t> count(max_deg + 1, 0);
  for (std::size_t i = 0; i < deg.size(); ++i)
    if (member(i)) ++count[deg[i]];

  std::vector<double> block(max_deg + 1, 0.0);
  std::size_t taken = 0;  // ranks [1, taken] belong to higher degrees
  for (std::size_t d = max_deg + 1; d-- > 0;) {
    const std::size_t k = count[d];
    if (k == 0) continue;
    double mass = 0.0;
    for (std::size_t r = taken; r < taken + k; ++r) mass += masses[r];
    block[d] = mass / static_cast<double>(k);
    taken += k;
  }

  double total = 0.0;
  for (std::size_t i = 0; i < deg.size(); ++i) {
    out[i] = member(i) ? block[deg[i]] : 0.0;
    total += out[i];
  }
  return total;
}

}  // namespace

std::vector<double> zipf_rank_masses(std::size_t n, double s) {
  LCG_EXPECTS(s >= 0.0);
  std::vector<double> masses(n);
  for (std::size_t r = 1; r <= n; ++r)
    masses[r - 1] = std::pow(static_cast<double>(r), -s);
  return masses;
}

std::vector<double> sender_row(const graph::digraph& g,
                               const std::vector<std::size_t>& in_deg,
                               graph::node_id u, rank_basis basis,
                               const std::vector<char>* active,
                               const std::vector<double>& masses) {
  const std::size_t n = g.node_count();
  const bool sender = u != graph::invalid_node;
  LCG_EXPECTS(in_deg.size() == n);
  LCG_EXPECTS(!sender || g.has_node(u));
  LCG_EXPECTS(active == nullptr || active->size() == n);
  std::vector<double> p(n, 0.0);
  // A departed sender generates no demand at all: betweenness sweeps may
  // still pick it as a source (it is a node of the shared graph), and an
  // all-zero row makes its contribution vanish instead of tripping.
  if (sender && active != nullptr && !(*active)[u]) return p;

  // On V' (drop_sender_edges) every receiver loses exactly the in-edges u
  // sends it; no other in-degree changes.
  const std::vector<std::size_t>* deg = &in_deg;
  std::vector<std::size_t> dropped;
  if (sender && basis == rank_basis::drop_sender_edges) {
    dropped = in_deg;
    g.for_each_out(u, [&](graph::edge_id, const graph::edge& e) {
      --dropped[e.dst];
    });
    deg = &dropped;
  }

  // Departed players stay out of the receiver universe entirely (their
  // mass is 0, not merely unreachable).
  const auto member = [&](std::size_t v) {
    return v != u && (active == nullptr || (*active)[v]);
  };
  const double total = rank_block_masses(*deg, member, masses, p);
  if (total <= 0.0) {
    std::fill(p.begin(), p.end(), 0.0);
    return p;
  }
  for (graph::node_id v = 0; v < n; ++v)
    if (member(v)) p[v] /= total;
  return p;
}

std::vector<double> rank_factors(const std::vector<std::size_t>& degrees,
                                 double s) {
  std::vector<double> rf(degrees.size(), 0.0);
  (void)rank_block_masses(
      degrees, [](std::size_t) { return true; },
      zipf_rank_masses(degrees.size(), s), rf);
  return rf;
}

std::vector<double> transaction_probabilities(const graph::digraph& g,
                                              graph::node_id u, double s,
                                              rank_basis basis,
                                              const std::vector<char>* active) {
  LCG_EXPECTS(g.has_node(u));
  return sender_row(g, graph::in_degrees(g), u, basis, active,
                    zipf_rank_masses(g.node_count(), s));
}

std::vector<std::vector<double>> transaction_probability_matrix(
    const graph::digraph& g, double s, rank_basis basis) {
  const std::vector<std::size_t> in_deg = graph::in_degrees(g);
  const std::vector<double> masses = zipf_rank_masses(g.node_count(), s);
  std::vector<std::vector<double>> rows(g.node_count());
  for (graph::node_id u = 0; u < g.node_count(); ++u)
    rows[u] = sender_row(g, in_deg, u, basis, nullptr, masses);
  return rows;
}

std::vector<double> newcomer_transaction_probabilities(
    const graph::digraph& g, double s) {
  return sender_row(g, graph::in_degrees(g), graph::invalid_node,
                    rank_basis::keep_sender_edges, nullptr,
                    zipf_rank_masses(g.node_count(), s));
}

}  // namespace lcg::dist
