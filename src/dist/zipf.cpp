#include "dist/zipf.h"

#include <algorithm>
#include <cmath>
#include <span>

#include "graph/properties.h"
#include "util/error.h"

namespace lcg::dist {

namespace {

/// count[d] = members of degree d (resized to the largest member degree).
template <typename Member>
void member_histogram(const std::vector<std::size_t>& deg, Member member,
                      std::vector<std::size_t>& count) {
  std::size_t max_deg = 0;
  for (std::size_t i = 0; i < deg.size(); ++i)
    if (member(i)) max_deg = std::max(max_deg, deg[i]);
  count.assign(max_deg + 1, 0);
  for (std::size_t i = 0; i < deg.size(); ++i)
    if (member(i)) ++count[deg[i]];
}

/// block[d] = the tie-averaged Zipf mass of the count[d] members of degree
/// d. Members are ranked by degree descending; the block of k equal degrees
/// occupying ranks [r, r+k-1] gets (masses[r-1] + ... + masses[r+k-2]) / k,
/// added in ascending rank order — the exact float sequence of a
/// stable-sort ranking, so no bit moves. Degrees without members get 0.
void tie_blocks(const std::vector<std::size_t>& count,
                const std::vector<double>& masses, std::vector<double>& block) {
  block.assign(count.size(), 0.0);
  std::size_t taken = 0;  // ranks [1, taken] belong to higher degrees
  for (std::size_t d = count.size(); d-- > 0;) {
    const std::size_t k = count[d];
    if (k == 0) continue;
    LCG_EXPECTS(masses.size() >= taken + k);
    double mass = 0.0;
    for (std::size_t r = taken; r < taken + k; ++r) mass += masses[r];
    block[d] = mass / static_cast<double>(k);
    taken += k;
  }
}

/// p[i] = block[deg[i]] / total for members and 0 otherwise; a
/// non-positive total (no members) leaves an all-zero row. Members of one
/// degree share a block mass, so each quotient is taken once per degree
/// (into `quotient`) — the same operands and division as per member.
template <typename Member>
void write_row(const std::vector<std::size_t>& deg, Member member,
               const std::vector<double>& block, double total,
               std::vector<double>& quotient, std::span<double> p) {
  if (total <= 0.0) {
    std::fill(p.begin(), p.end(), 0.0);
    return;
  }
  quotient.resize(block.size());
  for (std::size_t d = 0; d < block.size(); ++d) quotient[d] = block[d] / total;
  for (std::size_t i = 0; i < deg.size(); ++i)
    p[i] = member(i) ? quotient[deg[i]] : 0.0;
}

/// total[j] = sum of block[j][deg[v]] over the receivers v != sender[j]
/// with active[v] (nullptr: every node), added in node order. Each pass
/// over the receivers serves four senders with independent accumulators,
/// so their adds overlap instead of waiting on one another. Adding +0.0
/// for the sender itself leaves a total's bits unchanged (totals are never
/// -0.0), so the lanes need no branch.
void node_order_totals(const std::vector<std::size_t>& deg,
                       const std::vector<char>* active,
                       std::span<const double* const> block,
                       std::span<const graph::node_id> sender,
                       std::span<double> total) {
  constexpr std::size_t lanes = 4;
  for (std::size_t c = 0; c < block.size(); c += lanes) {
    const double* lane_block[lanes];
    graph::node_id lane_sender[lanes];
    double sum[lanes] = {0.0, 0.0, 0.0, 0.0};
    for (std::size_t l = 0; l < lanes; ++l) {
      // Spare lanes repeat the chunk's first sender and are discarded.
      const std::size_t j = c + l < block.size() ? c + l : c;
      lane_block[l] = block[j];
      lane_sender[l] = sender[j];
    }
    for (graph::node_id v = 0; v < deg.size(); ++v) {
      if (active != nullptr && !(*active)[v]) continue;
      const std::size_t d = deg[v];
      for (std::size_t l = 0; l < lanes; ++l)
        sum[l] += v != lane_sender[l] ? lane_block[l][d] : 0.0;
    }
    for (std::size_t l = 0; l < lanes && c + l < block.size(); ++l)
      total[c + l] = sum[l];
  }
}

/// fn(member) with the member test of sender u's row: v != u, and v
/// active when `active` is non-null (u == invalid_node: no sender).
template <typename Fn>
void with_members(graph::node_id u, const std::vector<char>* active, Fn fn) {
  if (active == nullptr) {
    fn([u](std::size_t v) { return v != u; });
  } else {
    fn([u, active](std::size_t v) { return v != u && (*active)[v]; });
  }
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
  LCG_EXPECTS(in_deg.size() == n);
  sender_rows rows(basis, active, masses);
  rows.assign(in_deg);
  std::vector<double> p(n);
  rows.row(g, u, p);
  return p;
}

std::vector<double> rank_factors(const std::vector<std::size_t>& degrees,
                                 double s) {
  const auto all = [](std::size_t) { return true; };
  std::vector<std::size_t> count;
  std::vector<double> block;
  member_histogram(degrees, all, count);
  tie_blocks(count, zipf_rank_masses(degrees.size(), s), block);
  std::vector<double> rf(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) rf[i] = block[degrees[i]];
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
  const std::vector<double> masses = zipf_rank_masses(g.node_count(), s);
  sender_rows ranking(basis, nullptr, masses);
  ranking.assign(graph::in_degrees(g));
  std::vector<std::vector<double>> rows(g.node_count());
  for (graph::node_id u = 0; u < g.node_count(); ++u) {
    rows[u].resize(g.node_count());
    ranking.row(g, u, rows[u]);
  }
  return rows;
}

sender_rows::sender_rows(rank_basis basis, const std::vector<char>* active,
                         const std::vector<double>& masses)
    : basis_(basis), active_(active), masses_(&masses) {}

void sender_rows::assign(const std::vector<std::size_t>& in_deg) {
  LCG_EXPECTS(active_ == nullptr || active_->size() == in_deg.size());
  deg_ = in_deg;
  member_histogram(
      deg_, [this](std::size_t v) { return is_active(v); }, count_);
  live_ = 0;
}

void sender_rows::move_degree(graph::node_id v, bool up) {
  LCG_EXPECTS(v < deg_.size() && (up || deg_[v] > 0));
  if (is_active(v)) --count_[deg_[v]];
  deg_[v] = up ? deg_[v] + 1 : deg_[v] - 1;
  if (!is_active(v)) return;
  if (deg_[v] >= count_.size()) count_.resize(deg_[v] + 1, 0);
  ++count_[deg_[v]];
}

void sender_rows::shift(graph::node_id v, bool up) {
  move_degree(v, up);
  live_ = 0;
}

std::size_t sender_rows::keep_table(std::size_t excluded) {
  for (std::size_t i = 0; i < live_; ++i)
    if (tables_[i].first == excluded) return i;
  if (live_ == tables_.size()) tables_.emplace_back();
  auto& [degree, block] = tables_[live_];
  degree = excluded;
  if (excluded != no_sender) --count_[excluded];
  tie_blocks(count_, *masses_, block);
  if (excluded != no_sender) ++count_[excluded];
  return live_++;
}

void sender_rows::drop_row(const graph::digraph& g, graph::node_id u,
                           std::span<double> p) {
  // V': u leaves the histogram and its out-edges leave the receivers'
  // degrees for this one row.
  --count_[deg_[u]];
  g.for_each_out(u, [&](graph::edge_id, const graph::edge& e) {
    move_degree(e.dst, false);
  });
  tie_blocks(count_, *masses_, scratch_);
  const double* block = scratch_.data();
  double total = 0.0;
  node_order_totals(deg_, active_, std::span(&block, 1), std::span(&u, 1),
                    std::span(&total, 1));
  with_members(u, active_, [&](auto member) {
    write_row(deg_, member, scratch_, total, quotient_, p);
  });
  g.for_each_out(u, [&](graph::edge_id, const graph::edge& e) {
    move_degree(e.dst, true);
  });
  ++count_[deg_[u]];
}

void sender_rows::rows(const graph::digraph& g,
                       std::span<const graph::node_id> senders,
                       std::span<double> out) {
  const std::size_t n = deg_.size();
  const std::size_t k = senders.size();
  LCG_EXPECTS(g.node_count() == n && out.size() == k * n);
  const auto row_of = [&](std::size_t j) { return out.subspan(j * n, n); };
  // Rows that need no shared table are written here; the others get their
  // table first (keep_table may grow tables_, so indices are kept).
  keep_.clear();
  for (std::size_t j = 0; j < k; ++j) {
    const graph::node_id u = senders[j];
    if (u == graph::invalid_node) {
      keep_.emplace_back(j, keep_table(no_sender));
      continue;
    }
    LCG_EXPECTS(g.has_node(u));
    if (!is_active(u)) {
      // A departed sender generates no demand at all: betweenness sweeps
      // may still pick it as a source (it is a node of the shared graph),
      // and an all-zero row makes its contribution vanish.
      std::fill(row_of(j).begin(), row_of(j).end(), 0.0);
    } else if (basis_ == rank_basis::drop_sender_edges) {
      drop_row(g, u, row_of(j));
    } else {
      keep_.emplace_back(j, keep_table(deg_[u]));
    }
  }
  lane_block_.clear();
  lane_sender_.clear();
  for (const auto& [j, table] : keep_) {
    lane_block_.push_back(tables_[table].second.data());
    lane_sender_.push_back(senders[j]);
  }
  total_.resize(keep_.size());
  node_order_totals(deg_, active_, lane_block_, lane_sender_, total_);
  for (std::size_t i = 0; i < keep_.size(); ++i) {
    const auto& [j, table] = keep_[i];
    with_members(senders[j], active_, [&](auto member) {
      write_row(deg_, member, tables_[table].second, total_[i], quotient_,
                row_of(j));
    });
  }
}

void sender_rows::row(const graph::digraph& g, graph::node_id u,
                      std::span<double> p) {
  rows(g, std::span<const graph::node_id>(&u, 1), p);
}

std::vector<double> newcomer_transaction_probabilities(
    const graph::digraph& g, double s) {
  return sender_row(g, graph::in_degrees(g), graph::invalid_node,
                    rank_basis::keep_sender_edges, nullptr,
                    zipf_rank_masses(g.node_count(), s));
}

}  // namespace lcg::dist
