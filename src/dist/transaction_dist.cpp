#include "dist/transaction_dist.h"

#include <numeric>
#include <utility>

#include "util/error.h"

namespace lcg::dist {

std::vector<double> uniform_transaction_distribution::probabilities(
    const graph::digraph& g, graph::node_id sender) const {
  LCG_EXPECTS(g.has_node(sender));
  const std::size_t n = g.node_count();
  std::vector<double> p(n, 0.0);
  if (n <= 1) return p;
  const double mass = 1.0 / static_cast<double>(n - 1);
  for (graph::node_id v = 0; v < n; ++v)
    if (v != sender) p[v] = mass;
  return p;
}

zipf_transaction_distribution::zipf_transaction_distribution(double s,
                                                             rank_basis basis)
    : s_(s), basis_(basis) {
  LCG_EXPECTS(s >= 0.0);
}

std::vector<double> zipf_transaction_distribution::probabilities(
    const graph::digraph& g, graph::node_id sender) const {
  return transaction_probabilities(g, sender, s_, basis_);
}

matrix_transaction_distribution::matrix_transaction_distribution(
    std::vector<std::vector<double>> rows)
    : rows_(std::move(rows)) {
  for (const auto& row : rows_) {
    LCG_EXPECTS(row.size() == rows_.size());
    for (const double p : row) LCG_EXPECTS(p >= 0.0);
  }
}

std::vector<double> matrix_transaction_distribution::probabilities(
    const graph::digraph& g, graph::node_id sender) const {
  LCG_EXPECTS(rows_.size() == g.node_count());
  LCG_EXPECTS(sender < rows_.size());
  return rows_[sender];
}

namespace {

std::vector<std::vector<double>> materialise_rows(
    const graph::digraph& g, const transaction_distribution& dist) {
  std::vector<std::vector<double>> rows(g.node_count());
  for (graph::node_id s = 0; s < g.node_count(); ++s) {
    rows[s] = dist.probabilities(g, s);
    LCG_EXPECTS(rows[s].size() == g.node_count());
  }
  return rows;
}

}  // namespace

demand_model::demand_model(const graph::digraph& g,
                           const transaction_distribution& dist,
                           double total_rate)
    : rows_(materialise_rows(g, dist)) {
  LCG_EXPECTS(total_rate >= 0.0);
  const std::size_t n = g.node_count();
  rates_.assign(n, n > 0 ? total_rate / static_cast<double>(n) : 0.0);
  total_rate_ = n > 0 ? total_rate : 0.0;
}

demand_model::demand_model(const graph::digraph& g,
                           const transaction_distribution& dist,
                           std::vector<double> sender_rates)
    : rows_(materialise_rows(g, dist)), rates_(std::move(sender_rates)) {
  LCG_EXPECTS(rates_.size() == g.node_count());
  for (const double r : rates_) LCG_EXPECTS(r >= 0.0);
  total_rate_ = std::accumulate(rates_.begin(), rates_.end(), 0.0);
}

double demand_model::sender_rate(graph::node_id s) const {
  LCG_EXPECTS(s < rates_.size());
  return rates_[s];
}

double demand_model::pair_probability(graph::node_id s,
                                      graph::node_id r) const {
  LCG_EXPECTS(s < rows_.size() && r < rows_.size());
  return rows_[s][r];
}

const std::vector<double>& demand_model::probability_row(
    graph::node_id s) const {
  LCG_EXPECTS(s < rows_.size());
  return rows_[s];
}

double demand_model::pair_weight(graph::node_id s, graph::node_id r) const {
  LCG_EXPECTS(s < rows_.size() && r < rows_.size());
  return rates_[s] * rows_[s][r];
}

graph::pair_weight_fn demand_model::weight_fn() const {
  return [this](graph::node_id s, graph::node_id t) {
    return pair_weight(s, t);
  };
}

graph::pair_weight_fn demand_model::weight_fn_without(graph::node_id u) const {
  return [this, u](graph::node_id s, graph::node_id t) {
    if (s == u || t == u) return 0.0;
    return pair_weight(s, t);
  };
}

}  // namespace lcg::dist
