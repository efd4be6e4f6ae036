// Who transacts with whom: p_trans rows and per-sender rates N_s.
//
// A `transaction_distribution` produces the receiver distribution of each
// sender on a concrete graph; `demand_model` binds one to a graph plus
// per-sender Poisson rates, which is the exact input the analytic machinery
// (pcn/rates.h, core/utility.h) and the simulator (sim/workload.h) consume.
// The pair weight N_s * p_trans(s, r) is what Eq. (2) sums over.

#ifndef LCG_DIST_TRANSACTION_DIST_H
#define LCG_DIST_TRANSACTION_DIST_H

#include <vector>

#include "dist/zipf.h"
#include "graph/betweenness.h"
#include "graph/digraph.h"

namespace lcg::dist {

class transaction_distribution {
 public:
  virtual ~transaction_distribution() = default;
  /// p_trans(sender, .) over all nodes of `g`; entry `sender` must be 0 and
  /// the row must sum to 1 (or to 0 when the sender transacts with nobody).
  [[nodiscard]] virtual std::vector<double> probabilities(
      const graph::digraph& g, graph::node_id sender) const = 0;
};

/// Uniform over the other n-1 nodes, independent of topology.
class uniform_transaction_distribution final
    : public transaction_distribution {
 public:
  std::vector<double> probabilities(const graph::digraph& g,
                                    graph::node_id sender) const override;
};

/// The paper's modified Zipf distribution (dist/zipf.h).
class zipf_transaction_distribution final : public transaction_distribution {
 public:
  explicit zipf_transaction_distribution(
      double s, rank_basis basis = rank_basis::drop_sender_edges);
  std::vector<double> probabilities(const graph::digraph& g,
                                    graph::node_id sender) const override;

 private:
  double s_;
  rank_basis basis_;
};

/// Explicit rows, e.g. hand-written demand (Figure 2) or empirical
/// estimates (sim/estimation.h). Rows are used as given.
class matrix_transaction_distribution final : public transaction_distribution {
 public:
  explicit matrix_transaction_distribution(
      std::vector<std::vector<double>> rows);
  std::vector<double> probabilities(const graph::digraph& g,
                                    graph::node_id sender) const override;

 private:
  std::vector<std::vector<double>> rows_;
};

/// A transaction distribution materialised on a graph together with
/// per-sender rates: the complete demand side of the model.
class demand_model {
 public:
  /// Uniform sender rates summing to `total_rate` (the paper's N).
  demand_model(const graph::digraph& g, const transaction_distribution& dist,
               double total_rate);

  /// Per-sender rates N_s (size must match the node count).
  demand_model(const graph::digraph& g, const transaction_distribution& dist,
               std::vector<double> sender_rates);

  [[nodiscard]] std::size_t node_count() const noexcept {
    return rates_.size();
  }
  [[nodiscard]] double total_rate() const noexcept { return total_rate_; }
  [[nodiscard]] double sender_rate(graph::node_id s) const;

  /// p_trans(s, r).
  [[nodiscard]] double pair_probability(graph::node_id s,
                                        graph::node_id r) const;
  [[nodiscard]] const std::vector<double>& probability_row(
      graph::node_id s) const;

  /// N_s * p_trans(s, r): the weight Eq. (2) assigns to the ordered pair.
  [[nodiscard]] double pair_weight(graph::node_id s, graph::node_id r) const;

  /// The same weights as a betweenness pair-weight function. The returned
  /// closure references this demand_model; keep it alive while in use.
  [[nodiscard]] graph::pair_weight_fn weight_fn() const;

  /// The same weights on a graph that joined a newcomer `u`: any pair
  /// touching u weighs 0 (u's own traffic is priced in E_fees, not E_rev),
  /// every other pair keeps its host weight.
  [[nodiscard]] graph::pair_weight_fn weight_fn_without(graph::node_id u) const;

 private:
  std::vector<std::vector<double>> rows_;
  std::vector<double> rates_;
  double total_rate_ = 0.0;
};

}  // namespace lcg::dist

#endif  // LCG_DIST_TRANSACTION_DIST_H
