// The joining node's utility function (Section II-C).
//
//   U_uS   = E_rev - E_fees - sum_{(v,l) in S} L_u(v, l)
//   U'_uS  = E_rev - E_fees                       (simplified, III-B)
//   U^b_uS = C_u + U_uS                           (benefit function, III-D)
//
// `utility_model` evaluates these *exactly* for a candidate strategy by
// materialising the joined network (host graph + new node + channels) and
// recomputing betweenness and distances — the ground truth against which the
// optimisers' estimated objectives are measured.
//
// The transaction distribution is held fixed at its pre-join state, exactly
// as the paper's proofs assume ("we assume that p_trans_{u,v} is a fixed
// value", Thm 1/2): existing nodes do not re-rank after u joins, and u's own
// receiver distribution is the newcomer ranking on the host graph.

#ifndef LCG_CORE_UTILITY_H
#define LCG_CORE_UTILITY_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/cost_model.h"
#include "core/params.h"
#include "core/strategy.h"
#include "dist/transaction_dist.h"
#include "graph/digraph.h"

namespace lcg::core {

class utility_model {
 public:
  /// `host`: the PCN before u joins (bidirectional edge pairs).
  /// `demand`: who transacts with whom among host nodes (N_s, p_trans).
  /// `newcomer_probs`: u's own receiver distribution over host nodes
  ///   (e.g. dist::newcomer_transaction_probabilities). Must sum to ~1.
  utility_model(graph::digraph host, dist::demand_model demand,
                std::vector<double> newcomer_probs, model_params params);

  const graph::digraph& host() const noexcept { return host_; }
  const dist::demand_model& demand() const noexcept { return demand_; }
  const model_params& params() const noexcept { return params_; }
  const std::vector<double>& newcomer_probabilities() const noexcept {
    return newcomer_probs_;
  }

  /// The joined network: host + node u + one channel per action.
  struct joined_network {
    graph::digraph g;
    graph::node_id u = graph::invalid_node;
  };
  [[nodiscard]] joined_network join(const strategy& s) const;

  /// E_rev: expected fee revenue per unit time (>= 0, 0 if |S| < 2 under
  /// node_betweenness mode since a leaf routes nothing).
  [[nodiscard]] double expected_revenue(const strategy& s) const;

  /// E_fees: expected fees paid per unit time; +infinity if some node with
  /// positive transaction probability is unreachable (this makes the
  /// utility of a disconnected strategy -infinity, as the paper defines).
  [[nodiscard]] double expected_fees(const strategy& s) const;

  /// The fee formula behind expected_fees: N_u * f^T_avg * sum_v p(v) *
  /// hops(v), with hops = d(u, v) under fee_distance_mode::path_length and
  /// max(0, d - 1) under intermediaries. `dist_from_u[v]` is d(u, v) for
  /// every host node v (extra entries are ignored); the sum runs in node
  /// order and returns +infinity at the first receiver with p(v) > 0 that
  /// is `graph::unreachable`. estimated_objective feeds it distances from
  /// cached rows, so both paths produce the same bits.
  [[nodiscard]] double fees_from_distances(
      std::span<const std::int32_t> dist_from_u) const;

  /// sum of L_u(v, l) over the strategy (via the installed cost model;
  /// default: the linear II-C model from `params`).
  [[nodiscard]] double channel_costs(const strategy& s) const {
    if (cost_model_ == nullptr) return strategy_cost(params_, s);
    double total = 0.0;
    for (const action& a : s) total += cost_model_->channel_cost(a.lock);
    return total;
  }

  /// Installs an alternative channel cost model (e.g. the [17]-style
  /// interest_rate_cost); pass nullptr to restore the linear default. The
  /// model must outlive this utility_model. The paper notes its results
  /// carry over to such extended cost models (II-C); experiment E17
  /// measures the effect.
  void set_cost_model(const cost_model* model) noexcept {
    cost_model_ = model;
  }

  [[nodiscard]] double utility(const strategy& s) const;
  [[nodiscard]] double simplified_utility(const strategy& s) const;
  [[nodiscard]] double benefit(const strategy& s) const;

 private:
  graph::digraph host_;
  dist::demand_model demand_;
  std::vector<double> newcomer_probs_;
  model_params params_;
  const cost_model* cost_model_ = nullptr;  // non-owning; null = linear
};

/// Convenience factory: Zipf demand with uniform sender rates, newcomer
/// probabilities from the same exponent.
[[nodiscard]] utility_model make_zipf_model(const graph::digraph& host,
                                            double zipf_s, double total_rate,
                                            model_params params);

}  // namespace lcg::core

#endif  // LCG_CORE_UTILITY_H
