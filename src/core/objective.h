// The estimated objective the optimisation algorithms maximise.
//
// Section III's algorithms treat the revenue of each candidate channel as a
// fixed, pre-estimated rate lambda_uv (that is what makes U' submodular,
// Thm 1), while fees are recomputed from actual distances on the joined
// graph. `estimated_objective` packages exactly that surrogate:
//
//   simplified(S) = sum_{(v,l) in S} lambda_hat(v,l) * f_avg  -  E_fees(G+S)
//   benefit(S)    = C_u + simplified(S) - sum_{(v,l) in S} L_u(v,l)
//
// (the latter is the U^b of III-D with the same revenue estimate). Both are
// -infinity for strategies that leave the newcomer disconnected.
//
// E_fees needs d_{G+S}(u, v) for every host node v. u's only edges go to
// its peers and a shortest path from u never re-enters u, so
//
//   d_{G+S}(u, v) = 1 + min over kept (w, l) in S of d_H(w, v)
//
// where H is the host (or its tx_size capacity reduction) and an action is
// kept iff its u -> w edge survives that reduction (l >= tx_size). The
// objective fills one BFS row d_H(w, .) per distinct peer the first time w
// appears and answers each evaluation with an O(|S| n) minimum over cached
// rows: no joined-graph copy, no BFS. The fee sum itself is
// utility_model::fees_from_distances, so fees() equals
// model().expected_fees() bit for bit (DESIGN.md §1.4). The cache makes an
// objective a per-query, single-thread object; rows cost 4n bytes per peer
// and are freed with it.

#ifndef LCG_CORE_OBJECTIVE_H
#define LCG_CORE_OBJECTIVE_H

#include <cstdint>
#include <optional>
#include <vector>

#include "core/rate_estimator.h"
#include "core/utility.h"

namespace lcg::core {

class estimated_objective {
 public:
  estimated_objective(const utility_model& model, rate_estimator& estimator);

  /// U' surrogate (monotone, submodular in the candidate set).
  [[nodiscard]] double simplified(const strategy& s) const;

  /// U^b surrogate (non-monotone; used by the continuous algorithm).
  [[nodiscard]] double benefit(const strategy& s) const;

  const utility_model& model() const noexcept { return model_; }
  rate_estimator& estimator() const noexcept { return estimator_; }

  /// E_fees(G+S) from the cached distance rows; bitwise equal to
  /// model().expected_fees(s), with the same preconditions checked in the
  /// same order. Not counted as an evaluation.
  [[nodiscard]] double fees(const strategy& s) const;

  /// Number of objective evaluations performed (either flavour).
  std::uint64_t evaluations() const noexcept { return evaluations_; }
  void reset_evaluations() noexcept { evaluations_ = 0; }

  /// Host BFS rows filled so far: one per distinct peer with a kept action.
  std::size_t fee_rows() const noexcept { return fee_rows_; }

 private:
  double estimated_revenue(const strategy& s) const;
  /// Offset into rows_ of the row 1 + d_H(peer, .), filled on first use.
  std::size_t row_of(graph::node_id peer) const;

  const utility_model& model_;
  rate_estimator& estimator_;
  mutable std::uint64_t evaluations_ = 0;

  mutable std::optional<graph::digraph> reduced_host_;  // H when tx_size > 0
  mutable std::vector<std::size_t> row_offset_;  // by peer; no_row = unfilled
  mutable std::vector<std::int32_t> rows_;       // flat, node_count() each
  mutable std::vector<std::int32_t> dist_;       // d(u, .) of one evaluation
  mutable std::size_t fee_rows_ = 0;
};

}  // namespace lcg::core

#endif  // LCG_CORE_OBJECTIVE_H
