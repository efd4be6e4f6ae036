// Estimators for the candidate-channel rate lambda_uv.
//
// Theorem 1 treats lambda_uv as a fixed per-candidate value while edges are
// added, which is what makes the revenue term modular and U' submodular. The
// paper does not prescribe how the joining node obtains these estimates; we
// provide three estimators (DESIGN.md, design choice 4), all of which count
// their lambda-estimation calls so Theorem 4/5's complexity claims (stated
// in "number of estimations of the lambda_uv parameter") can be measured.
//
//  * full_connection: weighted edge betweenness of the channel's two
//    directed edges (averaged) in the host graph with u attached to *every*
//    candidate. One Brandes sweep total; optimistic (u maximally central).
//  * anchor_pair: averaged edge rate of channel (u, v) when u is attached
//    to v and to the highest-degree other node; per-candidate sweep,
//    conservative.
//  * degree_share: N * deg(v) / sum(deg) scaled by a traffic share prior;
//    O(1), no graph work, the "cheap heuristic" baseline.
//
// All estimators multiply by the capacity discount P(tx size <= lock) when a
// size distribution is supplied (II-B reduced-subgraph rule).

#ifndef LCG_CORE_RATE_ESTIMATOR_H
#define LCG_CORE_RATE_ESTIMATOR_H

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/utility.h"
#include "dist/tx_size.h"
#include "graph/betweenness.h"

namespace lcg::core {

class rate_estimator {
 public:
  virtual ~rate_estimator() = default;

  /// Estimated through-traffic rate attributable to a channel (u, v) funded
  /// with `lock` on u's side.
  double estimate(graph::node_id v, double lock);

  /// Number of estimate() calls so far (Theorem 4/5 cost metric).
  std::uint64_t calls() const noexcept { return calls_; }
  void reset_calls() noexcept { calls_ = 0; }

 protected:
  virtual double do_estimate(graph::node_id v, double lock) = 0;

 private:
  std::uint64_t calls_ = 0;
};

/// See file comment. `sizes` may be null (no capacity discount). `options`
/// selects the betweenness backend for the single construction-time sweep
/// (graph/betweenness.h); it never affects calls() accounting. Every
/// candidate must be a host node and appear once; a repeated id throws
/// precondition_error naming it.
class full_connection_rate_estimator final : public rate_estimator {
 public:
  full_connection_rate_estimator(
      const utility_model& model, std::span<const graph::node_id> candidates,
      const dist::tx_size_distribution* sizes = nullptr,
      const graph::betweenness_options& options = {});

 protected:
  double do_estimate(graph::node_id v, double lock) override;

 private:
  std::vector<double> rate_;  // indexed by host node id; 0 for non-candidates
  const dist::tx_size_distribution* sizes_;
};

/// See file comment. `options` selects the backend of the per-candidate
/// sweeps; it never affects calls() accounting (memoised candidates still
/// count their estimate() calls).
class anchor_pair_rate_estimator final : public rate_estimator {
 public:
  anchor_pair_rate_estimator(const utility_model& model,
                             const dist::tx_size_distribution* sizes = nullptr,
                             const graph::betweenness_options& options = {});

 protected:
  double do_estimate(graph::node_id v, double lock) override;

 private:
  const utility_model& model_;
  graph::node_id anchor_;
  std::vector<double> cache_;  // memoised per-candidate rates (-1 = unset)
  const dist::tx_size_distribution* sizes_;
  graph::betweenness_options options_;
};

/// See file comment.
class degree_share_rate_estimator final : public rate_estimator {
 public:
  degree_share_rate_estimator(const utility_model& model,
                              const dist::tx_size_distribution* sizes = nullptr);

 protected:
  double do_estimate(graph::node_id v, double lock) override;

 private:
  std::vector<double> share_;  // deg(v)/sum_deg * total_rate
  const dist::tx_size_distribution* sizes_;
};

}  // namespace lcg::core

#endif  // LCG_CORE_RATE_ESTIMATOR_H
