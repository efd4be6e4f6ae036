#include "core/objective.h"

#include <cmath>
#include <limits>

#include "graph/subgraph.h"
#include "graph/traversal.h"
#include "obs/registry.h"

namespace lcg::core {

namespace {

constexpr std::size_t no_row = static_cast<std::size_t>(-1);

/// The nearer of two hop distances, `graph::unreachable` (-1) counting as
/// farthest: read as unsigned, -1 is the largest value.
std::int32_t nearer(std::int32_t a, std::int32_t b) {
  return static_cast<std::uint32_t>(b) < static_cast<std::uint32_t>(a) ? b
                                                                       : a;
}

/// obs work counter of the fee path: host BFS rows filled. One relaxed
/// load when obs is disabled.
void count_fee_row() {
  if (!obs::enabled()) return;
  static obs::counter& rows =
      obs::registry::global().get_counter("core/fee_rows");
  rows.add();
}

}  // namespace

estimated_objective::estimated_objective(const utility_model& model,
                                         rate_estimator& estimator)
    : model_(model), estimator_(estimator) {}

double estimated_objective::estimated_revenue(const strategy& s) const {
  double rate_sum = 0.0;
  for (const action& a : s) rate_sum += estimator_.estimate(a.peer, a.lock);
  return rate_sum * model_.params().fee_avg;
}

std::size_t estimated_objective::row_of(graph::node_id peer) const {
  const graph::digraph& host = model_.host();
  if (row_offset_.empty()) row_offset_.assign(host.node_count(), no_row);
  if (row_offset_[peer] == no_row) {
    const graph::digraph* h = &host;
    if (model_.params().tx_size > 0.0) {
      if (!reduced_host_) {
        reduced_host_ =
            graph::reduced_by_capacity(host, model_.params().tx_size).graph;
      }
      h = &*reduced_host_;
    }
    row_offset_[peer] = rows_.size();
    for (const std::int32_t d : graph::bfs_distances(*h, peer))
      rows_.push_back(d == graph::unreachable ? d : d + 1);
    ++fee_rows_;
    count_fee_row();
  }
  return row_offset_[peer];
}

double estimated_objective::fees(const strategy& s) const {
  if (s.empty()) return model_.expected_fees(s);
  const graph::digraph& host = model_.host();
  const double tx_size = model_.params().tx_size;
  dist_.assign(host.node_count(), graph::unreachable);
  for (const action& a : s) {
    // utility_model::join's checks, in its order.
    LCG_EXPECTS(host.has_node(a.peer));
    LCG_EXPECTS(a.lock >= 0.0);
    if (a.lock < tx_size) continue;  // the u -> peer edge is reduced away
    const std::size_t offset = row_of(a.peer);  // may grow rows_
    const std::int32_t* row = rows_.data() + offset;
    for (std::size_t v = 0; v < dist_.size(); ++v)
      dist_[v] = nearer(dist_[v], row[v]);
  }
  return model_.fees_from_distances(dist_);
}

double estimated_objective::simplified(const strategy& s) const {
  ++evaluations_;
  const double fees_paid = fees(s);
  if (std::isinf(fees_paid)) return -std::numeric_limits<double>::infinity();
  return estimated_revenue(s) - fees_paid;
}

double estimated_objective::benefit(const strategy& s) const {
  ++evaluations_;
  const double fees_paid = fees(s);
  if (std::isinf(fees_paid)) return -std::numeric_limits<double>::infinity();
  return model_.params().onchain_alternative_cost() + estimated_revenue(s) -
         fees_paid - model_.channel_costs(s);
}

}  // namespace lcg::core
