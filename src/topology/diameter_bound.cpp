#include "topology/diameter_bound.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "graph/properties.h"
#include "graph/traversal.h"
#include "pcn/rates.h"
#include "util/error.h"

namespace lcg::topology {

double theorem6_bound(double channel_cost, double eps, double lambda_e,
                      double fee, double p_min, double total_rate) {
  LCG_EXPECTS(fee > 0.0);
  if (p_min <= 0.0 || total_rate <= 0.0)
    return std::numeric_limits<double>::infinity();
  return 2.0 * ((channel_cost + eps) / 2.0 - lambda_e * fee) /
             (p_min * total_rate * fee) +
         1.0;
}

hub_path_analysis analyze_hub_path(const graph::digraph& g,
                                   const dist::demand_model& demand,
                                   double fee, double channel_cost, double eps,
                                   graph::node_id hub) {
  LCG_EXPECTS(g.node_count() >= 2);
  hub_path_analysis out;
  out.hub = hub == graph::invalid_node ? graph::max_degree_node(g) : hub;

  // The (s, t) pair maximising d(s,t) among shortest paths through hub:
  // d(s, hub) + d(hub, t) == d(s, t).
  const graph::through_path longest =
      graph::longest_shortest_path_through(g, out.hub);
  LCG_ENSURES(longest.d >= 0);
  out.d = longest.d;

  // Reconstruct one shortest s->t path through the hub (shortest s->hub
  // followed by shortest hub->t).
  out.path = graph::shortest_path(g, longest.s, out.hub);
  {
    const std::vector<graph::node_id> tail =
        graph::shortest_path(g, out.hub, longest.t);
    out.path.insert(out.path.end(), tail.begin() + 1, tail.end());
  }
  LCG_ENSURES(static_cast<std::int32_t>(out.path.size()) == out.d + 1);

  if (out.d < 2) {
    // No chord to test; the premise and bound hold vacuously.
    out.premise_holds = true;
    out.bound = static_cast<double>(out.d);
    out.bound_holds = true;
    return out;
  }

  const std::size_t mid = static_cast<std::size_t>(out.d) / 2;
  const graph::node_id left = out.path[mid - 1];
  const graph::node_id right = out.path[mid + 1];

  // lambda_e: rate the chord would carry, Eq. 2 on g + chord (min of the
  // two directions, as the theorem defines).
  {
    graph::digraph with_chord = g;
    const graph::edge_id lr = with_chord.add_edge(left, right, 1.0);
    const graph::edge_id rl = with_chord.add_edge(right, left, 1.0);
    const pcn::rate_result rates =
        pcn::edge_transaction_rates(with_chord, demand);
    out.lambda_e = std::min(rates.edge_rate[lr], rates.edge_rate[rl]);
  }

  // p_min over ordered pairs straddling the chord along P.
  out.p_min = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < mid; ++i) {
    for (std::size_t j = mid + 1; j < out.path.size(); ++j) {
      const double p_fwd = demand.pair_probability(out.path[i], out.path[j]);
      const double p_bwd = demand.pair_probability(out.path[j], out.path[i]);
      out.p_min = std::min({out.p_min, p_fwd, p_bwd});
    }
  }
  if (!std::isfinite(out.p_min)) out.p_min = 0.0;

  const double n_rate = demand.total_rate();
  out.bound = theorem6_bound(channel_cost, eps, out.lambda_e, fee, out.p_min,
                             n_rate);
  out.premise_holds =
      (channel_cost + eps) / 2.0 >=
      out.lambda_e * fee +
          n_rate * out.p_min * fee * std::floor(static_cast<double>(out.d) / 2.0);
  out.bound_holds = static_cast<double>(out.d) <= out.bound + 1e-9;
  return out;
}

}  // namespace lcg::topology
