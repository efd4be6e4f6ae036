#include "arena/oracles.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <utility>

#include "arena/incremental.h"
#include "util/enumeration.h"
#include "util/error.h"

namespace lcg::arena {

oracle_kind oracle_from_name(std::string_view name) {
  if (name == "greedy") return oracle_kind::greedy;
  if (name == "local") return oracle_kind::local;
  if (name == "brute") return oracle_kind::brute;
  throw precondition_error("unknown arena oracle '" + std::string(name) +
                           "' (expected greedy|local|brute)");
}

std::string_view oracle_name(oracle_kind kind) {
  switch (kind) {
    case oracle_kind::greedy: return "greedy";
    case oracle_kind::local: return "local";
    case oracle_kind::brute: return "brute";
  }
  return "?";
}

namespace {

constexpr double inf = std::numeric_limits<double>::infinity();

/// Candidate peers for NEW channels of `u`: the top-`candidate_k` eligible
/// nodes by (score desc, id asc), then exactly `candidate_random` draws
/// from the player's private stream (duplicates dropped, draw count fixed
/// so the stream advances identically every activation). Players masked
/// out by the provider's active mask (departed churners) are ineligible;
/// a null mask — the static arena — reproduces the historical eligible
/// list exactly, stream draws included.
std::vector<graph::node_id> add_candidates(const strategy_state& state,
                                           graph::node_id u,
                                           const utility_provider& provider,
                                           const oracle_options& options,
                                           const std::vector<double>& scores,
                                           rng& stream) {
  const graph::digraph& g = state.graph();
  const std::vector<char>* active = provider.active();
  std::vector<graph::node_id> eligible;
  for (graph::node_id v = 0; v < g.node_count(); ++v) {
    if (v != u && (active == nullptr || (*active)[v]) &&
        !state.connected(u, v))
      eligible.push_back(v);
  }
  std::vector<graph::node_id> picked;
  if (options.candidate_k > 0 && !eligible.empty()) {
    std::vector<graph::node_id> by_score = eligible;
    std::stable_sort(by_score.begin(), by_score.end(),
                     [&scores](graph::node_id a, graph::node_id b) {
                       return scores[a] > scores[b];
                     });
    const std::size_t take = std::min(options.candidate_k, by_score.size());
    picked.assign(by_score.begin(),
                  by_score.begin() + static_cast<std::ptrdiff_t>(take));
  }
  for (std::size_t j = 0; j < options.candidate_random && !eligible.empty();
       ++j) {
    const graph::node_id v = eligible[static_cast<std::size_t>(
        stream.uniform_int(0, static_cast<std::int64_t>(eligible.size()) - 1))];
    if (std::find(picked.begin(), picked.end(), v) == picked.end())
      picked.push_back(v);
  }
  return picked;
}

/// removed = own \ chosen, added = chosen \ own (all inputs sorted).
topology::deviation diff_deviation(graph::node_id u,
                                   const std::vector<graph::node_id>& own,
                                   const std::vector<graph::node_id>& chosen,
                                   double before, double after) {
  topology::deviation dev;
  dev.deviator = u;
  std::set_difference(own.begin(), own.end(), chosen.begin(), chosen.end(),
                      std::back_inserter(dev.removed_peers));
  std::set_difference(chosen.begin(), chosen.end(), own.begin(), own.end(),
                      std::back_inserter(dev.added_peers));
  dev.utility_before = before;
  dev.utility_after = after;
  return dev;
}

/// The decide pass both oracles share (DESIGN.md §8.3): the winner among
/// `sets`, priced by `prices` (one logical evaluation each, already
/// counted), is the first in enumeration order with the largest gain past
/// the acceptance floor. Gains are `value - base`, the floor `base +
/// tolerance`; at base = -inf (a mover at U = -inf, or a greedy step) the
/// gain is the value itself and the floor -inf. Returns the winner's index
/// and exact value, or sets.size() when no candidate is accepted.
std::pair<std::size_t, double> decide(
    candidate_evaluator& evaluator,
    const std::vector<std::vector<graph::node_id>>& sets,
    const std::vector<double>& prices, double base, double tolerance,
    const utility_provider& provider) {
  const bool exact_prices = evaluator.prices_are_exact();
  const bool finite_base = base > -inf;
  const double floor = finite_base ? base + tolerance : base;
  const auto gain = [&](double value) {
    return finite_base ? value - base : value;
  };
  // `beats` ranks by (gain, then lower index), so the visiting order
  // cannot change the winner.
  std::size_t best = sets.size();
  double best_gain = 0.0;
  double best_value = 0.0;
  const auto beats = [&](std::size_t i, double g) {
    return best == sets.size() || g > best_gain ||
           (g == best_gain && i < best);
  };
  // Descending price, ties in enumeration order: the first exact value is
  // the likeliest winner, and it prunes the rest at once.
  std::uint64_t settled = 0;  // finite separator prices never made exact
  std::vector<std::size_t> order(sets.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return prices[a] > prices[b];
                   });
  for (const std::size_t i : order) {
    double value = prices[i];
    if (value == -inf) continue;
    if (!exact_prices) {
      // Only a candidate whose upper bound could still beat the incumbent
      // runs the exact phase; the bound sits far enough above the exact
      // value that a pruned candidate could not have tied it either.
      const double bound = value + separator_margin(value);
      if (!(bound > floor && beats(i, gain(bound)))) {
        ++settled;
        continue;
      }
      value = evaluator.exact(sets[i]);
    }
    if (value > floor && beats(i, gain(value))) {
      best = i;
      best_gain = gain(value);
      best_value = value;
    }
  }
  provider.mutable_stats().pruned += settled;
  return {best, best_value};
}

std::optional<topology::deviation> greedy_propose(
    const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream) {
  const std::vector<graph::node_id>& own = state.owned(u);
  const std::vector<graph::node_id> adds =
      add_candidates(state, u, provider, options, scores, stream);

  std::vector<graph::node_id> unused = own;  // candidates not yet taken
  unused.insert(unused.end(), adds.begin(), adds.end());
  if (unused.empty()) {
    // Nothing to compare the base with: it still counts its evaluation.
    provider.count_logical_evaluation();
    return std::nullopt;
  }
  // Algorithm 1's literal greedy, as core/greedy.h runs it over an
  // objective_fn (DESIGN.md §8.3): each step prices every unused candidate
  // added to the prefix and takes the strict argmax, the first enumerated
  // largest value, which is the decide pass at base -inf; a step whose
  // values are all -inf ends the run. The result is the first best prefix.
  candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
  const bool exact_prices = evaluator.prices_are_exact();
  std::vector<graph::node_id> prefix;
  std::vector<graph::node_id> chosen;
  double value = -inf;
  const std::size_t steps = std::min(options.max_channels, unused.size());
  for (std::size_t step = 0; step < steps; ++step) {
    std::vector<std::vector<graph::node_id>> sets;
    for (const graph::node_id peer : unused) {
      sets.push_back(prefix);
      sets.back().push_back(peer);
    }
    std::vector<double> prices;
    evaluator.price_all(sets, prices);
    const auto [best, best_value] =
        decide(evaluator, sets, prices, -inf, options.tolerance, provider);
    if (best == sets.size()) break;
    unused.erase(unused.begin() + static_cast<std::ptrdiff_t>(best));
    prefix = std::move(sets[best]);
    if (best_value > value) {
      value = best_value;
      chosen = prefix;
    }
  }
  std::sort(chosen.begin(), chosen.end());
  // Owning no channels at all is a legal strategy (u may stay connected
  // through counterparties' channels), compared after the prefixes: it
  // wins when it is at least as good, so a price whose upper bound cannot
  // reach the rebuilt value settles it.
  double empty_value = evaluator.price({});
  if (!exact_prices && empty_value > -inf) {
    if (empty_value + separator_margin(empty_value) > value) {
      empty_value = evaluator.exact({});
    } else {
      ++provider.mutable_stats().pruned;
    }
  }
  if (!(value > empty_value)) {
    chosen.clear();
    value = empty_value;
  }
  // The base comes last. Rebuilding the own set, or reaching no finite
  // value, is no move whatever the base is worth: it only counts its
  // evaluation. Otherwise the base's price bounds its exact value from
  // below, and a `value` that cannot beat that bound plus the tolerance
  // settles the activation without the base's exact phase.
  if (chosen == own || value == -inf) {
    provider.count_logical_evaluation();
    return std::nullopt;
  }
  double base = evaluator.price(own);
  if (!exact_prices && base > -inf) {
    if (!(value > base - separator_margin(base) + options.tolerance))
      return std::nullopt;
    base = evaluator.exact(own);
  }
  if (!(value > base + options.tolerance)) return std::nullopt;
  return diff_deviation(u, own, chosen, base, value);
}

std::optional<topology::deviation> local_propose(
    const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream) {
  const std::vector<graph::node_id>& own = state.owned(u);
  const std::vector<graph::node_id> adds =
      add_candidates(state, u, provider, options, scores, stream);

  // The neighbourhood, in enumeration order: up to max_removed dropped own
  // channels times up to max_added additions, never the base itself.
  std::vector<std::vector<graph::node_id>> sets;
  const std::size_t remove_cap = std::min(options.max_removed, own.size());
  const std::size_t add_cap = std::min(options.max_added, adds.size());
  for (std::size_t nr = 0; nr <= remove_cap; ++nr) {
    for_each_subset_of_size(
        own.size(), nr, [&](const std::vector<std::size_t>& rm) {
          std::vector<graph::node_id> kept = own;
          for (std::size_t i = rm.size(); i-- > 0;) {
            kept.erase(kept.begin() + static_cast<std::ptrdiff_t>(rm[i]));
          }
          for (std::size_t na = nr == 0 ? 1 : 0; na <= add_cap; ++na) {
            for_each_subset_of_size(
                adds.size(), na, [&](const std::vector<std::size_t>& ad) {
                  std::vector<graph::node_id> chosen = kept;
                  for (const std::size_t i : ad) chosen.push_back(adds[i]);
                  std::sort(chosen.begin(), chosen.end());
                  sets.push_back(std::move(chosen));
                  return true;
                });
          }
          return true;
        });
  }
  if (sets.empty()) {
    // Nothing to compare the base with: it still counts its evaluation.
    provider.count_logical_evaluation();
    return std::nullopt;
  }

  // Price pass (DESIGN.md §8.3): the base and every candidate, one logical
  // evaluation each. Full mode prices exactly, so the decide pass runs no
  // exact phase there.
  candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
  double base = evaluator.price(own);
  std::vector<double> prices;
  evaluator.price_all(sets, prices);
  // A -inf price is exact (infinite E_fees) and never wins; every other
  // separator price has its exact value within its margin (DESIGN.md §8.2).
  if (!evaluator.prices_are_exact() && base > -inf) {
    // The base's exact value is at least base - margin, so unless some
    // candidate's upper bound beats that plus the tolerance, no candidate
    // can be accepted and the activation is idle.
    const double floor = base - separator_margin(base) + options.tolerance;
    const bool live =
        std::any_of(prices.begin(), prices.end(), [&](double price) {
          return price > -inf && price + separator_margin(price) > floor;
        });
    if (!live) {
      provider.mutable_stats().pruned += static_cast<std::uint64_t>(
          std::count_if(prices.begin(), prices.end(),
                        [](double price) { return price > -inf; }));
      return std::nullopt;
    }
    base = evaluator.exact(own);
  }
  // A mover that cannot reach some receiver rests at U = -inf, where every
  // finite candidate's gain is +inf: the decide pass then compares
  // candidates by their own utility.
  const auto [best, value] =
      decide(evaluator, sets, prices, base, options.tolerance, provider);
  if (best == sets.size()) return std::nullopt;
  return diff_deviation(u, own, sets[best], base, value);
}

}  // namespace

std::optional<topology::deviation> propose_move(
    oracle_kind kind, const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream) {
  switch (kind) {
    case oracle_kind::greedy:
      return greedy_propose(state, u, provider, options, scores, stream);
    case oracle_kind::local:
      return local_propose(state, u, provider, options, scores, stream);
    case oracle_kind::brute:
      // The exhaustive reference: exact utilities (topology/game.h), no
      // provider involvement, identical tie-breaking to topo/best_response.
      // Per-player params thread through params_for(u) (identical to
      // params() for homogeneous populations); best_deviation enumerates
      // every node as a potential peer, so the brute oracle is incompatible
      // with an active mask (run_population rejects that combination).
      LCG_EXPECTS(provider.active() == nullptr);
      return topology::best_deviation(state.graph(), u, provider.params_for(u),
                                      topology::deviation_limits{},
                                      options.tolerance);
  }
  return std::nullopt;
}

}  // namespace lcg::arena
