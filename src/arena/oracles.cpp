#include "arena/oracles.h"

#include <algorithm>
#include <limits>

#include "arena/incremental.h"
#include "core/greedy.h"
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

std::optional<topology::deviation> greedy_propose(
    const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream) {
  const std::vector<graph::node_id>& own = state.owned(u);
  const std::vector<graph::node_id> adds =
      add_candidates(state, u, provider, options, scores, stream);

  std::vector<graph::node_id> candidates = own;
  candidates.insert(candidates.end(), adds.begin(), adds.end());
  // One evaluation seam for both provider modes (arena/incremental.h).
  // plain_greedy takes a strict argmax within each step, so the best value
  // among the strategies of the current size is a valid filter threshold:
  // a candidate that cannot beat it can never be the step's choice. The
  // first candidate of each step sees -infinity.
  candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
  const double base = evaluator.base_value();
  if (candidates.empty()) return std::nullopt;

  std::size_t step_size = 0;
  double step_best = -std::numeric_limits<double>::infinity();
  const core::objective_fn objective = [&](const core::strategy& s) {
    if (s.size() != step_size) {
      step_size = s.size();
      step_best = -std::numeric_limits<double>::infinity();
    }
    std::vector<graph::node_id> set;
    set.reserve(s.size());
    for (const core::action& a : s) set.push_back(a.peer);
    evaluator.set_threshold(step_best);
    const double value = evaluator.evaluate(set);
    step_best = std::max(step_best, value);
    return value;
  };
  const core::greedy_result rebuilt = core::greedy_fixed_lock(
      objective, candidates, /*lock=*/0.0, options.max_channels);
  // Owning no channels at all is a legal strategy (u may stay connected
  // through counterparties' channels); the greedy engine only reports
  // non-empty prefixes, so compare against the empty set explicitly, at
  // its exact value.
  evaluator.set_threshold(-std::numeric_limits<double>::infinity());
  const double empty_value = evaluator.evaluate({});

  std::vector<graph::node_id> chosen;
  double value = empty_value;
  if (rebuilt.objective_value > empty_value) {
    for (const core::action& a : rebuilt.chosen) chosen.push_back(a.peer);
    std::sort(chosen.begin(), chosen.end());
    value = rebuilt.objective_value;
  }
  if (!(value > base + options.tolerance)) return std::nullopt;
  topology::deviation dev = diff_deviation(u, own, chosen, base, value);
  if (dev.removed_peers.empty() && dev.added_peers.empty())
    return std::nullopt;
  return dev;
}

std::optional<topology::deviation> local_propose(
    const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream) {
  const std::vector<graph::node_id>& own = state.owned(u);
  const std::vector<graph::node_id> adds =
      add_candidates(state, u, provider, options, scores, stream);
  candidate_evaluator evaluator(provider, state.graph(), u, own, adds);
  const double base = evaluator.base_value();
  // A mover that cannot reach some receiver rests at U = -inf, where every
  // finite candidate's gain is +inf: candidates then compare by their own
  // utility, and the evaluator's threshold stays at -inf (no pruning).
  const bool finite_base = base > -std::numeric_limits<double>::infinity();

  std::optional<topology::deviation> best;
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
                  // Acceptance is strict (> threshold), so the incremental
                  // path may settle a candidate by its separator value
                  // alone; that value then sits at or below the threshold
                  // and both branches below stay false, exactly as the
                  // true value would.
                  if (finite_base) {
                    evaluator.set_threshold(best ? base + best->gain()
                                                 : base + options.tolerance);
                  }
                  const double value = evaluator.evaluate(chosen);
                  const bool better =
                      finite_base
                          ? value > base + options.tolerance &&
                                (!best || value - base > best->gain())
                          : value > base &&
                                (!best || value > best->utility_after);
                  if (better) {
                    best = diff_deviation(u, own, chosen, base, value);
                  }
                  return true;
                });
          }
          return true;
        });
  }
  return best;
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
