#include "arena/population.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <utility>

#include "obs/registry.h"
#include "obs/span.h"
#include "pcn/network.h"
#include "util/error.h"

namespace lcg::arena {

namespace {

/// A proposal is structurally applicable iff every removed channel still
/// exists and every added channel still doesn't (simultaneous mode: an
/// earlier-applied proposal may have consumed either side).
bool applicable(const strategy_state& state, const topology::deviation& dev) {
  for (const graph::node_id peer : dev.removed_peers) {
    if (!state.connected(dev.deviator, peer)) return false;
  }
  for (const graph::node_id peer : dev.added_peers) {
    if (peer == dev.deviator || state.connected(dev.deviator, peer))
      return false;
  }
  return true;
}

/// pcn::network mirror of the strategy state: one channel per unordered
/// node pair, `deposit` per side on open, full refund on close. The engine
/// never locks HTLCs in the mirror, so close_channel settles everything.
struct ledger_mirror {
  pcn::network net;
  std::map<std::pair<graph::node_id, graph::node_id>, pcn::channel_id> ids;
  population_ledger& out;
  double deposit;

  ledger_mirror(std::size_t n, double onchain_cost, population_ledger& sums,
                double deposit_per_side)
      : net(n, onchain_cost), out(sums), deposit(deposit_per_side) {}

  static std::pair<graph::node_id, graph::node_id> key(graph::node_id a,
                                                       graph::node_id b) {
    return {std::min(a, b), std::max(a, b)};
  }

  void open(graph::node_id a, graph::node_id b) {
    const pcn::channel_id id = net.open_channel(a, b, deposit, deposit);
    const bool fresh = ids.emplace(key(a, b), id).second;
    LCG_EXPECTS(fresh);
    out.deposited += 2.0 * deposit;
    ++out.channels_opened;
  }

  void close(graph::node_id a, graph::node_id b) {
    const auto it = ids.find(key(a, b));
    LCG_EXPECTS(it != ids.end());
    const pcn::channel& ch = net.channel_at(it->second);
    LCG_EXPECTS(ch.total_locked() == 0.0);
    out.refunded += ch.balance_a + ch.balance_b;
    net.close_channel(it->second, pcn::close_mode::collaborative);
    ids.erase(it);
    ++out.channels_closed;
  }

  void finish() {
    for (const auto& [pair, id] : ids) {
      const pcn::channel& ch = net.channel_at(id);
      out.open_value += ch.balance_a + ch.balance_b + ch.total_locked();
      out.locked += ch.total_locked();
    }
  }
};

/// Adds a finished run's sweep ledger to the process-wide arena/* obs
/// counters (the names bench_arena's records use). The evaluator counters
/// are created only by runs that priced candidates through
/// candidate_evaluator — those count logical evaluations — so a
/// brute-oracle trace lists none of them.
void publish_sweeps(const sweep_stats& st, std::uint64_t evaluations) {
  if (!obs::enabled()) return;
  obs::registry& reg = obs::registry::global();
  if (st.full_sweeps > 0)
    reg.get_counter("arena/sweep_full").add(st.full_sweeps);
  if (evaluations == 0) return;
  reg.get_counter("arena/build_forest").add(st.forest);
  reg.get_counter("arena/resweep_source").add(st.resweeps);
  reg.get_counter("arena/accumulate_source").add(st.accumulations);
  reg.get_counter("arena/run_support_bfs").add(st.support_bfs);
  reg.get_counter("arena/prune_candidate").add(st.pruned);
}

}  // namespace

churn_schedule make_churn_schedule(std::size_t node_count, std::size_t initial,
                                   std::size_t joins, std::size_t leaves,
                                   std::size_t max_rounds, std::uint64_t seed) {
  LCG_EXPECTS(initial >= 2 && initial <= node_count);
  LCG_EXPECTS(max_rounds >= 2);
  std::uint64_t state = seed ^ 0x6a09e667f3bcc908ULL;
  rng stream(splitmix64(state));

  std::vector<std::size_t> rounds(joins + leaves);
  for (std::size_t& r : rounds) {
    r = static_cast<std::size_t>(
        stream.uniform_int(1, static_cast<std::int64_t>(max_rounds) - 1));
  }
  std::sort(rounds.begin(), rounds.end());

  // Walk the event slots in round order, maintaining the active set the
  // engine will see, so every emitted event is valid when processed.
  std::vector<char> active(node_count, 0);
  for (std::size_t u = 0; u < initial; ++u) active[u] = 1;
  std::size_t active_count = initial;
  std::vector<graph::node_id> spares;  // fresh ids, ascending
  for (std::size_t u = initial; u < node_count; ++u)
    spares.push_back(static_cast<graph::node_id>(u));
  std::vector<graph::node_id> freed;  // departed ids, re-used first
  std::size_t joins_left = joins;
  std::size_t leaves_left = leaves;

  churn_schedule schedule;
  for (const std::size_t round : rounds) {
    const bool can_join =
        joins_left > 0 && (!freed.empty() || !spares.empty());
    const bool can_leave = leaves_left > 0 && active_count > 2;
    if (!can_join && !can_leave) {
      // Burn the slot deterministically so later slots keep their draws
      // independent of which earlier ones were feasible.
      (void)stream.uniform01();
      continue;
    }
    bool join = can_join;
    if (can_join && can_leave) {
      join = stream.uniform01() <
             static_cast<double>(joins_left) /
                 static_cast<double>(joins_left + leaves_left);
    } else {
      (void)stream.uniform01();
    }
    if (join) {
      graph::node_id player;
      if (!freed.empty()) {  // re-use a departed slot first
        const auto it = std::min_element(freed.begin(), freed.end());
        player = *it;
        freed.erase(it);
      } else {
        player = spares.front();
        spares.erase(spares.begin());
      }
      active[player] = 1;
      ++active_count;
      --joins_left;
      schedule.events.push_back({round, true, player});
    } else {
      std::vector<graph::node_id> pool;
      for (graph::node_id u = 0; u < node_count; ++u)
        if (active[u]) pool.push_back(u);
      const graph::node_id player = pool[static_cast<std::size_t>(
          stream.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      active[player] = 0;
      --active_count;
      --leaves_left;
      freed.push_back(player);
      schedule.events.push_back({round, false, player});
    }
  }
  return schedule;
}

population_result run_population(const graph::digraph& start,
                                 const topology::game_params& params,
                                 const population_options& options) {
  params.validate();
  const arena_options& ao = options.base;
  population_result result;
  arena_result& base = result.base;
  base.state = strategy_state(start);
  const std::size_t n = start.node_count();

  const bool churning =
      !options.churn.events.empty() || options.initial_players > 0;
  // best_deviation cannot see the active mask, so brute + churn would rank
  // departed nodes as demand endpoints.
  LCG_EXPECTS(!(churning && ao.oracle == oracle_kind::brute));
  if (!options.player_params.empty())
    LCG_EXPECTS(options.player_params.size() == n);
  for (std::size_t i = 1; i < options.churn.events.size(); ++i) {
    LCG_EXPECTS(options.churn.events[i - 1].round <=
                options.churn.events[i].round);
  }

  utility_provider provider(params, ao.provider);
  if (!options.player_params.empty())
    provider.set_player_params(options.player_params);

  std::vector<char> active;
  if (churning) {
    const std::size_t initial =
        options.initial_players == 0 ? n : options.initial_players;
    LCG_EXPECTS(initial >= 1 && initial <= n);
    active.assign(n, 0);
    for (std::size_t u = 0; u < initial; ++u) active[u] = 1;
    for (graph::node_id u = 0; u < n; ++u) {
      if (!active[u]) LCG_EXPECTS(start.out_degree(u) == 0);  // spares idle
    }
    provider.set_active(&active);
  }

  std::vector<rng> streams;
  streams.reserve(n);
  // Each stream seed is one splitmix64 step from its own state — the
  // historical derivation, so a degenerate population run replays the
  // static arena draw for draw.
  for (std::size_t u = 0; u < n; ++u) {
    std::uint64_t state = ao.seed + 0x9e3779b97f4a7c15ULL * (u + 1);
    streams.emplace_back(splitmix64(state));
  }
  std::uint64_t schedule_state = ao.seed ^ 0xa5c3ab9471bd0017ULL;
  rng schedule(splitmix64(schedule_state));

  std::optional<ledger_mirror> mirror;
  if (options.track_ledger) {
    mirror.emplace(n, options.onchain_cost, result.ledger,
                   options.deposit_per_side);
    for (const topology::channel_pair& ch : topology::channel_pairs(start))
      mirror->open(ch.a, ch.b);
  }

  std::set<std::uint64_t> seen{
      topology::topology_fingerprint(base.state.graph())};

  const auto propose = [&](graph::node_id u,
                           const std::vector<double>& scores) {
    return propose_move(ao.oracle, base.state, u, provider, ao.oracle_opts,
                        scores, streams[u]);
  };
  const auto apply = [&](std::size_t round, const topology::deviation& dev) {
    if (mirror) {
      for (const graph::node_id peer : dev.removed_peers)
        mirror->close(dev.deviator, peer);
      for (const graph::node_id peer : dev.added_peers)
        mirror->open(dev.deviator, peer);
    }
    base.state.apply(dev);
    base.total_gain += dev.gain();
    base.moves.push_back(arena_move{round, dev});
    static obs::counter& moves_counter =
        obs::registry::global().get_counter("arena/apply_move");
    moves_counter.add();
  };

  const std::vector<churn_event>& events = options.churn.events;
  std::size_t next_event = 0;

  for (std::size_t round = 0; round < ao.max_rounds; ++round) {
    ++base.rounds;
    static obs::counter& rounds_counter =
        obs::registry::global().get_counter("arena/run_round");
    rounds_counter.add();
    obs::span round_span("arena/round");
    round_span.attr("round", static_cast<long long>(round))
        .attr("n", static_cast<long long>(n));

    // --- churn: events scheduled for this round fire before anyone moves.
    bool perturbed = false;
    std::vector<graph::node_id> joiners;
    while (next_event < events.size() && events[next_event].round <= round) {
      const churn_event& ev = events[next_event++];
      LCG_EXPECTS(ev.player < n);
      if (ev.join) {
        LCG_EXPECTS(!active[ev.player]);
        LCG_EXPECTS(base.state.graph().out_degree(ev.player) == 0);
        active[ev.player] = 1;
        joiners.push_back(ev.player);
        ++result.joins;
      } else {
        LCG_EXPECTS(active[ev.player]);
        const auto closed = base.state.detach(ev.player);
        if (mirror) {
          for (const auto& [owner, peer] : closed) mirror->close(owner, peer);
        }
        active[ev.player] = 0;
        ++result.leaves;
      }
      perturbed = true;
    }
    if (perturbed) {
      // Entry strategy: each joiner immediately best-responds through the
      // run's oracle against a fresh signal (Section III as an entry move).
      if (!joiners.empty()) {
        const std::vector<double> entry_scores =
            provider.node_scores(base.state.graph());
        for (const graph::node_id u : joiners) {
          if (auto dev = propose(u, entry_scores)) {
            ++base.proposals;
            apply(round, *dev);
          }
        }
      }
      // The graph changed exogenously: cycle detection restarts from the
      // post-churn topology (old fingerprints are no longer reachable
      // evidence of a best-response cycle).
      seen.clear();
      seen.insert(topology::topology_fingerprint(base.state.graph()));
    }

    // The candidate-ranking signal is refreshed once per round (cheaper
    // than per activation, and what makes the simultaneous snapshot
    // well-defined); the brute oracle never reads it.
    const std::vector<double> scores =
        ao.oracle == oracle_kind::brute
            ? std::vector<double>()
            : provider.node_scores(base.state.graph());

    std::size_t applied = 0;
    bool quiescent = false;
    if (ao.order == activation_order::simultaneous) {
      std::vector<topology::deviation> proposals;
      for (graph::node_id u = 0; u < n; ++u) {
        if (!active.empty() && !active[u]) continue;
        if (auto dev = propose(u, scores)) proposals.push_back(*dev);
      }
      base.proposals += proposals.size();
      std::sort(proposals.begin(), proposals.end(),
                [](const topology::deviation& a, const topology::deviation& b) {
                  if (a.gain() != b.gain()) return a.gain() > b.gain();
                  return a.deviator < b.deviator;
                });
      // The first proposal in sorted order is always applicable (the
      // snapshot was unmutated when it was computed), so a non-empty
      // proposal set applies at least one move.
      for (const topology::deviation& dev : proposals) {
        if (!applicable(base.state, dev)) continue;
        apply(round, dev);
        ++applied;
      }
      quiescent = proposals.empty();
    } else {
      std::vector<graph::node_id> sequence;
      if (active.empty()) {
        sequence.resize(n);
        std::iota(sequence.begin(), sequence.end(), 0);
      } else {
        for (graph::node_id u = 0; u < n; ++u)
          if (active[u]) sequence.push_back(u);
      }
      if (ao.order == activation_order::random) schedule.shuffle(sequence);
      for (const graph::node_id u : sequence) {
        const std::optional<topology::deviation> dev = propose(u, scores);
        if (!dev) continue;
        ++base.proposals;
        apply(round, *dev);
        ++applied;
      }
      quiescent = applied == 0;
    }

    if (quiescent) {
      if (!perturbed && next_event >= events.size()) {
        base.outcome = topology::dynamics_outcome::converged;
        break;
      }
      // Churn is still pending (or just fired): the round was idle but the
      // run is not at rest — roll forward to the next scheduled event.
      continue;
    }

    const std::uint64_t fp =
        topology::topology_fingerprint(base.state.graph());
    if (!seen.insert(fp).second) {
      base.outcome = topology::dynamics_outcome::cycled;
      break;
    }
  }

  base.evaluations = provider.evaluations();
  base.sweeps = provider.stats();
  publish_sweeps(base.sweeps, base.evaluations);
  if (churning) result.active = std::move(active);
  if (mirror) mirror->finish();
  return result;
}

}  // namespace lcg::arena
