// Best-response move oracles for the arena.
//
// topo/best_response certifies equilibria by EXHAUSTIVE deviation
// enumeration — 2^(n-1) deviated graphs per player — which is why it stops
// at n ~ 8 (computing best responses is NP-hard, Theorem 2 of [19]). The
// arena replaces that family enumeration with restricted oracles built on
// the library's existing optimisers:
//
//   * greedy — rebuilds the player's OWN channel set from scratch with the
//     literal Algorithm 1 steps (those of core/greedy.h's generic
//     objective engine), each step decided by the local oracle's decide
//     pass: candidates are the current own peers plus the top-k
//     demand-weighted-betweenness nodes plus a few random explorers drawn
//     from the player's private splitmix64 stream. O(|cands|^2) utility
//     evaluations per activation.
//   * local — exhaustive search over a TINY deviation neighbourhood:
//     at most `max_removed` dropped own channels x at most `max_added`
//     additions from the same candidate set (the deviation_limits idea of
//     topology/nash.h, shrunk to constant size and aimed by centrality).
//   * brute — topology::best_deviation with unlimited limits: the n <= 8
//     reference, bit-compatible with topo/best_response (tests pin that the
//     arena under this oracle reproduces its certified outcomes).
//
// All oracles return a topology::deviation (utility_before/after filled
// from the oracle's own evaluations) or nullopt when no improving move
// exists within the oracle's horizon.

#ifndef LCG_ARENA_ORACLES_H
#define LCG_ARENA_ORACLES_H

#include <optional>
#include <string>
#include <string_view>

#include "arena/provider.h"
#include "arena/state.h"
#include "util/rng.h"

namespace lcg::arena {

enum class oracle_kind { greedy, local, brute };

/// Parses "greedy" / "local" / "brute"; throws precondition_error
/// otherwise (scenario and CLI parameter surface).
[[nodiscard]] oracle_kind oracle_from_name(std::string_view name);
[[nodiscard]] std::string_view oracle_name(oracle_kind kind);

struct oracle_options {
  /// Candidate peers taken from the top of the betweenness ranking.
  std::size_t candidate_k = 6;
  /// Extra exploration candidates drawn from the player's private stream.
  std::size_t candidate_random = 2;
  /// Greedy: cap on the rebuilt own-channel set.
  std::size_t max_channels = 8;
  /// Local: caps of the enumerated deviation neighbourhood.
  std::size_t max_removed = 1;
  std::size_t max_added = 2;
  double tolerance = 1e-9;
};

/// Proposes player `u`'s move on the current shared network. `scores` is
/// the round's candidate-ranking signal (utility_provider::node_scores;
/// ignored by the brute oracle) and `stream` the player's PRIVATE rng —
/// consumed only by this player's random candidates, so activation order
/// never perturbs other players' draws.
[[nodiscard]] std::optional<topology::deviation> propose_move(
    oracle_kind kind, const strategy_state& state, graph::node_id u,
    const utility_provider& provider, const oracle_options& options,
    const std::vector<double>& scores, rng& stream);

}  // namespace lcg::arena

#endif  // LCG_ARENA_ORACLES_H
