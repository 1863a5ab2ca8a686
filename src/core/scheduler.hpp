// Successor-candidate computation (§3.3).
//
// Given a prefix P of already chosen actions, the scheduler derives:
//
//   S — actions whose (closed) D-predecessors are all accounted for (kept
//       incrementally by the Simulator as actions are placed and unwound),
//   C — members of S that I-follow the last action of P,
//   B — members of S that still have an available I-predecessor,
//
// and applies the heuristic H to decide which of them to try next:
//
//   H = All               : S
//   H = Safe,   C ≠ ∅     : C
//   H = Safe,   C = ∅     : S
//   H = Strict, C ≠ ∅     : one arbitrary member of C
//   H = Strict, C = ∅     : S − B
#pragma once

#include <utility>
#include <vector>

#include "core/options.hpp"
#include "core/relations.hpp"
#include "util/bitset.hpp"
#include "util/ids.hpp"
#include "util/rng.hpp"

namespace icecube {

/// Per-node candidate generator. One instance serves a whole search over a
/// fixed relation set and cutset. The search maintains S itself (see
/// Simulator); the scheduler narrows it to C, B and the heuristic's choice in
/// scratch sets it owns, so a call allocates nothing once the output vector
/// has grown to the largest candidate list.
class CandidateScheduler {
 public:
  /// With `prune_equivalent`, candidates that would create an adjacent
  /// commuting inversion (see ReconcilerOptions::prune_equivalent) are
  /// dropped; the pruning is suppressed while prefix-conditional extra
  /// dependencies are active, since those can invalidate the exchange
  /// argument.
  CandidateScheduler(const Relations& relations, Heuristic heuristic,
                     BRule b_rule, bool prune_equivalent = false);

  /// Applies H to the node's S and writes the candidates to try into `out`
  /// (replacing its contents), in ascending id order (the application
  /// policy may reorder them afterwards). `s` holds the actions that are not
  /// `done` and whose closed D-predecessors are all in `done` (scheduled,
  /// skipped or excluded by the cutset). `extra_deps` are prefix-conditional
  /// dependencies (a must precede b) injected by the application policy: b
  /// is no candidate while a is not done. `last` is the final action of the
  /// prefix (invalid id at the root). `rng` is consulted only by H=Strict
  /// when configured for random picks.
  void successors(const Bitset& s, const Bitset& done, ActionId last,
                  const std::vector<std::pair<ActionId, ActionId>>& extra_deps,
                  Rng* rng, std::vector<ActionId>& out);

 private:
  const Relations& relations_;
  Heuristic heuristic_;
  BRule b_rule_;
  bool prune_equivalent_;
  // Per-call scratch, sized once: S after the extra dependencies, C, B and
  // the chosen set.
  Bitset s_;
  Bitset c_;
  Bitset b_;
  Bitset chosen_;
};

}  // namespace icecube
