// The stored static-constraint relation (DESIGN.md §8, §13).
//
// IceCube's constraint relation (§2.3) has three values per ordered pair,
// but almost every pair is `safe`: two actions sharing no target are safe
// both ways (rule 1), and a same-log pair is safe in its recorded order
// (rule 2). So the one stored form keeps only the exceptions, per evaluated
// direction:
//
//   * `unsafe` as a raw D edge in adjacency lists (constraint(a, b) =
//     unsafe ⇒ b must precede a), and
//   * `maybe` in one flat list of (a, b) pairs,
//
// plus the target-overlap neighbourhoods. The greedy and local-search
// backends read the adjacency directly — they keep a *topological*
// permutation invariant, so respecting every raw edge is respecting the
// closed relation. The DFS engine derives its dense Relations from the same
// graph (`Relations::from_graph`), and the §6 overlap bitsets come from
// `overlap_bitsets`.
//
// Two enumerations fill it, one per input shape, both through the one pair
// kernel `SolverGraph::add_pair`: `build_solver_graph` walks a flat
// target→actions index over a whole batch, and
// `IncrementalConstraintGraph::add_action` (core/incremental.hpp) probes
// per arrival.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/log.hpp"
#include "core/universe.hpp"
#include "util/bitset.hpp"
#include "util/ids.hpp"

namespace icecube {

/// Adjacency-list form of the constraint relation. All lists are sorted by
/// action id.
struct SolverGraph {
  std::size_t n = 0;
  /// preds[b] = every a with a raw D edge a → b ("a must precede b").
  std::vector<std::vector<ActionId>> preds;
  /// succs[a] = every b with a raw D edge a → b.
  std::vector<std::vector<ActionId>> succs;
  /// overlap_lists[a] = every action sharing at least one target with `a`.
  /// An action listing one target twice shares it with itself, so it then
  /// appears in its own list (twice: once per side of the self-pair).
  std::vector<std::vector<ActionId>> overlap_lists;
  /// Every evaluated direction (a, b) whose constraint came out `maybe`, in
  /// evaluation order (not sorted). Every direction in neither this list nor
  /// a D edge b → a is `safe`. Sub-problem graphs (solver/components.hpp)
  /// leave it empty: their backends never read it.
  std::vector<std::pair<ActionId, ActionId>> maybe;

  [[nodiscard]] bool has_edge(ActionId a, ActionId b) const;
  [[nodiscard]] bool overlaps(ActionId a, ActionId b) const;
  [[nodiscard]] std::size_t edge_count() const;

  /// The pair kernel: records the unordered pair {a, b}, a ≤ b, whose
  /// common targets are `shared`. Appends the overlap entries, evaluates
  /// each direction not settled by log order (§2.3 rule 2) over `shared`,
  /// and stores an `unsafe` outcome as a D edge and a `maybe` one in
  /// `maybe`. Appending is all it does to the lists; the callers keep them
  /// sorted. `records` must hold both actions.
  void add_pair(const Universe& universe,
                const std::vector<ActionRecord>& records, ActionId a,
                ActionId b, const std::vector<ObjectId>& shared,
                ConstraintBuildStats& stats);
};

/// Builds the graph straight from the target→actions inverted index: only
/// pairs sharing at least one target are evaluated (disjoint-target pairs
/// are `safe` in both directions by §2.3 rule 1 and contribute nothing), at
/// O(Σ per-target group²) pair evaluations instead of Θ(n²) cells.
/// Workloads funnelling every action through one object defeat that bound —
/// their constraint graph genuinely is dense — so keep single-hot-object
/// inputs on the DFS path sizes. `stats`, when non-null, is added to.
[[nodiscard]] SolverGraph build_solver_graph(
    const Universe& universe, const std::vector<ActionRecord>& records,
    ConstraintBuildStats* stats = nullptr);

/// The §6 failure-memoization overlap index: per action, a bitset of the
/// *other* actions sharing at least one target (the self-pair dropped).
[[nodiscard]] std::vector<Bitset> overlap_bitsets(const SolverGraph& graph);

}  // namespace icecube
