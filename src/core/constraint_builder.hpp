// Pairwise static-constraint matrix (§2.3).
//
// The scheduler compares every pair of actions, across logs and within each
// log, and records `constraint(a, b)` — whether `a` may precede `b`. The
// relation is built from three sources: log order, target identity, and the
// per-object `order` method.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/constraint.hpp"
#include "core/log.hpp"
#include "core/universe.hpp"
#include "util/bitset.hpp"
#include "util/ids.hpp"

namespace icecube {

class ThreadPool;

/// Dense N×N matrix of `Constraint` values over a flattened action set.
class ConstraintMatrix {
 public:
  ConstraintMatrix() = default;
  explicit ConstraintMatrix(std::size_t n)
      : n_(n), cells_(n * n, Constraint::kSafe) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  [[nodiscard]] Constraint at(ActionId a, ActionId b) const {
    return cells_[a.index() * n_ + b.index()];
  }
  void set(ActionId a, ActionId b, Constraint c) {
    cells_[a.index() * n_ + b.index()] = c;
  }

 private:
  std::size_t n_ = 0;
  std::vector<Constraint> cells_;
};

/// The shared-target kernel every builder goes through: writes the distinct
/// objects of `ta` that also appear in `tb`, in `ta` order, into `out`
/// (cleared first). Target lists are tiny, so this is a quadratic scan;
/// `out` is caller-owned scratch, reused across pairs by the bulk builders.
void common_targets_into(std::span<const ObjectId> ta,
                         std::span<const ObjectId> tb,
                         std::vector<ObjectId>& out);

/// Computes `constraint(a, b)` for one pair of action records, per the
/// summary rules of §2.3:
///
///   constraint(a,b) = safe                      if targets(a) ∩ targets(b) = ∅
///                   = safe                      if a before b in the same log
///                   = most-constraining over common targets of
///                     target.order(a, b, rel)   otherwise
///
/// `universe` supplies the order methods; constraint evaluation never touches
/// mutable object state.
[[nodiscard]] Constraint evaluate_constraint(const Universe& universe,
                                             const ActionRecord& a,
                                             const ActionRecord& b);

/// Same evaluation, but over a caller-supplied shared-target set, for callers
/// (the incremental graph) that already know which objects a pair has in
/// common and must not pay a fresh `targets()` extraction per direction. The
/// iteration order of `shared` does not affect the result; `order_calls` is
/// incremented once per object-order query, matching the batch builders.
[[nodiscard]] Constraint evaluate_constraint_over(
    const Universe& universe, const ActionRecord& a, const ActionRecord& b,
    const std::vector<ObjectId>& shared, std::uint64_t& order_calls);

/// Work counters for one matrix construction. The sparse builder's whole
/// point is doing strictly less of this than the dense all-pairs scan, so
/// both builders count and the equivalence tests compare.
struct ConstraintBuildStats {
  /// Ordered (a, b) pairs for which an evaluation ran. The dense builder
  /// evaluates all n·(n−1); the sparse builder only the directions of pairs
  /// sharing at least one target.
  std::uint64_t pairs_evaluated = 0;
  /// Shared-target set computations. The dense builder recomputes the set
  /// for (a, b) and again for (b, a); the sparse builder computes it once
  /// per unordered pair.
  std::uint64_t target_set_builds = 0;
  /// `SharedObject::order` invocations.
  std::uint64_t order_calls = 0;
};

/// Knobs for the sparse builder.
struct ConstraintBuildOptions {
  /// Shard pair evaluation across this pool (the calling thread
  /// participates). Null = evaluate on the calling thread only. Results are
  /// identical either way: shards write disjoint matrix cells and the value
  /// of a pair never depends on any other pair.
  ThreadPool* pool = nullptr;
  /// Filled with the work counters when non-null.
  ConstraintBuildStats* stats = nullptr;
};

/// Builds the full matrix over `records` via the target→actions inverted
/// index: only pairs sharing at least one target are evaluated (everything
/// else is `safe` by §2.3 rule 1), the shared-target set is computed once
/// per unordered pair and reused for both directions, and evaluation is
/// optionally sharded across a thread pool. Produces the matrix of the
/// all-pairs scan (the oracle in tests/dense_constraints.hpp).
[[nodiscard]] ConstraintMatrix build_constraints(
    const Universe& universe, const std::vector<ActionRecord>& records,
    const ConstraintBuildOptions& options = {});

/// Per-action bitsets of the *other* actions sharing at least one target,
/// built through the same target→actions inverted index the sparse matrix
/// builder uses — O(Σ per-target group²) bit sets instead of the all-pairs
/// O(n²·t²) scan. The §6 failure-memoization causal keys consume this; the
/// reconcilers build it once and share it across every cutset's simulator.
[[nodiscard]] std::vector<Bitset> build_target_overlap(
    const std::vector<ActionRecord>& records);

/// Renders the matrix as an aligned text table (used by the figure benches
/// and handy in test failures).
[[nodiscard]] std::string render_matrix(
    const ConstraintMatrix& matrix, const std::vector<std::string>& labels);

}  // namespace icecube
