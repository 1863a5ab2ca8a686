// Pairwise static-constraint evaluation (§2.3).
//
// The scheduler compares every pair of actions, across logs and within each
// log, and records `constraint(a, b)` — whether `a` may precede `b`. The
// relation is built from three sources: log order, target identity, and the
// per-object `order` method. This header holds the per-pair evaluation and
// its work counters; the relation is stored once, as the SolverGraph of
// solver/graph.hpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/constraint.hpp"
#include "core/log.hpp"
#include "core/universe.hpp"
#include "util/ids.hpp"

namespace icecube {

/// The shared-target kernel every build goes through: writes the distinct
/// objects of `ta` that also appear in `tb`, in `ta` order, into `out`
/// (cleared first). Target lists are tiny, so this is a quadratic scan;
/// `out` is caller-owned scratch, reused across pairs by the batch build.
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
/// incremented once per object-order query.
[[nodiscard]] Constraint evaluate_constraint_over(
    const Universe& universe, const ActionRecord& a, const ActionRecord& b,
    const std::vector<ObjectId>& shared, std::uint64_t& order_calls);

/// Work counters of one constraint build (SolverGraph construction, batch
/// or incremental). Both enumerations make the same calls, so the counters
/// of a batch build and of the same records added one by one are equal.
struct ConstraintBuildStats {
  /// Ordered (a, b) directions evaluated: the directions of pairs sharing
  /// at least one target that log order (§2.3 rule 2) has not already
  /// settled as safe.
  std::uint64_t pairs_evaluated = 0;
  /// Shared-target set computations, one per unordered pair sharing a
  /// target.
  std::uint64_t target_set_builds = 0;
  /// `SharedObject::order` invocations.
  std::uint64_t order_calls = 0;
};

}  // namespace icecube
