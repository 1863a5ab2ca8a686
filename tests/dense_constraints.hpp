// The O(n²) all-pairs constraint builder: the oracle the sparse builders
// are checked against, cell for cell and counter for counter.
#pragma once

#include <cstddef>
#include <vector>

#include "core/constraint_builder.hpp"

namespace icecube::testing {

/// Evaluates every ordered pair, recomputing the shared-target set for each
/// direction. `stats` receives n·(n−1) pair evaluations and set builds.
inline ConstraintMatrix build_constraints_dense(
    const Universe& universe, const std::vector<ActionRecord>& records,
    ConstraintBuildStats* stats = nullptr) {
  ConstraintBuildStats local;
  ConstraintMatrix matrix(records.size());
  std::vector<ObjectId> shared;
  for (std::size_t i = 0; i < records.size(); ++i) {
    for (std::size_t j = 0; j < records.size(); ++j) {
      if (i == j) continue;  // diagonal is meaningless; left safe
      ++local.pairs_evaluated;
      ++local.target_set_builds;
      common_targets_into(records[i].action->targets(),
                          records[j].action->targets(), shared);
      matrix.set(ActionId(i), ActionId(j),
                 evaluate_constraint_over(universe, records[i], records[j],
                                          shared, local.order_calls));
    }
  }
  if (stats != nullptr) *stats = local;
  return matrix;
}

}  // namespace icecube::testing
