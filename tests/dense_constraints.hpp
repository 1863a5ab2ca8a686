// The O(n²) all-pairs constraint oracle: a dense matrix of every ordered
// pair's `constraint(a, b)`, the Relations and §6 overlap rows it defines,
// and a per-cell reading of the stored SolverGraph to compare against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/relations.hpp"
#include "solver/graph.hpp"
#include "util/bitset.hpp"

namespace icecube::testing {

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

/// Evaluates every ordered pair, recomputing the shared-target set for each
/// direction and settling nothing in advance. `stats` receives n·(n−1) pair
/// evaluations and set builds.
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

/// The §3.1 mapping applied cell by cell: safe ⇒ a I b, unsafe ⇒ b D a,
/// maybe ⇒ nothing; the diagonal is skipped.
inline Relations relations_from_matrix(const ConstraintMatrix& matrix) {
  Relations rel(matrix.size());
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      if (i == j) continue;
      switch (matrix.at(ActionId(i), ActionId(j))) {
        case Constraint::kSafe:
          rel.add_independence(ActionId(i), ActionId(j));
          break;
        case Constraint::kUnsafe:
          rel.add_dependence(ActionId(j), ActionId(i));
          break;
        case Constraint::kMaybe:
          break;
      }
    }
  }
  rel.close();
  return rel;
}

/// The §6 overlap rows by definition: bit j of row i is set iff i ≠ j and
/// the two actions share at least one target.
inline std::vector<Bitset> overlap_dense(
    const std::vector<ActionRecord>& records) {
  const std::size_t n = records.size();
  std::vector<Bitset> rows(n, Bitset(n));
  std::vector<ObjectId> shared;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      common_targets_into(records[i].action->targets(),
                          records[j].action->targets(), shared);
      if (i != j && !shared.empty()) rows[i].set(j);
    }
  }
  return rows;
}

/// `constraint(a, b)` as the stored graph records it: unsafe iff the D edge
/// b → a exists, maybe iff (a, b) is listed, safe otherwise.
inline Constraint graph_verdict(const SolverGraph& graph, ActionId a,
                                ActionId b) {
  if (graph.has_edge(b, a)) return Constraint::kUnsafe;
  const auto pair = std::make_pair(a, b);
  if (std::find(graph.maybe.begin(), graph.maybe.end(), pair) !=
      graph.maybe.end()) {
    return Constraint::kMaybe;
  }
  return Constraint::kSafe;
}

}  // namespace icecube::testing
