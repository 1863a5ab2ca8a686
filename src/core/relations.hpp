// The dependence (D) and independence (I) relations (§3.1).
//
// The constraint relation maps onto two relations consumed by the scheduler:
//
//   constraint(a,b) = safe   ⇒  a I b   (a immediately followed by b is
//                                        known/likely failure-free)
//   constraint(a,b) = unsafe ⇒  b D a   (b must precede a in any schedule
//                                        containing both)
//   constraint(a,b) = maybe  ⇒  nothing
//
// D is reflexive and transitive in the paper's formulation; we store the raw
// edges (needed for cycle analysis) and the transitive closure (needed for
// correct scheduling once a cutset removes vertices). I is neither reflexive
// nor transitive and is stored as given.
#pragma once

#include <cstddef>
#include <vector>

#include "util/bitset.hpp"
#include "util/ids.hpp"

namespace icecube {

struct SolverGraph;

/// Dependence/independence relations over a dense action-id space.
class Relations {
 public:
  Relations() = default;
  explicit Relations(std::size_t n);

  /// Derives D and I from the stored constraint relation per the table
  /// above: for a ≠ b, `a I b` unless the graph has the D edge b → a or
  /// lists (a, b) as `maybe`; every raw edge a → b with a ≠ b is `a D b`.
  static Relations from_graph(const SolverGraph& graph);

  [[nodiscard]] std::size_t size() const { return n_; }

  /// Adds a raw dependence edge: `a` must precede `b`. (No closure update;
  /// call `close()` after the last edge.)
  void add_dependence(ActionId a, ActionId b);
  /// Declares `a I b`.
  void add_independence(ActionId a, ActionId b);

  /// Recomputes the transitive closure of D from the raw edges.
  void close();

  /// Returns a copy with the vertices in `removed` isolated (every raw D
  /// edge touching them dropped) and the closure recomputed. Required when
  /// searching under a cutset: inside a dependence cycle the closure makes
  /// every member precede every other, which would deadlock the remaining
  /// members unless the cut vertices' edges are actually gone.
  [[nodiscard]] Relations restricted(const Bitset& removed) const;

  /// Raw (un-closed) dependence edge a → b?
  [[nodiscard]] bool depends_raw(ActionId a, ActionId b) const {
    return raw_succ_[a.index()].test(b.index());
  }
  /// Closed dependence: must `a` precede `b` (possibly transitively)?
  [[nodiscard]] bool depends(ActionId a, ActionId b) const {
    return closed_succ_[a.index()].test(b.index());
  }
  [[nodiscard]] bool independent(ActionId a, ActionId b) const {
    return indep_[a.index()].test(b.index());
  }

  /// Closed predecessors of `b`: every action that must precede it.
  [[nodiscard]] const Bitset& predecessors(ActionId b) const {
    return closed_pred_[b.index()];
  }
  /// Closed successors of `a`: every action it must precede.
  [[nodiscard]] const Bitset& successors(ActionId a) const {
    return closed_succ_[a.index()];
  }
  /// I-successors of `a`: every c with a I c.
  [[nodiscard]] const Bitset& independents_of(ActionId a) const {
    return indep_[a.index()];
  }
  /// I-predecessors of `b`: every c with c I b.
  [[nodiscard]] const Bitset& independent_predecessors_of(ActionId b) const {
    return indep_pred_[b.index()];
  }
  /// Raw successors of `a` (direct D edges out of `a`).
  [[nodiscard]] const Bitset& raw_successors(ActionId a) const {
    return raw_succ_[a.index()];
  }

  /// Total number of raw dependence edges / independence pairs.
  [[nodiscard]] std::size_t dependence_edge_count() const;
  [[nodiscard]] std::size_t independence_pair_count() const;

 private:
  std::size_t n_ = 0;
  std::vector<Bitset> raw_succ_;     // raw D edges, a → {b : a before b}
  std::vector<Bitset> closed_succ_;  // transitive closure of raw_succ_
  std::vector<Bitset> closed_pred_;  // transpose of closed_succ_
  std::vector<Bitset> indep_;        // I, a → {c : a I c}
  std::vector<Bitset> indep_pred_;   // transpose of indep_
};

}  // namespace icecube
