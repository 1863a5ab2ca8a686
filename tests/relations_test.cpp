// Tests for the D/I relations (§3.1): the mapping from the stored
// constraint graph, transitive closure, restriction under cutsets.
#include <gtest/gtest.h>

#include "core/relations.hpp"
#include "solver/graph.hpp"

namespace icecube {
namespace {

/// A hand-built stored relation over two actions sharing a target: every
/// direction is safe until a test lists it as maybe or adds a D edge.
SolverGraph two_action_graph() {
  SolverGraph g;
  g.n = 2;
  g.preds.resize(2);
  g.succs.resize(2);
  g.overlap_lists = {{ActionId(1)}, {ActionId(0)}};
  return g;
}

TEST(Relations, FromConstraintsMapsSafeToIndependence) {
  // constraint(0, 1) = safe (nothing stored), constraint(1, 0) = maybe.
  SolverGraph g = two_action_graph();
  g.maybe.emplace_back(ActionId(1), ActionId(0));
  const Relations rel = Relations::from_graph(g);
  EXPECT_TRUE(rel.independent(ActionId(0), ActionId(1)));
  EXPECT_FALSE(rel.independent(ActionId(1), ActionId(0)));
  EXPECT_TRUE(rel.independent_predecessors_of(ActionId(1)).test(0));
  EXPECT_EQ(rel.dependence_edge_count(), 0u);
}

TEST(Relations, FromConstraintsMapsUnsafeToReversedDependence) {
  // constraint(0, 1) = unsafe is stored as the D edge 1 → 0: b must
  // precede a.
  SolverGraph g = two_action_graph();
  g.succs[1].push_back(ActionId(0));
  g.preds[0].push_back(ActionId(1));
  g.maybe.emplace_back(ActionId(1), ActionId(0));
  const Relations rel = Relations::from_graph(g);
  EXPECT_TRUE(rel.depends(ActionId(1), ActionId(0)));
  EXPECT_FALSE(rel.depends(ActionId(0), ActionId(1)));
  EXPECT_EQ(rel.independence_pair_count(), 0u);
}

TEST(Relations, MaybeContributesNothing) {
  SolverGraph g = two_action_graph();
  g.maybe.emplace_back(ActionId(0), ActionId(1));
  g.maybe.emplace_back(ActionId(1), ActionId(0));
  const Relations rel = Relations::from_graph(g);
  EXPECT_EQ(rel.dependence_edge_count(), 0u);
  EXPECT_EQ(rel.independence_pair_count(), 0u);
}

TEST(Relations, ClosureIsTransitive) {
  Relations rel(4);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(1), ActionId(2));
  rel.add_dependence(ActionId(2), ActionId(3));
  rel.close();
  EXPECT_TRUE(rel.depends(ActionId(0), ActionId(3)));
  EXPECT_TRUE(rel.depends(ActionId(0), ActionId(2)));
  EXPECT_TRUE(rel.depends(ActionId(1), ActionId(3)));
  EXPECT_FALSE(rel.depends(ActionId(3), ActionId(0)));
  // Raw edges are untouched by closure.
  EXPECT_TRUE(rel.depends_raw(ActionId(0), ActionId(1)));
  EXPECT_FALSE(rel.depends_raw(ActionId(0), ActionId(3)));
}

TEST(Relations, PredecessorsMatchClosure) {
  Relations rel(3);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(1), ActionId(2));
  rel.close();
  const Bitset& preds = rel.predecessors(ActionId(2));
  EXPECT_TRUE(preds.test(0));
  EXPECT_TRUE(preds.test(1));
  EXPECT_FALSE(preds.test(2));
}

TEST(Relations, CycleClosureMakesMembersMutuallyDependent) {
  Relations rel(3);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(1), ActionId(0));
  rel.close();
  EXPECT_TRUE(rel.depends(ActionId(0), ActionId(1)));
  EXPECT_TRUE(rel.depends(ActionId(1), ActionId(0)));
  EXPECT_TRUE(rel.depends(ActionId(0), ActionId(0)));  // via the cycle
  EXPECT_FALSE(rel.depends(ActionId(2), ActionId(0)));
}

TEST(Relations, RestrictedDropsEdgesOfRemovedVertices) {
  Relations rel(3);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(1), ActionId(0));  // cycle {0,1}
  rel.add_dependence(ActionId(1), ActionId(2));
  rel.add_independence(ActionId(0), ActionId(2));
  rel.close();

  Bitset removed(3);
  removed.set(1);
  const Relations restricted = rel.restricted(removed);
  // The cycle is broken: 0 no longer depends on anything.
  EXPECT_FALSE(restricted.depends(ActionId(0), ActionId(1)));
  EXPECT_FALSE(restricted.depends(ActionId(1), ActionId(0)));
  EXPECT_FALSE(restricted.depends(ActionId(1), ActionId(2)));
  EXPECT_TRUE(restricted.predecessors(ActionId(2)).none());
  // Independence survives restriction.
  EXPECT_TRUE(restricted.independent(ActionId(0), ActionId(2)));
}

TEST(Relations, RestrictedKeepsTransitiveChainsAmongSurvivors) {
  // 0 → 1 → 2 plus direct 0 → 2; removing 1 must keep 0 → 2 (direct edge).
  Relations rel(3);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(1), ActionId(2));
  rel.add_dependence(ActionId(0), ActionId(2));
  rel.close();

  Bitset removed(3);
  removed.set(1);
  const Relations restricted = rel.restricted(removed);
  EXPECT_TRUE(restricted.depends(ActionId(0), ActionId(2)));
}

TEST(Relations, IndependencePredecessorsAreTransposed) {
  Relations rel(3);
  rel.add_independence(ActionId(0), ActionId(2));
  rel.add_independence(ActionId(1), ActionId(2));
  EXPECT_TRUE(rel.independent_predecessors_of(ActionId(2)).test(0));
  EXPECT_TRUE(rel.independent_predecessors_of(ActionId(2)).test(1));
  EXPECT_TRUE(rel.independents_of(ActionId(0)).test(2));
  EXPECT_EQ(rel.independence_pair_count(), 2u);
}

TEST(Relations, EdgeAndPairCounts) {
  Relations rel(4);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.add_dependence(ActionId(2), ActionId(3));
  rel.add_independence(ActionId(0), ActionId(3));
  rel.close();
  EXPECT_EQ(rel.dependence_edge_count(), 2u);
  EXPECT_EQ(rel.independence_pair_count(), 1u);
}

}  // namespace
}  // namespace icecube
