// Tests for successor-candidate computation (§3.3): the S, C and B sets and
// the All/Safe/Strict heuristics. S comes from the from-scratch oracle here;
// the simulator's incremental S is checked against it in
// eligible_set_test.cpp.
#include <gtest/gtest.h>

#include "core/scheduler.hpp"
#include "eligible_oracle.hpp"

namespace icecube {
namespace {

std::vector<std::uint32_t> values(const std::vector<ActionId>& ids) {
  std::vector<std::uint32_t> out;
  for (ActionId a : ids) out.push_back(a.value());
  return out;
}

class SchedulerTest : public ::testing::Test {
 protected:
  static constexpr std::size_t kN = 4;

  Bitset none() const { return Bitset(kN); }

  static CandidateScheduler make(const Relations& rel, Heuristic h,
                                 BRule b = BRule::kLookahead) {
    return CandidateScheduler(rel, h, b);
  }

  /// Candidates at a node whose done set is `done`, with S from the oracle.
  static std::vector<std::uint32_t> next(
      CandidateScheduler& sched, const Relations& rel, const Bitset& done,
      ActionId last,
      const std::vector<std::pair<ActionId, ActionId>>& extra = {},
      Rng* rng = nullptr) {
    std::vector<ActionId> out;
    sched.successors(testing::oracle_eligible(rel, done), done, last, extra,
                     rng, out);
    return values(out);
  }
};

TEST_F(SchedulerTest, EligibleRespectsDependences) {
  Relations rel(kN);
  rel.add_dependence(ActionId(0), ActionId(1));  // 0 before 1
  rel.add_dependence(ActionId(1), ActionId(2));  // 1 before 2
  rel.close();
  auto sched = make(rel, Heuristic::kAll);

  // Nothing done: only 0 and 3 are eligible.
  Bitset done = none();
  EXPECT_EQ(next(sched, rel, done, ActionId()),
            (std::vector<std::uint32_t>{0, 3}));

  // After 0: 1 unlocks (2 still blocked transitively).
  done.set(0);
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST_F(SchedulerTest, EligibleTreatsExcludedPredecessorsAsSatisfied) {
  Relations rel(kN);
  rel.add_dependence(ActionId(0), ActionId(1));
  rel.close();
  Bitset excluded(kN);
  excluded.set(0);  // 0 is in the cutset
  auto sched = make(rel, Heuristic::kAll);

  Bitset done = excluded;  // the simulator seeds done with the cutset
  const auto succ = next(sched, rel, done, ActionId());
  // 1 is free (its predecessor is cut); 0 itself is never a candidate.
  EXPECT_EQ(succ, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, ExtraDependenciesBlockCandidates) {
  Relations rel(kN);
  rel.close();
  auto sched = make(rel, Heuristic::kAll);
  const std::vector<std::pair<ActionId, ActionId>> extra{
      {ActionId(2), ActionId(0)}};  // 2 must precede 0
  const auto succ = next(sched, rel, none(), ActionId(), extra);
  EXPECT_EQ(succ, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, AllIgnoresIndependence) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.close();
  auto sched = make(rel, Heuristic::kAll);
  Bitset done = none();
  done.set(0);
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, SafePrefersIndependentSuccessors) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.add_independence(ActionId(0), ActionId(3));
  rel.close();
  auto sched = make(rel, Heuristic::kSafe);
  Bitset done = none();
  done.set(0);
  // C = {1, 3}: only those are tried.
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST_F(SchedulerTest, SafeFallsBackToAllWhenNoIndependentSuccessor) {
  Relations rel(kN);
  rel.close();
  auto sched = make(rel, Heuristic::kSafe);
  Bitset done = none();
  done.set(0);
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, SafeAtRootTriesEverything) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.close();
  auto sched = make(rel, Heuristic::kSafe);
  // No last action ⇒ C is empty ⇒ all of S.
  EXPECT_EQ(next(sched, rel, none(), ActionId()),
            (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

TEST_F(SchedulerTest, StrictPicksExactlyOneFromC) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.add_independence(ActionId(0), ActionId(2));
  rel.close();
  auto sched = make(rel, Heuristic::kStrict);
  Bitset done = none();
  done.set(0);
  const auto succ = next(sched, rel, done, ActionId(0));
  ASSERT_EQ(succ.size(), 1u);
  // Deterministic pick (no RNG): the first member of C.
  EXPECT_EQ(succ[0], 1u);
}

TEST_F(SchedulerTest, StrictRandomPickStaysInsideC) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.add_independence(ActionId(0), ActionId(2));
  rel.close();
  auto sched = make(rel, Heuristic::kStrict);
  Bitset done = none();
  done.set(0);
  Rng rng(99);
  for (int i = 0; i < 20; ++i) {
    const auto succ = next(sched, rel, done, ActionId(0), {}, &rng);
    ASSERT_EQ(succ.size(), 1u);
    EXPECT_TRUE(succ[0] == 1u || succ[0] == 2u);
  }
}

TEST_F(SchedulerTest, StrictWithEmptyCExcludesActionsWithSafePredecessors) {
  // I: 1 I 2. After scheduling 0 (no I-successors), C = ∅.
  // B (lookahead) = {2} because 1 ∈ S and 1 I 2: prefer scheduling 1 or 3
  // now so that the safe edge 1→2 can still be used later.
  Relations rel(kN);
  rel.add_independence(ActionId(1), ActionId(2));
  rel.close();
  auto sched = make(rel, Heuristic::kStrict);
  Bitset done = none();
  done.set(0);
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST_F(SchedulerTest, StrictPaperLiteralBRuleRemovesNothing) {
  Relations rel(kN);
  rel.add_independence(ActionId(1), ActionId(2));
  rel.close();
  auto sched = make(rel, Heuristic::kStrict, BRule::kPaperLiteral);
  Bitset done = none();
  done.set(0);
  // Literal reading: B quantifies over the (empty) C, so S is untouched.
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, StrictNeverPrunesSToEmpty) {
  // Every eligible action has an I-predecessor in S: the B rule would erase
  // all of S; the scheduler must fall back to S instead of dead-ending.
  Relations rel(kN);
  rel.add_independence(ActionId(1), ActionId(2));
  rel.add_independence(ActionId(2), ActionId(3));
  rel.add_independence(ActionId(3), ActionId(1));
  Bitset excluded(kN);
  excluded.set(0);
  rel.close();
  auto sched = make(rel, Heuristic::kStrict);
  Bitset done = excluded;
  const auto succ = next(sched, rel, done, ActionId());
  EXPECT_EQ(succ, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST_F(SchedulerTest, EquivalencePruningDropsCommutingInversions) {
  Relations rel(kN);
  // 0 and 2 fully commute; 1 only one-directionally safe with 2.
  rel.add_independence(ActionId(0), ActionId(2));
  rel.add_independence(ActionId(2), ActionId(0));
  rel.add_independence(ActionId(1), ActionId(2));
  rel.close();
  CandidateScheduler sched(rel, Heuristic::kAll, BRule::kLookahead,
                           /*prune_equivalent=*/true);
  Bitset done = none();
  done.set(2);
  // After scheduling 2: candidate 0 < 2 fully commutes → pruned; 1 < 2 but
  // commutes only one way → kept; 3 > 2 → kept.
  EXPECT_EQ(next(sched, rel, done, ActionId(2)),
            (std::vector<std::uint32_t>{1, 3}));
}

TEST_F(SchedulerTest, EquivalencePruningDisabledByDefault) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(2));
  rel.add_independence(ActionId(2), ActionId(0));
  rel.close();
  CandidateScheduler sched(rel, Heuristic::kAll, BRule::kLookahead);
  Bitset done = none();
  done.set(2);
  EXPECT_EQ(next(sched, rel, done, ActionId(2)),
            (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST_F(SchedulerTest, EquivalencePruningSuppressedUnderExtraDependencies) {
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(2));
  rel.add_independence(ActionId(2), ActionId(0));
  rel.close();
  CandidateScheduler sched(rel, Heuristic::kAll, BRule::kLookahead,
                           /*prune_equivalent=*/true);
  Bitset done = none();
  done.set(2);
  const std::vector<std::pair<ActionId, ActionId>> extra{
      {ActionId(2), ActionId(3)}};  // any active extra dep disables pruning
  EXPECT_EQ(next(sched, rel, done, ActionId(2), extra),
            (std::vector<std::uint32_t>{0, 1, 3}));
}

TEST_F(SchedulerTest, ScratchSetsDoNotCarryOverBetweenCalls) {
  // One scheduler serves every node of a search: a Strict pick from C, a
  // B-pruned S and an extra-dependency filter must each start clean.
  Relations rel(kN);
  rel.add_independence(ActionId(0), ActionId(1));
  rel.add_independence(ActionId(1), ActionId(2));
  rel.close();
  auto sched = make(rel, Heuristic::kStrict);
  Bitset done = none();
  done.set(0);
  EXPECT_EQ(next(sched, rel, done, ActionId(0)),
            (std::vector<std::uint32_t>{1}));  // C = {1}
  const std::vector<std::pair<ActionId, ActionId>> extra{
      {ActionId(3), ActionId(1)}};  // 3 must precede 1
  EXPECT_EQ(next(sched, rel, done, ActionId(3), extra),
            (std::vector<std::uint32_t>{2, 3}));  // C = ∅, B = ∅
  EXPECT_EQ(next(sched, rel, done, ActionId(3)),
            (std::vector<std::uint32_t>{1, 3}));  // B = {2}
  std::vector<ActionId> out{ActionId(3), ActionId(2), ActionId(1)};
  sched.successors(testing::oracle_eligible(rel, done), done, ActionId(0),
                   {}, nullptr, out);
  EXPECT_EQ(values(out), (std::vector<std::uint32_t>{1}));  // replaced
}

TEST_F(SchedulerTest, DoneActionsAreNeverCandidates) {
  Relations rel(kN);
  rel.close();
  auto sched = make(rel, Heuristic::kAll);
  Bitset done = none();
  done.set(1);
  done.set(2);
  EXPECT_EQ(next(sched, rel, done, ActionId(2)),
            (std::vector<std::uint32_t>{0, 3}));
}

}  // namespace
}  // namespace icecube
