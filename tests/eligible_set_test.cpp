// The simulator keeps S of §3.3 incrementally (a pending-predecessor count
// per action, updated as actions are scheduled, skipped, excluded and
// unwound). These tests recompute S from scratch at every search node of
// seeded searches — through the policy hooks, which see both the node's
// done set and the engine's S — and require the two to be equal, on every
// path that drives a simulator: the sequential DFS backend under proper
// cutsets, skip and abort failure modes, extra dependencies and equivalence
// pruning, IncrementalReconciler's resumable step(), and the parallel
// driver.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/incremental.hpp"
#include "core/reconciler.hpp"
#include "eligible_oracle.hpp"
#include "jigsaw/experiment.hpp"
#include "solver/graph.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

std::string members(const Bitset& bits) {
  std::ostringstream os;
  os << '{';
  bits.for_each([&os](std::size_t i) { os << ' ' << i; });
  os << " }";
  return os.str();
}

struct Problem {
  std::string name;
  Universe initial;
  std::vector<Log> logs;
  std::optional<ObjectId> board;  ///< jigsaw games rank by JigsawPolicy
};

/// Policy decorator comparing the engine's S with the oracle's at every
/// node (order_candidates runs once per node and after every skip) and at
/// every failure, then delegating to `inner`. The relations a simulator
/// searches with are the full ones restricted to its cutset, and the cutset
/// is what `done` holds beyond the prefix and the skipped actions. Safe to
/// share across the parallel driver's workers.
class EligibleChecker final : public Policy {
 public:
  /// The unrestricted relations of the problem, derived the way the
  /// reconcilers derive them.
  EligibleChecker(const Problem& problem, Policy* inner)
      : inner_(inner),
        full_(Relations::from_graph(build_solver_graph(
            problem.initial, flatten(problem.logs)))) {}

  struct Tally {
    std::uint64_t nodes = 0;
    std::uint64_t under_cutset = 0;  ///< checked with a non-empty cutset
    std::uint64_t after_skip = 0;    ///< checked with skipped actions
    std::uint64_t mismatches = 0;
    std::string first_mismatch;
  };
  [[nodiscard]] Tally tally() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return tally_;
  }

  void select_cutsets(std::vector<Cutset>& cutsets) override {
    if (inner_ != nullptr) inner_->select_cutsets(cutsets);
  }
  void order_candidates(const PrefixView& prefix,
                        std::vector<ActionId>& candidates) override {
    check(prefix);
    if (inner_ != nullptr) inner_->order_candidates(prefix, candidates);
  }
  bool keep_prefix(const PrefixView& prefix, const Universe& state) override {
    return inner_ == nullptr || inner_->keep_prefix(prefix, state);
  }
  void extra_dependencies(
      const PrefixView& prefix,
      std::vector<std::pair<ActionId, ActionId>>& out) override {
    if (inner_ != nullptr) inner_->extra_dependencies(prefix, out);
  }
  void on_failure(const PrefixView& prefix, const Universe& state,
                  ActionId failed, FailureKind kind) override {
    check(prefix);
    if (inner_ != nullptr) inner_->on_failure(prefix, state, failed, kind);
  }
  bool on_outcome(const Outcome& outcome) override {
    return inner_ == nullptr || inner_->on_outcome(outcome);
  }
  double cost(const Outcome& outcome) override {
    return inner_ != nullptr ? inner_->cost(outcome) : Policy::cost(outcome);
  }

 private:
  void check(const PrefixView& view) {
    Bitset excluded = view.done;
    for (ActionId a : view.actions) excluded.reset(a.index());
    for (ActionId a : view.skipped) excluded.reset(a.index());
    const std::lock_guard<std::mutex> lock(mu_);
    const Relations* relations = &full_;
    if (excluded.any()) {
      auto [it, inserted] = restricted_.try_emplace(excluded.to_vector());
      if (inserted) it->second = full_.restricted(excluded);
      relations = &it->second;
      ++tally_.under_cutset;
    }
    if (!view.skipped.empty()) ++tally_.after_skip;
    ++tally_.nodes;
    const Bitset want = testing::oracle_eligible(*relations, view.done);
    if (want != view.eligible && tally_.mismatches++ == 0) {
      tally_.first_mismatch = "after " + std::to_string(view.actions.size()) +
                              " scheduled: oracle " + members(want) +
                              ", incremental " + members(view.eligible);
    }
  }

  Policy* inner_;
  Relations full_;
  mutable std::mutex mu_;
  std::map<std::vector<std::size_t>, Relations> restricted_;
  Tally tally_;
};

/// Prefix-conditional extra dependencies that really block candidates: at
/// every node, one action derived from the prefix length must wait for
/// another.
class ExtraDependencyPolicy final : public Policy {
 public:
  explicit ExtraDependencyPolicy(std::size_t n) : n_(n) {}
  void extra_dependencies(
      const PrefixView& prefix,
      std::vector<std::pair<ActionId, ActionId>>& out) override {
    const std::size_t l = prefix.actions.size();
    out.emplace_back(ActionId(static_cast<std::uint32_t>((l * 7 + 3) % n_)),
                     ActionId(static_cast<std::uint32_t>((l * 13 + 5) % n_)));
  }

 private:
  std::size_t n_;
};


Problem jigsaw_game(std::string name, jigsaw::Board::OrderCase order_case,
                    std::vector<jigsaw::PlayerSpec> players) {
  jigsaw::Problem game =
      jigsaw::make_problem(4, 4, order_case, std::move(players));
  return {std::move(name), std::move(game.initial), std::move(game.logs),
          game.board_id};
}

/// The §4.3 Case 1 and Case 2 games and a seeded U1-vs-U3 game per Case 2-4.
std::vector<Problem> jigsaw_games() {
  using jigsaw::Board;
  using K = jigsaw::PlayerSpec::Kind;
  std::vector<Problem> out;
  out.push_back(jigsaw_game("case1", Board::OrderCase::kSemantic,
                            {{K::kU1, 8}, {K::kU2, 12}}));
  out.push_back(jigsaw_game("case2", Board::OrderCase::kKeepLogOrder,
                            {{K::kU1, 7}, {K::kU2, 12}}));
  for (int c = 2; c <= 4; ++c) {
    out.push_back(jigsaw_game("u3-case" + std::to_string(c),
                              static_cast<Board::OrderCase>(c),
                              {{K::kU1, 7}, {K::kU3, 12, 40u + c}}));
  }
  return out;
}

/// The 100-action Fages token/claim problem of the solver comparison.
Problem fages_n100() {
  workload::FagesSpec spec;
  spec.replicas = 4;
  spec.tasks_per_replica = 25;
  spec.seed = 107;
  workload::Generated fages = workload::fages_workload(spec);
  return {"fages/n100", std::move(fages.initial), std::move(fages.logs),
          std::nullopt};
}

ReconcilerOptions search_options(std::uint64_t max_schedules) {
  ReconcilerOptions options;
  options.backend = SolverKind::kDfs;
  options.heuristic = Heuristic::kAll;
  options.failure_mode = FailureMode::kSkipAction;
  options.limits.max_schedules = max_schedules;
  return options;
}

/// Runs `problem` through the Reconciler with the checker attached (over
/// `inner`, or the game's JigsawPolicy) and returns the tally.
EligibleChecker::Tally check_reconcile(const Problem& problem,
                                       const ReconcilerOptions& options,
                                       Policy* inner = nullptr) {
  std::optional<jigsaw::JigsawPolicy> jigsaw_policy;
  if (inner == nullptr && problem.board) {
    inner = &jigsaw_policy.emplace(*problem.board);
  }
  EligibleChecker checker(problem, inner);
  Reconciler reconciler(problem.initial, problem.logs, options, &checker);
  (void)reconciler.run();
  return checker.tally();
}

void expect_clean(const EligibleChecker::Tally& tally,
                  const std::string& label) {
  EXPECT_GT(tally.nodes, 0u) << label;
  EXPECT_EQ(tally.mismatches, 0u) << label << ": " << tally.first_mismatch;
}

TEST(EligibleSet, MatchesOracleOnJigsawGames) {
  std::uint64_t under_cutset = 0, after_skip = 0;
  for (const Problem& game : jigsaw_games()) {
    const auto tally = check_reconcile(game, search_options(4000));
    expect_clean(tally, game.name);
    under_cutset += tally.under_cutset;
    after_skip += tally.after_skip;
  }
  // Case 1's cycles give it proper cutsets; the skip mode drops actions.
  EXPECT_GT(under_cutset, 0u);
  EXPECT_GT(after_skip, 0u);
}

TEST(EligibleSet, MatchesOracleOnFagesN100) {
  const auto tally = check_reconcile(fages_n100(), search_options(1000));
  expect_clean(tally, "fages/n100");
  EXPECT_GT(tally.after_skip, 0u);
}

TEST(EligibleSet, MatchesOracleUnderEveryHeuristicAndFailureMode) {
  const Problem game = jigsaw_games().front();  // Case 1: 8 proper cutsets
  const Problem fages = fages_n100();
  for (const Problem* problem : {&game, &fages}) {
    for (FailureMode mode :
         {FailureMode::kSkipAction, FailureMode::kAbortBranch}) {
      for (Heuristic h :
           {Heuristic::kAll, Heuristic::kSafe, Heuristic::kStrict}) {
        ReconcilerOptions options = search_options(200);
        options.failure_mode = mode;
        options.heuristic = h;
        options.strict_pick_seed = 11;
        const auto tally = check_reconcile(*problem, options);
        expect_clean(tally, problem->name + " " +
                                std::string(to_string(mode)) + " " +
                                std::string(to_string(h)));
      }
    }
  }
}

TEST(EligibleSet, MatchesOracleUnderExtraDependencies) {
  for (const Problem& problem : {jigsaw_games().front(), fages_n100()}) {
    ExtraDependencyPolicy extra(flatten(problem.logs).size());
    expect_clean(check_reconcile(problem, search_options(300), &extra),
                 problem.name);
  }
}

TEST(EligibleSet, MatchesOracleUnderEquivalencePruning) {
  for (const Problem& problem : {jigsaw_games().front(), fages_n100()}) {
    ReconcilerOptions options = search_options(300);
    options.prune_equivalent = true;
    expect_clean(check_reconcile(problem, options), problem.name);
  }
}

TEST(EligibleSet, MatchesOracleAcrossIncrementalSteps) {
  // Small step budgets park and resume every cutset's search many times,
  // and each new cutset swaps the relations under a fresh simulator.
  const Problem game = jigsaw_games().front();
  jigsaw::JigsawPolicy jigsaw_policy(*game.board);
  EligibleChecker checker(game, &jigsaw_policy);
  IncrementalReconciler inc(game.initial, game.logs, search_options(1500),
                            &checker);
  std::size_t steps = 0;
  while (!inc.step(7).finished) ++steps;
  EXPECT_GT(steps, 8u);
  const auto tally = checker.tally();
  expect_clean(tally, game.name);
  EXPECT_GT(tally.under_cutset, 0u);
}

class EligibleSetParallel : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EligibleSetParallel, MatchesOracleInEveryWorker) {
  ReconcilerOptions options = search_options(1500);
  options.threads = GetParam();
  const Problem game = jigsaw_games().front();
  const auto tally = check_reconcile(game, options);
  expect_clean(tally, game.name);
  EXPECT_GT(tally.under_cutset, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Threads, EligibleSetParallel, ::testing::Values<std::size_t>(1, 2, 8),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return "threads_" + std::to_string(info.param);
    });

}  // namespace
}  // namespace icecube
