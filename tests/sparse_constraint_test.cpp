// The stored constraint graph vs the dense all-pairs oracle.
//
// `build_solver_graph` walks a target→actions inverted index and evaluates
// only the directions of pairs that share a target and that log order does
// not settle (everything else is safe by §2.3 rules 1 and 2), computing each
// unordered pair's shared-target set once. These tests check it against
// `build_constraints_dense` over the library workload generators and
// randomized scripted universes: every cell's verdict, the Relations and
// §6 overlap rows derived from it, and the work counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "core/constraint_builder.hpp"
#include "core/log.hpp"
#include "core/relations.hpp"
#include "core/universe.hpp"
#include "dense_constraints.hpp"
#include "solver/graph.hpp"
#include "test_helpers.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::ConstraintMatrix;
using testing::ScriptedObject;
using testing::build_constraints_dense;
using testing::make_log;

bool share_target(const ActionRecord& x, const ActionRecord& y) {
  std::vector<ObjectId> shared;
  common_targets_into(x.action->targets(), y.action->targets(), shared);
  return !shared.empty();
}

/// Every Relations row the DFS engine reads, bit for bit.
void expect_same_relations(const Relations& want, const Relations& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    const ActionId a(i);
    EXPECT_EQ(want.raw_successors(a), got.raw_successors(a)) << "raw D " << i;
    EXPECT_EQ(want.predecessors(a), got.predecessors(a)) << "closed D " << i;
    EXPECT_EQ(want.independents_of(a), got.independents_of(a)) << "I " << i;
    EXPECT_EQ(want.independent_predecessors_of(a),
              got.independent_predecessors_of(a))
        << "I-pred " << i;
  }
}

/// Builds the graph and the dense oracle and checks that they agree cell
/// for cell, that the Relations and overlap rows derived from the graph are
/// the oracle's, and the work-counter relations.
void check_equivalence(const Universe& universe,
                       const std::vector<Log>& logs) {
  const std::vector<ActionRecord> records = flatten(logs);
  const std::size_t n = records.size();

  ConstraintBuildStats dense_stats;
  const ConstraintMatrix dense =
      build_constraints_dense(universe, records, &dense_stats);
  ConstraintBuildStats graph_stats;
  const SolverGraph graph =
      build_solver_graph(universe, records, &graph_stats);

  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      EXPECT_EQ(testing::graph_verdict(graph, ActionId(i), ActionId(j)),
                dense.at(ActionId(i), ActionId(j)))
          << "cell (" << i << ", " << j << ")";
    }
  }
  expect_same_relations(testing::relations_from_matrix(dense),
                        Relations::from_graph(graph));
  EXPECT_EQ(overlap_bitsets(graph), testing::overlap_dense(records));

  // The oracle evaluates all n(n-1) ordered pairs and builds the shared set
  // for each; the graph evaluates only the directions of sharing pairs that
  // log order leaves open, and builds each pair's shared set once. An
  // action listing a target twice also pairs with itself.
  std::uint64_t open_directions = 0;
  std::uint64_t sharing_pairs = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const std::vector<ObjectId> targets = records[i].action->targets();
      const bool shares =
          i != j ? share_target(records[i], records[j])
                 : std::any_of(targets.begin(), targets.end(), [&](ObjectId t) {
                     return std::count(targets.begin(), targets.end(), t) > 1;
                   });
      if (!shares) continue;
      ++sharing_pairs;
      open_directions += records[i].before_in_log(records[j]) ? 0 : 1;
      open_directions += records[j].before_in_log(records[i]) ? 0 : 1;
    }
  }
  EXPECT_EQ(dense_stats.pairs_evaluated, n * (n - 1));
  EXPECT_EQ(dense_stats.target_set_builds, n * (n - 1));
  EXPECT_EQ(graph_stats.pairs_evaluated, open_directions);
  EXPECT_EQ(graph_stats.target_set_builds, sharing_pairs);
}

TEST(SparseConstraints, EmptyAndSingleton) {
  Universe u;
  (void)u.add(std::make_unique<ScriptedObject>());
  check_equivalence(u, {});

  std::vector<ActionPtr> one;
  one.push_back(std::make_shared<testing::NopAction>(
      "solo", std::vector<ObjectId>{ObjectId(0)}));
  std::vector<Log> logs;
  logs.push_back(make_log("a", std::move(one)));
  check_equivalence(u, logs);
}

TEST(SparseConstraints, DuplicateTargets) {
  // An action listing one target twice shares it with itself: the graph
  // keeps that self-pair (it evaluates both of its directions), but it must
  // leave no trace in the Relations or the §6 overlap rows.
  const ScriptedObject::OrderFn table = [](const Action& a, const Action& b,
                                           LogRelation) {
    if (a.tag().op == b.tag().op) return Constraint::kUnsafe;
    return a.tag().op < b.tag().op ? Constraint::kMaybe : Constraint::kSafe;
  };
  Universe u;
  const ObjectId x = u.add(std::make_unique<ScriptedObject>(table));
  const ObjectId y = u.add(std::make_unique<ScriptedObject>(table));
  std::vector<Log> logs;
  logs.push_back(make_log(
      "a", {std::make_shared<testing::NopAction>("p", std::vector{x, x}),
            std::make_shared<testing::NopAction>("q", std::vector{x, y})}));
  logs.push_back(make_log(
      "b", {std::make_shared<testing::NopAction>("r", std::vector{y, x, y}),
            std::make_shared<testing::NopAction>("p", std::vector{y})}));
  check_equivalence(u, logs);
}

TEST(SparseConstraints, CounterWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::counter_workload(
        {.replicas = 3, .actions_per_replica = 6, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, FileSystemWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::fs_workload(
        {.replicas = 3, .actions_per_replica = 6, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, CalendarWorkloads) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const auto g = workload::calendar_workload(
        {.users = 4, .actions_per_user = 4, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

TEST(SparseConstraints, TextWorkloads) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto g = workload::text_workload(
        {.replicas = 2, .actions_per_replica = 5, .seed = seed});
    check_equivalence(g.initial, g.logs);
  }
}

/// Randomized universes with many objects, scripted pseudo-random order
/// tables, and actions targeting random object subsets — so the matrix has
/// a real mix of disjoint, single-shared and multi-shared pairs.
TEST(SparseConstraints, RandomScriptedUniverses) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    std::mt19937_64 rng(seed);

    // Deterministic pseudo-random order table keyed on the two tags.
    const ScriptedObject::OrderFn table = [](const Action& a, const Action& b,
                                             LogRelation rel) {
      const std::uint64_t h = std::hash<std::string>{}(a.tag().op) * 3 +
                              std::hash<std::string>{}(b.tag().op) +
                              (rel == LogRelation::kSameLog ? 17 : 0);
      switch (h % 3) {
        case 0:
          return Constraint::kSafe;
        case 1:
          return Constraint::kMaybe;
        default:
          return Constraint::kUnsafe;
      }
    };

    Universe u;
    const std::size_t n_objects = 2 + rng() % 7;
    std::vector<ObjectId> objects;
    for (std::size_t i = 0; i < n_objects; ++i) {
      objects.push_back(u.add(std::make_unique<ScriptedObject>(table)));
    }

    std::vector<Log> logs;
    const std::size_t n_logs = 2 + rng() % 3;
    std::int64_t serial = 0;
    for (std::size_t l = 0; l < n_logs; ++l) {
      std::vector<ActionPtr> actions;
      const std::size_t n_actions = 2 + rng() % 8;
      for (std::size_t k = 0; k < n_actions; ++k) {
        std::vector<ObjectId> targets{objects[rng() % n_objects]};
        if (rng() % 3 == 0) {
          const ObjectId extra = objects[rng() % n_objects];
          if (extra.value() != targets[0].value()) targets.push_back(extra);
        }
        actions.push_back(std::make_shared<testing::NopAction>(
            "op" + std::to_string(++serial), std::move(targets)));
      }
      logs.push_back(make_log("log" + std::to_string(l), std::move(actions)));
    }
    SCOPED_TRACE("seed=" + std::to_string(seed));
    check_equivalence(u, logs);

    // With several objects some pairs are disjoint, so the graph build must
    // also evaluate strictly fewer ordered pairs, not just tie.
    const std::vector<ActionRecord> records = flatten(logs);
    const auto disjoint = [](const ActionRecord& x, const ActionRecord& y) {
      for (ObjectId tx : x.action->targets()) {
        for (ObjectId ty : y.action->targets()) {
          if (tx == ty) return false;
        }
      }
      return true;
    };
    bool any_disjoint = false;
    for (std::size_t i = 0; i < records.size() && !any_disjoint; ++i) {
      for (std::size_t j = 0; j < records.size(); ++j) {
        if (i != j && disjoint(records[i], records[j])) {
          any_disjoint = true;
          break;
        }
      }
    }
    if (any_disjoint) {
      ConstraintBuildStats dense_stats, graph_stats;
      (void)build_constraints_dense(u, records, &dense_stats);
      (void)build_solver_graph(u, records, &graph_stats);
      EXPECT_LT(graph_stats.pairs_evaluated, dense_stats.pairs_evaluated);
    }
  }
}

}  // namespace
}  // namespace icecube
