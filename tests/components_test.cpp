// Component extraction against its reference implementation.
//
// `extract_subproblem` maps caller ids to local ids through a caller-owned
// dense index. The oracle below instead looks every adjacency entry up by
// binary search over the component's sorted (caller id, local id) pairs
// and sorts every list unconditionally. Both must produce field-for-field
// identical sub-problems over batch flatten ids, arrival-order ids from the
// incremental graph, unsorted member lists, singletons and whole-problem
// components — and the shared index must come back empty after every
// extraction.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "arrivals.hpp"
#include "core/incremental.hpp"
#include "core/log.hpp"
#include "solver/components.hpp"
#include "solver/graph.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace icecube {
namespace {

using testing::Arrival;
using testing::make_arrivals;
using workload::FagesSpec;
using workload::Generated;

/// The binary-search extractor, kept as the reference.
SubProblem oracle_extract(const std::vector<ActionRecord>& records,
                          const SolverGraph& graph,
                          const std::vector<ActionId>& members) {
  SubProblem sub;
  sub.global_ids = members;
  std::sort(sub.global_ids.begin(), sub.global_ids.end(),
            [&records](ActionId a, ActionId b) {
              return stream_priority(records[a.index()]) <
                     stream_priority(records[b.index()]);
            });
  const std::size_t m = sub.global_ids.size();
  sub.min_priority = stream_priority(records[sub.global_ids[0].index()]);

  std::vector<std::pair<std::uint32_t, std::uint32_t>> to_local;
  to_local.reserve(m);
  for (std::size_t i = 0; i < m; ++i) {
    to_local.emplace_back(sub.global_ids[i].value(),
                          static_cast<std::uint32_t>(i));
  }
  std::sort(to_local.begin(), to_local.end());
  const auto local_of = [&to_local](ActionId global) {
    const auto it = std::lower_bound(
        to_local.begin(), to_local.end(),
        std::make_pair(global.value(), std::uint32_t{0}));
    EXPECT_TRUE(it != to_local.end() && it->first == global.value());
    return ActionId(it->second);
  };

  sub.records.reserve(m);
  sub.graph.n = m;
  sub.graph.preds.resize(m);
  sub.graph.succs.resize(m);
  sub.graph.overlap_lists.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = sub.global_ids[i].index();
    sub.records.push_back(records[g]);
    for (ActionId p : graph.preds[g]) {
      sub.graph.preds[i].push_back(local_of(p));
    }
    for (ActionId s : graph.succs[g]) {
      sub.graph.succs[i].push_back(local_of(s));
    }
    for (ActionId o : graph.overlap_lists[g]) {
      sub.graph.overlap_lists[i].push_back(local_of(o));
    }
    std::sort(sub.graph.preds[i].begin(), sub.graph.preds[i].end());
    std::sort(sub.graph.succs[i].begin(), sub.graph.succs[i].end());
    std::sort(sub.graph.overlap_lists[i].begin(),
              sub.graph.overlap_lists[i].end());
  }
  return sub;
}

void expect_same_subproblem(const SubProblem& want, const SubProblem& got) {
  ASSERT_EQ(want.records.size(), got.records.size());
  for (std::size_t i = 0; i < want.records.size(); ++i) {
    EXPECT_EQ(want.records[i].action, got.records[i].action) << "record " << i;
    EXPECT_EQ(want.records[i].log, got.records[i].log) << "record " << i;
    EXPECT_EQ(want.records[i].position, got.records[i].position)
        << "record " << i;
  }
  EXPECT_EQ(want.global_ids, got.global_ids);
  EXPECT_EQ(want.min_priority, got.min_priority);
  EXPECT_EQ(want.graph.n, got.graph.n);
  EXPECT_EQ(want.graph.preds, got.graph.preds);
  EXPECT_EQ(want.graph.succs, got.graph.succs);
  EXPECT_EQ(want.graph.overlap_lists, got.graph.overlap_lists);
}

bool all_free(const std::vector<std::uint32_t>& index) {
  return std::all_of(index.begin(), index.end(),
                     [](std::uint32_t v) { return v == kNoLocalId; });
}

/// Extracts `members` through `index` and through the one-off form,
/// checks both against the oracle, and checks that `index` came back
/// sized to the records and all-free.
void check_extraction(const std::vector<ActionRecord>& records,
                      const SolverGraph& graph,
                      const std::vector<ActionId>& members,
                      std::vector<std::uint32_t>& index) {
  const SubProblem want = oracle_extract(records, graph, members);
  expect_same_subproblem(
      want, extract_subproblem(records, graph, members, index));
  EXPECT_EQ(index.size(), records.size());
  EXPECT_TRUE(all_free(index));
  expect_same_subproblem(want, extract_subproblem(records, graph, members));
}

/// Every component in turn through one shared index.
void check_all_components(
    const std::vector<ActionRecord>& records, const SolverGraph& graph,
    const std::vector<std::vector<ActionId>>& components) {
  std::vector<std::uint32_t> index;
  for (const std::vector<ActionId>& members : components) {
    check_extraction(records, graph, members, index);
  }
}

std::vector<std::vector<ActionId>> reversed(
    std::vector<std::vector<ActionId>> components) {
  for (std::vector<ActionId>& members : components) {
    std::reverse(members.begin(), members.end());
  }
  return components;
}

Generated fages(std::uint64_t seed) {
  FagesSpec spec;
  spec.seed = seed;
  return workload::fages_workload(spec);
}

TEST(ExtractSubproblem, MatchesOracleOnBatchFlattenIds) {
  for (std::uint64_t seed : {3u, 17u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const Generated gen = fages(seed);
    const std::vector<ActionRecord> records = flatten(gen.logs);
    const SolverGraph graph = build_solver_graph(gen.initial, records);
    const auto components = conflict_components(records, graph);
    ASSERT_GT(components.size(), 1u);
    check_all_components(records, graph, components);
  }
}

TEST(ExtractSubproblem, MatchesOracleOnUnsortedMembers) {
  const Generated gen = fages(5);
  const std::vector<ActionRecord> records = flatten(gen.logs);
  const SolverGraph graph = build_solver_graph(gen.initial, records);
  auto components = conflict_components(records, graph);
  check_all_components(records, graph, reversed(components));

  // A seeded shuffle, not just a reversal.
  Rng rng(99);
  for (std::vector<ActionId>& members : components) {
    for (std::size_t i = members.size(); i > 1; --i) {
      std::swap(members[i - 1], members[rng.below(i)]);
    }
  }
  check_all_components(records, graph, components);
}

TEST(ExtractSubproblem, MatchesOracleOnIncrementalArrivalIds) {
  const Generated gen = fages(21);
  for (StreamArrival mode :
       {StreamArrival::kRoundRobin, StreamArrival::kShuffled}) {
    SCOPED_TRACE(std::string(to_string(mode)));
    IncrementalConstraintGraph incremental(gen.initial);
    std::vector<std::size_t> next(gen.logs.size(), 0);
    std::vector<std::uint32_t> index;
    const std::vector<Arrival> arrivals = make_arrivals(gen, mode, 17);
    for (const Arrival& a : arrivals) {
      incremental.add_action(a.action, a.log, next[a.log.index()]++);
      // Extract mid-stream too, so one index follows a growing record set.
      const std::size_t added = incremental.size();
      if (added % 25 != 0 && added != arrivals.size()) continue;
      for (ActionId root : incremental.take_dirty_roots()) {
        // Members come off the union-find chain, not in priority order.
        const std::vector<ActionId> members =
            incremental.component_members(root);
        check_extraction(incremental.records(), incremental.graph(), members,
                         index);
      }
    }
  }
}

TEST(ExtractSubproblem, MatchesOracleOnSingletonAndWholeProblem) {
  // Singleton: a one-action problem is one one-member component.
  {
    const Generated gen = workload::counter_workload(
        {.replicas = 1, .actions_per_replica = 1, .seed = 1});
    const std::vector<ActionRecord> records = flatten(gen.logs);
    const SolverGraph graph = build_solver_graph(gen.initial, records);
    const auto components = conflict_components(records, graph);
    ASSERT_EQ(components.size(), 1u);
    ASSERT_EQ(components[0].size(), 1u);
    check_all_components(records, graph, components);
  }
  // Whole problem: every counter action targets the one counter.
  {
    const Generated gen = workload::counter_workload(
        {.replicas = 3, .actions_per_replica = 12, .seed = 4});
    const std::vector<ActionRecord> records = flatten(gen.logs);
    const SolverGraph graph = build_solver_graph(gen.initial, records);
    const auto components = conflict_components(records, graph);
    ASSERT_EQ(components.size(), 1u);
    ASSERT_EQ(components[0].size(), records.size());
    check_all_components(records, graph, components);
    check_all_components(records, graph, reversed(components));
  }
}

}  // namespace
}  // namespace icecube
