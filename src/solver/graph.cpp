#include "solver/graph.hpp"

#include <algorithm>
#include <numeric>
#include <span>

namespace icecube {

namespace {

bool sorted_contains(const std::vector<ActionId>& list, ActionId id) {
  return std::binary_search(list.begin(), list.end(), id);
}

}  // namespace

bool SolverGraph::has_edge(ActionId a, ActionId b) const {
  return sorted_contains(succs[a.index()], b);
}

bool SolverGraph::overlaps(ActionId a, ActionId b) const {
  return sorted_contains(overlap_lists[a.index()], b);
}

std::size_t SolverGraph::edge_count() const {
  std::size_t total = 0;
  for (const auto& list : succs) total += list.size();
  return total;
}

void SolverGraph::add_pair(const Universe& universe,
                           const std::vector<ActionRecord>& records,
                           ActionId a, ActionId b,
                           const std::vector<ObjectId>& shared,
                           ConstraintBuildStats& stats) {
  overlap_lists[a.index()].push_back(b);
  overlap_lists[b.index()].push_back(a);
  // constraint(x, y): `unsafe` adds the raw D edge y → x, `maybe` is listed,
  // and a same-log pair is safe in its recorded direction without an
  // `order()` call (§2.3 rule 2), so only the log-reversing direction runs.
  const auto direction = [&](ActionId x, ActionId y) {
    const ActionRecord& rx = records[x.index()];
    const ActionRecord& ry = records[y.index()];
    if (rx.before_in_log(ry)) return;
    ++stats.pairs_evaluated;
    switch (evaluate_constraint_over(universe, rx, ry, shared,
                                     stats.order_calls)) {
      case Constraint::kUnsafe:
        succs[y.index()].push_back(x);
        preds[x.index()].push_back(y);
        break;
      case Constraint::kMaybe:
        maybe.emplace_back(x, y);
        break;
      case Constraint::kSafe:
        break;
    }
  };
  direction(a, b);
  direction(b, a);
  ++stats.target_set_builds;
}

SolverGraph build_solver_graph(const Universe& universe,
                               const std::vector<ActionRecord>& records,
                               ConstraintBuildStats* stats) {
  const std::size_t n = records.size();
  SolverGraph graph;
  graph.n = n;
  graph.preds.resize(n);
  graph.succs.resize(n);
  graph.overlap_lists.resize(n);
  if (n == 0) return graph;

  // Every action's targets, fetched once (Action::targets() is a virtual
  // call returning a fresh vector) into one flat array: action i's targets
  // are target_ids[target_begin[i] .. target_begin[i + 1]).
  std::vector<std::size_t> target_begin(n + 1, 0);
  std::vector<ObjectId> target_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<ObjectId> targets = records[i].action->targets();
    target_ids.insert(target_ids.end(), targets.begin(), targets.end());
    target_begin[i + 1] = target_ids.size();
  }
  const auto targets_of = [&](ActionId a) {
    return std::span<const ObjectId>(
        target_ids.data() + target_begin[a.index()],
        target_ids.data() + target_begin[a.index() + 1]);
  };

  // Target → actions inverted index, flat like the target lists: group t
  // is group_ids[group_begin[t] .. group_begin[t + 1]), ascending by id.
  // Count each group's size at its own slot, prefix-sum to group ends,
  // then fill every group backwards from its end, highest id first.
  std::vector<std::size_t> group_begin(universe.size() + 1, 0);
  for (ObjectId t : target_ids) ++group_begin[t.index()];
  std::partial_sum(group_begin.begin(), group_begin.end(),
                   group_begin.begin());
  std::vector<ActionId> group_ids(target_ids.size());
  for (std::size_t i = n; i-- > 0;) {
    for (ObjectId t : targets_of(ActionId(i))) {
      group_ids[--group_begin[t.index()]] = ActionId(i);
    }
  }

  // Each unordered pair sharing at least one target is visited once, from
  // its lower id, in ascending (lower, higher) order. So every list below
  // receives its entries in ascending id order — first the partners below
  // the action, then those above — and needs no sort afterwards.
  ConstraintBuildStats local;
  std::vector<ActionId> partners;  // scratch: one action's higher partners
  std::vector<ObjectId> shared;    // scratch: one pair's shared targets
  for (std::size_t i = 0; i < n; ++i) {
    const ActionId a(i);
    const std::span<const ObjectId> ta = targets_of(a);
    partners.clear();
    for (std::size_t k = 0; k < ta.size(); ++k) {
      const std::size_t t = ta[k].index();
      for (std::size_t g = group_begin[t]; g < group_begin[t + 1]; ++g) {
        if (group_ids[g] > a) partners.push_back(group_ids[g]);
      }
      // An action listing a target twice shares it with itself; that
      // self-pair is part of the overlap relation (the incremental graph
      // keeps it too).
      if (std::find(ta.begin(), ta.begin() + k, ta[k]) != ta.begin() + k) {
        partners.push_back(a);
      }
    }
    std::sort(partners.begin(), partners.end());
    partners.erase(std::unique(partners.begin(), partners.end()),
                   partners.end());
    for (const ActionId b : partners) {
      // One shared-target set serves both directions, built over the lower
      // id's targets.
      common_targets_into(ta, targets_of(b), shared);
      graph.add_pair(universe, records, a, b, shared, local);
    }
  }
  if (stats != nullptr) {
    stats->pairs_evaluated += local.pairs_evaluated;
    stats->target_set_builds += local.target_set_builds;
    stats->order_calls += local.order_calls;
  }
  return graph;
}

std::vector<Bitset> overlap_bitsets(const SolverGraph& graph) {
  std::vector<Bitset> rows(graph.n, Bitset(graph.n));
  for (std::size_t a = 0; a < graph.n; ++a) {
    for (ActionId b : graph.overlap_lists[a]) {
      if (b.index() != a) rows[a].set(b.index());
    }
  }
  return rows;
}

}  // namespace icecube
