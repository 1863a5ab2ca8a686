#include "solver/components.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <queue>

#include "solver/local_search.hpp"

namespace icecube {

std::vector<std::vector<ActionId>> conflict_components(
    const std::vector<ActionRecord>& records, const SolverGraph& graph) {
  const std::size_t n = graph.n;
  std::vector<std::uint32_t> label(n, UINT32_MAX);
  std::uint32_t next_label = 0;
  std::vector<ActionId> stack;
  for (std::size_t s = 0; s < n; ++s) {
    if (label[s] != UINT32_MAX) continue;
    const std::uint32_t comp = next_label++;
    label[s] = comp;
    stack.push_back(ActionId(s));
    while (!stack.empty()) {
      const ActionId v = stack.back();
      stack.pop_back();
      for (ActionId w : graph.overlap_lists[v.index()]) {
        if (label[w.index()] == UINT32_MAX) {
          label[w.index()] = comp;
          stack.push_back(w);
        }
      }
    }
  }

  std::vector<std::vector<ActionId>> components(next_label);
  for (std::size_t i = 0; i < n; ++i) {
    components[label[i]].push_back(ActionId(i));
  }
  const auto by_priority = [&records](ActionId a, ActionId b) {
    return stream_priority(records[a.index()]) <
           stream_priority(records[b.index()]);
  };
  for (auto& members : components) {
    std::sort(members.begin(), members.end(), by_priority);
  }
  std::sort(components.begin(), components.end(),
            [&records](const std::vector<ActionId>& a,
                       const std::vector<ActionId>& b) {
              return stream_priority(records[a.front().index()]) <
                     stream_priority(records[b.front().index()]);
            });
  return components;
}

namespace {

/// The one extraction body. `local_index` has a slot per caller id; only
/// the members' slots are touched — each written before any read, since
/// every adjacency entry of a member is itself a member — and each is
/// reset to kNoLocalId before returning.
SubProblem extract_with(const std::vector<ActionRecord>& records,
                        const SolverGraph& graph,
                        const std::vector<ActionId>& members,
                        std::uint32_t* local_index) {
  const auto by_priority = [&records](ActionId a, ActionId b) {
    return stream_priority(records[a.index()]) <
           stream_priority(records[b.index()]);
  };
  SubProblem sub;
  sub.global_ids = members;
  if (!std::is_sorted(sub.global_ids.begin(), sub.global_ids.end(),
                      by_priority)) {
    std::sort(sub.global_ids.begin(), sub.global_ids.end(), by_priority);
  }
  const std::size_t m = sub.global_ids.size();
  assert(m > 0);
  sub.min_priority = stream_priority(records[sub.global_ids[0].index()]);

  for (std::size_t i = 0; i < m; ++i) {
    local_index[sub.global_ids[i].index()] = static_cast<std::uint32_t>(i);
  }
  const auto remap = [&](const std::vector<ActionId>& from,
                         std::vector<ActionId>& to) {
    to.reserve(from.size());
    for (ActionId g : from) {
      const std::uint32_t local = local_index[g.index()];
      assert(local < m && sub.global_ids[local] == g &&
             "adjacency leaves the component");
      to.push_back(ActionId(local));
    }
    // The engine binary-searches these lists. Local ids follow priority,
    // which batch flatten ids already do, so only arrival-order ids (the
    // streaming daemon's) can leave a list out of order.
    if (!std::is_sorted(to.begin(), to.end())) std::sort(to.begin(), to.end());
  };

  sub.records.reserve(m);
  sub.graph.n = m;
  sub.graph.preds.resize(m);
  sub.graph.succs.resize(m);
  sub.graph.overlap_lists.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    const std::size_t g = sub.global_ids[i].index();
    sub.records.push_back(records[g]);
    remap(graph.preds[g], sub.graph.preds[i]);
    remap(graph.succs[g], sub.graph.succs[i]);
    remap(graph.overlap_lists[g], sub.graph.overlap_lists[i]);
  }
  for (ActionId g : sub.global_ids) local_index[g.index()] = kNoLocalId;
  return sub;
}

}  // namespace

SubProblem extract_subproblem(const std::vector<ActionRecord>& records,
                              const SolverGraph& graph,
                              const std::vector<ActionId>& members,
                              std::vector<std::uint32_t>& local_index) {
  if (local_index.size() < records.size()) {
    local_index.resize(records.size(), kNoLocalId);
  }
  assert(std::all_of(members.begin(), members.end(),
                     [&local_index](ActionId g) {
                       return local_index[g.index()] == kNoLocalId;
                     }) &&
         "index slot held by another extraction");
  return extract_with(records, graph, members, local_index.data());
}

SubProblem extract_subproblem(const std::vector<ActionRecord>& records,
                              const SolverGraph& graph,
                              const std::vector<ActionId>& members) {
  // Slots are written before they are read, so a fresh index needs no
  // O(n) fill — only its allocation.
  const auto local_index =
      std::make_unique_for_overwrite<std::uint32_t[]>(records.size());
  return extract_with(records, graph, members, local_index.get());
}

GreedyOrder greedy_order(const SolverGraph& graph) {
  const std::size_t m = graph.n;
  GreedyOrder out;
  std::vector<std::size_t> indegree(m, 0);
  for (std::size_t b = 0; b < m; ++b) indegree[b] = graph.preds[b].size();
  std::priority_queue<std::uint32_t, std::vector<std::uint32_t>,
                      std::greater<>>
      ready;
  for (std::size_t i = 0; i < m; ++i) {
    if (indegree[i] == 0) ready.push(static_cast<std::uint32_t>(i));
  }
  out.sched.reserve(m);
  while (!ready.empty()) {
    const ActionId id(ready.top());
    ready.pop();
    out.sched.push_back(id);
    for (ActionId s : graph.succs[id.index()]) {
      if (--indegree[s.index()] == 0) ready.push(s.value());
    }
  }
  out.live_end = out.sched.size();
  if (out.live_end < m) {
    // Cycle members: frozen at the tail in local-id order, like the engine.
    std::vector<bool> placed(m, false);
    for (ActionId id : out.sched) placed[id.index()] = true;
    for (std::size_t i = 0; i < m; ++i) {
      if (!placed[i]) out.sched.push_back(ActionId(i));
    }
  }
  return out;
}

std::vector<RunStatus> replay_component(const SubProblem& sub,
                                        const std::vector<ActionId>& sched,
                                        const Bitset& dropped,
                                        const Universe& pristine,
                                        Universe& working) {
  // Rewind the component's slots; everything else is untouched. Slots are
  // independent, so first-seen order serves and no sort is needed.
  std::vector<ObjectId> touched;
  Bitset seen(pristine.size());
  for (const ActionRecord& rec : sub.records) {
    for (ObjectId t : rec.action->targets()) {
      if (!seen.test(t.index())) {
        seen.set(t.index());
        touched.push_back(t);
      }
    }
  }
  const auto rewind = [&] {
    for (ObjectId t : touched) working.share_slot_from(pristine, t);
  };
  rewind();

  const std::size_t m = sched.size();
  std::vector<RunStatus> status(m, RunStatus::kDropped);
  std::vector<std::size_t> executed;
  for (std::size_t k = 0; k < m; ++k) {
    const ActionId id = sched[k];
    if (dropped.test(id.index())) continue;
    const Action& action = *sub.records[id.index()].action;
    if (!action.precondition(working)) {
      status[k] = RunStatus::kFailed;
      continue;
    }
    if (action.execute(working)) {
      status[k] = RunStatus::kExecuted;
      executed.push_back(k);
      continue;
    }
    // A failing execute may have partially mutated the component's slots;
    // rebuild them by replaying the executed prefix (deterministic, cannot
    // fail).
    rewind();
    for (std::size_t e : executed) {
      const Action& ea = *sub.records[sched[e].index()].action;
      const bool ok = ea.precondition(working) && ea.execute(working);
      assert(ok && "deterministic prefix replay failed");
      (void)ok;
    }
    status[k] = RunStatus::kFailed;
  }
  return status;
}

void merge_solutions(const std::vector<const ComponentSolution*>& parts,
                     const std::vector<ActionRecord>& records,
                     std::vector<ActionId>& sequence,
                     std::vector<RunStatus>& status) {
  // (next element's priority, part index) min-heap; two passes — live
  // parts, then frozen tails — so the merged layout matches the single
  // engine's [live][frozen].
  using Head = std::pair<std::uint64_t, std::size_t>;
  const auto priority_at = [&](const ComponentSolution& part, std::size_t k) {
    return stream_priority(records[part.sequence[k].index()]);
  };
  std::vector<std::size_t> cursor(parts.size(), 0);
  for (int pass = 0; pass < 2; ++pass) {
    std::priority_queue<Head, std::vector<Head>, std::greater<>> heads;
    for (std::size_t p = 0; p < parts.size(); ++p) {
      const std::size_t end =
          pass == 0 ? parts[p]->live_end : parts[p]->sequence.size();
      cursor[p] = pass == 0 ? 0 : parts[p]->live_end;
      if (cursor[p] < end) {
        heads.emplace(priority_at(*parts[p], cursor[p]), p);
      }
    }
    while (!heads.empty()) {
      const std::size_t p = heads.top().second;
      heads.pop();
      const ComponentSolution& part = *parts[p];
      const std::size_t k = cursor[p]++;
      sequence.push_back(part.sequence[k]);
      status.push_back(part.status[k]);
      const std::size_t end = pass == 0 ? part.live_end : part.sequence.size();
      if (cursor[p] < end) {
        heads.emplace(priority_at(part, cursor[p]), p);
      }
    }
  }
}

ComponentSolution solve_component(const SubProblem& sub,
                                  const Universe& pristine, Universe& working,
                                  const ReconcilerOptions& options,
                                  bool allow_moves,
                                  std::uint64_t initial_digest,
                                  const Deadline& deadline,
                                  SearchStats& stats) {
  ComponentSolution solution;
  solution.min_priority = sub.min_priority;
  const std::size_t m = sub.records.size();

  std::vector<ActionId> local_sched;
  Bitset local_dropped(m);
  if (!allow_moves || m == 1) {
    GreedyOrder greedy = greedy_order(sub.graph);
    for (std::size_t k = greedy.live_end; k < m; ++k) {
      local_dropped.set(greedy.sched[k].index());
    }
    solution.live_end = greedy.live_end;
    local_sched = std::move(greedy.sched);
    ++stats.schedules_completed;
  } else {
    LocalSearchOptions ls = options.local_search;
    ls.seed += 0x9e3779b97f4a7c15ULL * sub.min_priority;
    LocalSearchEngine engine(sub.records, sub.graph, pristine, Bitset(m), ls,
                             &initial_digest);
    const std::uint64_t budget =
        std::min<std::uint64_t>(ls.max_moves, options.limits.max_schedules);
    const std::uint64_t steps_left =
        options.limits.max_steps > stats.sim_steps
            ? options.limits.max_steps - stats.sim_steps
            : 0;
    stats.hit_limit |= engine.run(budget, deadline, steps_left);
    stats.schedules_completed += engine.evaluations();
    stats.sim_steps += engine.sim_steps();
    stats.moves_proposed += engine.proposals();
    stats.moves_accepted += engine.accepted();
    stats.state_clones += engine.snapshots_taken();
    local_sched = engine.best_schedule();
    local_dropped = engine.best_dropped();
    solution.live_end = engine.live_end();
  }

  solution.status =
      replay_component(sub, local_sched, local_dropped, pristine, working);
  stats.sim_steps += m;
  solution.sequence.reserve(m);
  for (ActionId local : local_sched) {
    solution.sequence.push_back(sub.global_ids[local.index()]);
  }
  ++stats.components_resolved;
  return solution;
}

}  // namespace icecube
