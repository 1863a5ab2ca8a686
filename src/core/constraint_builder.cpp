#include "core/constraint_builder.hpp"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <sstream>
#include <utility>

#include "util/thread_pool.hpp"

namespace icecube {

void common_targets_into(std::span<const ObjectId> ta,
                         std::span<const ObjectId> tb,
                         std::vector<ObjectId>& out) {
  out.clear();
  for (ObjectId x : ta) {
    if (std::find(tb.begin(), tb.end(), x) != tb.end() &&
        std::find(out.begin(), out.end(), x) == out.end()) {
      out.push_back(x);
    }
  }
}

Constraint evaluate_constraint(const Universe& universe, const ActionRecord& a,
                               const ActionRecord& b) {
  std::vector<ObjectId> shared;
  common_targets_into(a.action->targets(), b.action->targets(), shared);
  std::uint64_t order_calls = 0;
  return evaluate_constraint_over(universe, a, b, shared, order_calls);
}

Constraint evaluate_constraint_over(const Universe& universe,
                                    const ActionRecord& a,
                                    const ActionRecord& b,
                                    const std::vector<ObjectId>& shared,
                                    std::uint64_t& order_calls) {
  // Rules 2–3 of §2.3 (rule 1: empty `shared` ⇒ safe). `most_constraining`
  // is a commutative max, so one set serves both directions of a pair.
  if (shared.empty()) return Constraint::kSafe;
  if (a.before_in_log(b)) return Constraint::kSafe;
  const LogRelation rel =
      a.same_log(b) ? LogRelation::kSameLog : LogRelation::kAcrossLogs;
  Constraint result = Constraint::kSafe;
  for (ObjectId target : shared) {
    ++order_calls;
    result = most_constraining(
        result, universe.at(target).order(*a.action, *b.action, rel));
    if (result == Constraint::kUnsafe) break;  // cannot get worse
  }
  return result;
}

ConstraintMatrix build_constraints(const Universe& universe,
                                   const std::vector<ActionRecord>& records,
                                   const ConstraintBuildOptions& options) {
  const std::size_t n = records.size();
  ConstraintMatrix matrix(n);

  // Fetch every action's target list once: Action::targets() is a virtual
  // call returning a fresh vector, far too expensive per pair.
  std::vector<std::vector<ObjectId>> targets(n);
  std::size_t max_target = 0;
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = records[i].action->targets();
    for (ObjectId t : targets[i]) {
      max_target = std::max(max_target, t.index() + 1);
    }
  }

  // Inverted index: target → actions touching it, in ascending id order.
  std::vector<std::vector<std::uint32_t>> by_target(max_target);
  for (std::size_t i = 0; i < n; ++i) {
    for (ObjectId t : targets[i]) {
      by_target[t.index()].push_back(static_cast<std::uint32_t>(i));
    }
  }

  // Unordered pairs sharing at least one target. Every other pair is `safe`
  // in both directions (§2.3 rule 1) — exactly the matrix default.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  std::vector<std::uint32_t> nbrs;
  for (std::size_t a = 0; a < n; ++a) {
    nbrs.clear();
    for (ObjectId t : targets[a]) {
      for (std::uint32_t b : by_target[t.index()]) {
        if (b > a) nbrs.push_back(b);
      }
    }
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
    for (std::uint32_t b : nbrs) {
      pairs.emplace_back(static_cast<std::uint32_t>(a), b);
    }
  }

  // Evaluate each unordered pair once for both directions, sharded across
  // the pool in contiguous chunks. Chunks write disjoint matrix cells and
  // pair values are independent, so the result (and the stats totals) are
  // identical for any shard count.
  std::atomic<std::uint64_t> order_calls{0};
  const std::size_t lanes =
      options.pool != nullptr ? options.pool->size() + 1 : 1;
  const std::size_t chunk_size =
      std::max<std::size_t>(1, pairs.size() / (lanes * 8) + 1);
  const std::size_t chunks = (pairs.size() + chunk_size - 1) / chunk_size;

  parallel_for_each(
      options.pool, chunks,
      [&universe, &records, &targets, &pairs, &matrix, &order_calls,
       chunk_size](std::size_t c) {
        std::uint64_t local_order_calls = 0;
        std::vector<ObjectId> shared;  // scratch, reused across the chunk
        const std::size_t begin = c * chunk_size;
        const std::size_t end = std::min(begin + chunk_size, pairs.size());
        for (std::size_t p = begin; p < end; ++p) {
          const ActionId a(pairs[p].first);
          const ActionId b(pairs[p].second);
          common_targets_into(targets[a.index()], targets[b.index()], shared);
          matrix.set(a, b,
                     evaluate_constraint_over(universe, records[a.index()],
                                              records[b.index()], shared,
                                              local_order_calls));
          matrix.set(b, a,
                     evaluate_constraint_over(universe, records[b.index()],
                                              records[a.index()], shared,
                                              local_order_calls));
        }
        order_calls.fetch_add(local_order_calls, std::memory_order_relaxed);
      });

  if (options.stats != nullptr) {
    options.stats->pairs_evaluated = 2 * pairs.size();
    options.stats->target_set_builds = pairs.size();
    options.stats->order_calls = order_calls.load(std::memory_order_relaxed);
  }
  return matrix;
}

std::vector<Bitset> build_target_overlap(
    const std::vector<ActionRecord>& records) {
  const std::size_t n = records.size();
  std::vector<Bitset> overlap(n, Bitset(n));

  std::vector<std::vector<ObjectId>> targets(n);
  std::size_t max_target = 0;
  for (std::size_t i = 0; i < n; ++i) {
    targets[i] = records[i].action->targets();
    for (ObjectId t : targets[i]) {
      max_target = std::max(max_target, t.index() + 1);
    }
  }

  std::vector<std::vector<std::uint32_t>> by_target(max_target);
  for (std::size_t i = 0; i < n; ++i) {
    for (ObjectId t : targets[i]) {
      auto& group = by_target[t.index()];
      // An action listing a target twice must appear in the group once
      // (overlap is a relation between *distinct* actions).
      if (group.empty() || group.back() != i) {
        group.push_back(static_cast<std::uint32_t>(i));
      }
    }
  }

  for (const auto& group : by_target) {
    for (std::size_t x = 0; x < group.size(); ++x) {
      for (std::size_t y = x + 1; y < group.size(); ++y) {
        if (group[x] == group[y]) continue;
        overlap[group[x]].set(group[y]);
        overlap[group[y]].set(group[x]);
      }
    }
  }
  return overlap;
}

std::string render_matrix(const ConstraintMatrix& matrix,
                          const std::vector<std::string>& labels) {
  std::size_t width = 6;  // at least "unsafe"
  for (const auto& l : labels) width = std::max(width, l.size());
  width += 2;

  std::ostringstream os;
  os << std::left << std::setw(static_cast<int>(width)) << "a \\ b";
  for (const auto& l : labels) {
    os << std::setw(static_cast<int>(width)) << l;
  }
  os << '\n';
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    os << std::setw(static_cast<int>(width)) << labels[i];
    for (std::size_t j = 0; j < matrix.size(); ++j) {
      if (i == j) {
        os << std::setw(static_cast<int>(width)) << "-";
      } else {
        os << std::setw(static_cast<int>(width))
           << to_string(matrix.at(ActionId(i), ActionId(j)));
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace icecube
