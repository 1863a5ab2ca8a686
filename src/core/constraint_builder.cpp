#include "core/constraint_builder.hpp"

#include <algorithm>

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

}  // namespace icecube
