#include "core/scheduler.hpp"

#include <cassert>

namespace icecube {

CandidateScheduler::CandidateScheduler(const Relations& relations,
                                       Heuristic heuristic, BRule b_rule,
                                       bool prune_equivalent)
    : relations_(relations),
      heuristic_(heuristic),
      b_rule_(b_rule),
      prune_equivalent_(prune_equivalent),
      s_(relations.size()),
      c_(relations.size()),
      b_(relations.size()),
      chosen_(relations.size()) {}

void CandidateScheduler::successors(
    const Bitset& s, const Bitset& done, ActionId last,
    const std::vector<std::pair<ActionId, ActionId>>& extra_deps, Rng* rng,
    std::vector<ActionId>& out) {
  assert(s.size() == relations_.size() && done.size() == relations_.size());
  s_ = s;
  for (const auto& [a, b] : extra_deps) {
    if (!done.test(a.index()) && a != b) s_.reset(b.index());
  }

  // C: eligible actions that I-follow the last scheduled action.
  if (last.valid()) {
    c_ = relations_.independents_of(last);
    c_ &= s_;
  } else {
    c_.clear();
  }

  switch (heuristic_) {
    case Heuristic::kAll:
      chosen_ = s_;
      break;
    case Heuristic::kSafe:
      chosen_ = c_.any() ? c_ : s_;
      break;
    case Heuristic::kStrict: {
      if (c_.any()) {
        // "picks one action in C arbitrarily and tries only this action"
        const std::size_t pick =
            (rng != nullptr) ? rng->below(c_.count()) : 0;
        chosen_.clear();
        chosen_.set(c_.nth_set(pick));
      } else {
        // S − B, where B holds the eligible actions that still have an
        // available I-predecessor (BRule::kLookahead; see DESIGN.md §5.2 —
        // the literal reading quantifies over the empty C and removes
        // nothing).
        chosen_ = s_;
        if (b_rule_ == BRule::kLookahead) {
          b_.clear();
          s_.for_each([this](std::size_t b) {
            if (relations_.independent_predecessors_of(ActionId(b))
                    .intersects_except(s_, b)) {
              b_.set(b);
            }
          });
          // Never prune S to nothing: if every eligible action has an
          // available I-predecessor, fall back to S (otherwise the search
          // would dead-end while work remains, losing completeness for no
          // heuristic gain).
          if (b_ != s_) chosen_ -= b_;
        }
      }
      break;
    }
  }

  // Static-equivalence pruning: placing c right after `last` when the two
  // fully commute (safe in both directions) and c has the smaller id would
  // create an adjacent commuting inversion; the transposed schedule (c
  // first) reaches the same state and is explored elsewhere, so this
  // representative is redundant. Because the pair has no D edge, c was
  // already eligible before `last` was placed — unless a prefix-conditional
  // extra dependency blocked it, which is why the pruning is disabled when
  // any are active.
  if (prune_equivalent_ && last.valid() && extra_deps.empty()) {
    chosen_.for_each([&](std::size_t c) {
      if (ActionId(c) < last &&
          relations_.independent(last, ActionId(c)) &&
          relations_.independent(ActionId(c), last)) {
        chosen_.reset(c);
      }
    });
  }

  out.clear();
  chosen_.for_each([&out](std::size_t i) { out.push_back(ActionId(i)); });
}

}  // namespace icecube
