#include "core/conflict_report.hpp"

#include <sstream>

namespace icecube {

namespace {

std::string action_label(const Reconciler& reconciler, ActionId id) {
  const ActionRecord& rec = reconciler.records()[id.index()];
  std::ostringstream os;
  os << "action " << id.value() << " (log " << rec.log.value() << " pos "
     << rec.position << ": " << rec.action->describe() << ")";
  return os.str();
}

}  // namespace

std::string explain_conflicts(const Reconciler& reconciler,
                              const Outcome& outcome,
                              const ConflictReporter* reporter) {
  std::ostringstream os;
  if (outcome.cutset.empty() && outcome.skipped.empty()) {
    os << "no conflicts: every action was scheduled\n";
    return os.str();
  }

  const SolverGraph& graph = reconciler.solver_graph();
  for (ActionId cut : outcome.cutset) {
    os << action_label(reconciler, cut)
       << " was excluded by a static conflict with:";
    bool any = false;
    for (ActionId other : graph.succs[cut.index()]) {
      if (other == cut) continue;
      // A mutual-unsafe pair with the cut action: D edges both ways.
      if (graph.has_edge(other, cut)) {
        os << "\n    " << action_label(reconciler, other)
           << " (mutually unsafe)";
        any = true;
      }
    }
    if (!any) os << "\n    other members of a dependence cycle";
    os << '\n';
  }

  for (ActionId dropped : outcome.skipped) {
    os << action_label(reconciler, dropped) << " was dropped";
    if (reporter != nullptr) {
      const auto it = reporter->failures().find(dropped);
      if (it != reporter->failures().end()) {
        os << ": its "
           << (it->second.kind == FailureKind::kPrecondition
                   ? "precondition"
                   : "execution")
           << " failed (first after " << it->second.prefix_length
           << " scheduled action(s), " << it->second.occurrences
           << " failure(s) overall)";
      }
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace icecube
