// Conflict explanation (§3.5).
//
// The paper insists failures be analysable: "If a precondition or execution
// failure occurs, the application is provided with the prefix and state
// causing the failure. The application may analyse the state and derive
// additional information about the causes of the failure."
//
// This module turns an outcome into a human-readable account of every
// action that did NOT make it into the schedule:
//   - cutset exclusions name the static conflict partners (the mutually
//     unsafe pairs of the stored constraint graph);
//   - dropped actions name the dynamic failure kind and the schedule
//     position where they gave up (collected by attaching the reporter as
//     the reconciliation policy, or wrapping an existing one).
#pragma once

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/outcome.hpp"
#include "core/policy.hpp"
#include "core/reconciler.hpp"

namespace icecube {

/// Policy decorator that records dynamic-failure details while delegating
/// every hook to an inner policy (or to neutral defaults).
class ConflictReporter : public Policy {
 public:
  /// `inner` may be null; it must outlive the reporter.
  explicit ConflictReporter(Policy* inner = nullptr) : inner_(inner) {}

  struct FailureNote {
    FailureKind kind;
    std::size_t prefix_length;  ///< executed actions when it failed
    std::size_t occurrences;    ///< times this action failed anywhere
  };

  [[nodiscard]] const std::map<ActionId, FailureNote>& failures() const {
    return failures_;
  }

  // Delegating hooks.
  void select_cutsets(std::vector<Cutset>& cutsets) override {
    if (inner_ != nullptr) inner_->select_cutsets(cutsets);
  }
  void order_candidates(const PrefixView& prefix,
                        std::vector<ActionId>& candidates) override {
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
  bool on_outcome(const Outcome& outcome) override {
    return inner_ == nullptr || inner_->on_outcome(outcome);
  }
  double cost(const Outcome& outcome) override {
    return inner_ != nullptr ? inner_->cost(outcome)
                             : Policy::cost(outcome);
  }

  void on_failure(const PrefixView& prefix, const Universe& state,
                  ActionId failed, FailureKind kind) override {
    auto [it, inserted] = failures_.try_emplace(
        failed, FailureNote{kind, prefix.actions.size(), 0});
    ++it->second.occurrences;
    // Keep the earliest (shortest-prefix) failure as the representative.
    if (!inserted && prefix.actions.size() < it->second.prefix_length) {
      it->second.prefix_length = prefix.actions.size();
      it->second.kind = kind;
    }
    if (inner_ != nullptr) inner_->on_failure(prefix, state, failed, kind);
  }

 private:
  Policy* inner_;
  std::map<ActionId, FailureNote> failures_;
};

/// Renders an explanation of `outcome`'s exclusions. `reconciler` supplies
/// provenance and the constraint graph; `reporter` (optional) supplies
/// dynamic-failure notes for dropped actions.
[[nodiscard]] std::string explain_conflicts(
    const Reconciler& reconciler, const Outcome& outcome,
    const ConflictReporter* reporter = nullptr);

}  // namespace icecube
