// The model checker's transition alphabet.
//
// A chaos run consumes simnet events in seeded (time, seq) order; the model
// checker instead treats every enabled event as a *choice* and explores all
// of them. A `Choice` names one transition of the protocol state machine:
// a site taking its local step (perform + gossip + commitment tick), a
// specific in-flight message being delivered, dropped or duplicated, or a
// fault-class control action (crash/restart/cut/heal).
//
// Messages are addressed *structurally* — (from, to, index-among-in-flight
// on that directed link, in send order) — not by simnet's internal ids.
// Structural names are stable across forks and under removal of earlier
// independent choices, which is what lets delta-debugging shrink a trace
// and still have every surviving choice mean the same message.
//
// `independent()` is the commutation relation driving the sleep-set
// reduction (see explorer.cpp for the soundness argument). It is
// deliberately conservative: only the three "pure" kinds (step, withheld
// step, deliver) are ever independent, and then only when they mutate
// different sites. Budgeted fault choices share counters and control
// choices touch global reachability, so they stay dependent on everything.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace icecube::mc {

enum class ChoiceKind : std::uint8_t {
  /// Site `site` acts: performs its next workload action (if any remain),
  /// gossips to `peer`, and — with commitment on — ticks its engine and
  /// sends a commitment frame to `peer`.
  kStep = 0,
  /// Like kStep, but the commitment frame is withheld (vote withholding).
  kStepWithhold = 1,
  /// Deliver in-flight message #`index` on the directed link site→peer.
  kDeliver = 2,
  /// Drop that message instead (consumes one unit of the drop budget).
  kDrop = 3,
  /// Duplicate that message (consumes one unit of the duplicate budget).
  kDuplicate = 4,
  kCrash = 5,    ///< crash `site` (budgeted)
  kRestart = 6,  ///< restart `site` (always free: recovery must be fair)
  kCut = 7,      ///< cut the undirected link site—peer (budgeted)
  kHeal = 8,     ///< heal it (always free)
};

[[nodiscard]] constexpr std::string_view to_string(ChoiceKind kind) {
  switch (kind) {
    case ChoiceKind::kStep:
      return "step";
    case ChoiceKind::kStepWithhold:
      return "step-withhold";
    case ChoiceKind::kDeliver:
      return "deliver";
    case ChoiceKind::kDrop:
      return "drop";
    case ChoiceKind::kDuplicate:
      return "dup";
    case ChoiceKind::kCrash:
      return "crash";
    case ChoiceKind::kRestart:
      return "restart";
    case ChoiceKind::kCut:
      return "cut";
    case ChoiceKind::kHeal:
      return "heal";
  }
  return "?";
}

/// One transition; field meaning depends on `kind` (see ChoiceKind).
struct Choice {
  ChoiceKind kind = ChoiceKind::kStep;
  std::uint8_t site = 0;   ///< actor / sender / link endpoint a
  std::uint8_t peer = 0;   ///< gossip partner / destination / endpoint b
  std::uint8_t index = 0;  ///< structural message index (deliver/drop/dup)

  [[nodiscard]] bool operator==(const Choice&) const = default;

  /// Dense 32-bit key, for sleep sets and done sets.
  [[nodiscard]] std::uint32_t key() const {
    return (static_cast<std::uint32_t>(kind) << 24) |
           (static_cast<std::uint32_t>(site) << 16) |
           (static_cast<std::uint32_t>(peer) << 8) |
           static_cast<std::uint32_t>(index);
  }

  /// Human form, e.g. "deliver 0 2 1" (the same text as an mc spec's
  /// choice line).
  [[nodiscard]] std::string describe() const {
    std::string out(to_string(kind));
    out += " " + std::to_string(site) + " " + std::to_string(peer) + " " +
           std::to_string(index);
    return out;
  }
};

/// The site whose replica/engine state this choice mutates.
[[nodiscard]] constexpr std::uint8_t mutated_site(const Choice& c) {
  return c.kind == ChoiceKind::kDeliver ? c.peer : c.site;
}

/// The commutation relation. Two choices are independent iff from any
/// state where both are enabled, executing them in either order reaches
/// the same state and neither disables the other.
///
///   - kStep/kStepWithhold mutate only their actor and append only to the
///     directed link actor→peer (the gossip frame, and with commitment the
///     commit frame, both actor→peer).
///   - kDeliver mutates only its destination, consumes one message from
///     from→to, and may append a reply to to→from.
///
/// Two pure choices with *different mutated sites* therefore touch
/// disjoint replica state, and every link they append to is sourced at
/// their (distinct) mutated site — so their appends hit different directed
/// links and the per-link message orders agree in both interleavings. A
/// consume commutes with an append on the same link because removal is by
/// position among the *earlier* messages. Same-site pairs share replica
/// state (and, for two deliveries to one site, the receiver's merge order)
/// and are dependent — exactly the "deliveries to different sites commute,
/// same-site deliveries don't" rule. Everything else (budgeted faults,
/// control actions) conservatively commutes with nothing.
[[nodiscard]] constexpr bool independent(const Choice& a, const Choice& b) {
  constexpr auto pure = [](const Choice& c) {
    return c.kind == ChoiceKind::kStep ||
           c.kind == ChoiceKind::kStepWithhold ||
           c.kind == ChoiceKind::kDeliver;
  };
  if (!pure(a) || !pure(b)) return false;
  return mutated_site(a) != mutated_site(b);
}

}  // namespace icecube::mc
