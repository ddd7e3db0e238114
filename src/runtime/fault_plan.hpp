// Fault plans: what the adversary does to an execution, applied by the
// executor at activation boundaries.
//
// The paper's adversary can only crash a node (CrashPlan).  In the state
// model a crash is indistinguishable from never being scheduled again, so
// a crash plan simply removes a node from all future activation sets —
// either from a fixed time step on, or after a fixed number of
// activations.  The stronger adversaries studied by the follow-up line of
// work (Balliu et al. 2024) and by the self-stabilizing family corrupt
// *state*:
//
//   crash-recovery — a node stops being scheduled at a step, misses a fixed
//     number of steps, and then resumes with its private algorithm state
//     wiped back to init(); its register meanwhile holds either ⊥ (as if it
//     had never written), an all-zero-words value (wiped memory), or a
//     *stale snapshot* — the value it had published one activation before
//     the crash, replayed verbatim;
//
//   transient register corruption — at a scheduled step, a bit of the
//     node's published register flips, or a whole word is overwritten with
//     an arbitrary value.  The owner's next publish heals the register;
//     until then its neighbours read garbage.
//
// A FaultPlan composes any number of crash-stop entries (exactly
// CrashPlan's semantics), at most one crash-recovery entry per node, and a
// step-ordered list of corruption events.  Registers touched by a fault
// are marked *tainted* until their owner republishes, so that invariant
// monitors can distinguish "the adversary wrote this" from "the algorithm
// emitted this".
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace ftcc {

class CrashPlan {
 public:
  CrashPlan() = default;
  explicit CrashPlan(NodeId n)
      : at_step_(n, std::nullopt), after_activations_(n, std::nullopt) {}

  /// Node v takes no step at time >= t.
  CrashPlan& crash_at_step(NodeId v, std::uint64_t t) {
    grow(v);
    at_step_[v] = t;
    return *this;
  }

  /// Node v performs exactly k activations, then crashes (k may be 0:
  /// the node never wakes up).
  CrashPlan& crash_after_activations(NodeId v, std::uint64_t k) {
    grow(v);
    after_activations_[v] = k;
    return *this;
  }

  [[nodiscard]] bool crashes_at(NodeId v, std::uint64_t t,
                                std::uint64_t activations_so_far) const {
    if (v >= at_step_.size()) return false;
    if (at_step_[v] && t >= *at_step_[v]) return true;
    if (after_activations_[v] && activations_so_far >= *after_activations_[v])
      return true;
    return false;
  }

  [[nodiscard]] bool empty() const noexcept { return at_step_.empty(); }

 private:
  void grow(NodeId v) {
    if (v >= at_step_.size()) {
      at_step_.resize(v + 1);
      after_activations_.resize(v + 1);
    }
  }
  std::vector<std::optional<std::uint64_t>> at_step_;
  std::vector<std::optional<std::uint64_t>> after_activations_;
};

/// What a crash-recovering node finds in its own register when it revives.
enum class RecoveredRegister : std::uint8_t {
  bottom,  ///< ⊥ — as if the node had never published
  zero,    ///< all register words zeroed (wiped memory)
  stale,   ///< the value published one activation before the crash, replayed
};

[[nodiscard]] constexpr const char* recovered_register_name(
    RecoveredRegister r) noexcept {
  switch (r) {
    case RecoveredRegister::bottom: return "bottom";
    case RecoveredRegister::zero: return "zero";
    case RecoveredRegister::stale: return "stale";
  }
  return "?";
}

[[nodiscard]] inline std::optional<RecoveredRegister> parse_recovered_register(
    const std::string& name) {
  if (name == "bottom") return RecoveredRegister::bottom;
  if (name == "zero") return RecoveredRegister::zero;
  if (name == "stale") return RecoveredRegister::stale;
  return std::nullopt;
}

/// Crash at `at_step`, miss `down_steps` steps, revive with wiped state.
struct RecoveryFault {
  std::uint64_t at_step = 0;
  std::uint64_t down_steps = 1;
  RecoveredRegister reg = RecoveredRegister::bottom;

  [[nodiscard]] std::uint64_t revive_step() const noexcept {
    return at_step + down_steps;
  }
  friend bool operator==(const RecoveryFault&, const RecoveryFault&) = default;
};

/// A single corruption of one node's published register at one time step.
struct CorruptionFault {
  enum class Kind : std::uint8_t {
    bit_flip,   ///< flip bit `value % 64` of word `word`
    overwrite,  ///< replace word `word` with `value`
  };
  std::uint64_t at_step = 0;
  Kind kind = Kind::bit_flip;
  std::uint64_t word = 0;  ///< taken modulo the register's word count
  std::uint64_t value = 0;

  friend bool operator==(const CorruptionFault&,
                         const CorruptionFault&) = default;
};

[[nodiscard]] constexpr const char* corruption_kind_name(
    CorruptionFault::Kind k) noexcept {
  return k == CorruptionFault::Kind::bit_flip ? "flip" : "overwrite";
}

[[nodiscard]] inline std::optional<CorruptionFault::Kind>
parse_corruption_kind(const std::string& name) {
  if (name == "flip") return CorruptionFault::Kind::bit_flip;
  if (name == "overwrite") return CorruptionFault::Kind::overwrite;
  return std::nullopt;
}

class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(NodeId n) : crashes_(n) { grow(n == 0 ? 0 : n - 1); }
  /// Every CrashPlan is a FaultPlan (crash-stop only) — existing call
  /// sites keep compiling unchanged.
  FaultPlan(CrashPlan crashes)  // NOLINT(google-explicit-constructor)
      : crashes_(std::move(crashes)) {}

  // --- crash-stop (CrashPlan pass-through) ---------------------------
  FaultPlan& crash_at_step(NodeId v, std::uint64_t t) {
    crashes_.crash_at_step(v, t);
    return *this;
  }
  FaultPlan& crash_after_activations(NodeId v, std::uint64_t k) {
    crashes_.crash_after_activations(v, k);
    return *this;
  }
  [[nodiscard]] bool crashes_at(NodeId v, std::uint64_t t,
                                std::uint64_t activations_so_far) const {
    return crashes_.crashes_at(v, t, activations_so_far);
  }

  // --- crash-recovery (at most one entry per node) -------------------
  FaultPlan& recover(NodeId v, RecoveryFault fault) {
    grow(v);
    recoveries_[v] = fault;
    return *this;
  }
  [[nodiscard]] const std::optional<RecoveryFault>& recovery(NodeId v) const {
    static const std::optional<RecoveryFault> none;
    return v < recoveries_.size() ? recoveries_[v] : none;
  }

  // --- transient register corruption ---------------------------------
  FaultPlan& corrupt(NodeId v, CorruptionFault fault) {
    grow(v);
    corruptions_[v].push_back(fault);
    // Stable: same-step events keep insertion order, so a plan rebuilt
    // from a serialized artifact applies them identically.
    std::stable_sort(corruptions_[v].begin(), corruptions_[v].end(),
                     [](const CorruptionFault& a, const CorruptionFault& b) {
                       return a.at_step < b.at_step;
                     });
    return *this;
  }
  [[nodiscard]] const std::vector<CorruptionFault>& corruptions(
      NodeId v) const {
    static const std::vector<CorruptionFault> none;
    return v < corruptions_.size() ? corruptions_[v] : none;
  }

  [[nodiscard]] std::size_t node_span() const noexcept {
    return recoveries_.size();
  }
  [[nodiscard]] bool has_recoveries() const noexcept {
    for (const auto& r : recoveries_)
      if (r) return true;
    return false;
  }
  [[nodiscard]] bool has_corruptions() const noexcept {
    for (const auto& c : corruptions_)
      if (!c.empty()) return true;
    return false;
  }
  /// True iff the plan can alter a register's *contents* (and therefore
  /// requires a word-codable register on the algorithm side).
  [[nodiscard]] bool mutates_registers() const noexcept {
    if (has_corruptions()) return true;
    for (const auto& r : recoveries_)
      if (r && r->reg != RecoveredRegister::bottom) return true;
    return false;
  }
  [[nodiscard]] bool empty() const noexcept {
    return crashes_.empty() && recoveries_.empty() && corruptions_.empty();
  }

 private:
  void grow(NodeId v) {
    if (v >= recoveries_.size()) {
      recoveries_.resize(v + 1);
      corruptions_.resize(v + 1);
    }
  }

  CrashPlan crashes_;
  std::vector<std::optional<RecoveryFault>> recoveries_;
  std::vector<std::vector<CorruptionFault>> corruptions_;
};

}  // namespace ftcc
