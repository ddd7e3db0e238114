// Concrete schedulers (adversaries) for the state model.  Together they
// cover the execution regimes the paper's analysis distinguishes:
//
//   Synchronous      — all working nodes every step; the LOCAL-like regime
//                      in which Linial's lower bound already applies.
//   RandomSubset     — every working node independently with probability p;
//                      the generic asynchronous regime.
//   RandomSingle     — exactly one uniformly-random working node per step;
//                      the fully-sequential interleaving regime (the one in
//                      which shared-memory impossibilities bite hardest).
//   RoundRobin       — k working nodes per step in rotating order; fair
//                      but maximally skewed within a rotation.
//   Weighted         — per-node speeds; models "moderately slow" processes
//                      central to the blocking analysis of Section 4.
//   SoloRuns         — runs one node until it terminates, then the next;
//                      the obstruction-free regime.
//   Staggered        — node i sleeps i*delay steps, then runs every step;
//                      late wake-ups, exercising ⊥ registers.
//   Replay           — an explicit σ sequence, for unit tests, fuzz
//                      witnesses and model-checker counterexamples; its
//                      inverse, Recording, wraps any of the others.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "runtime/scheduler.hpp"
#include "util/rng.hpp"

namespace ftcc {

class SynchronousScheduler final : public Scheduler {
 public:
  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    return {working.begin(), working.end()};
  }
};

class RandomSubsetScheduler final : public Scheduler {
 public:
  RandomSubsetScheduler(double probability, std::uint64_t seed)
      : p_(probability), rng_(seed) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    std::vector<NodeId> sigma;
    for (NodeId v : working)
      if (rng_.chance(p_)) sigma.push_back(v);
    if (sigma.empty() && !working.empty())
      sigma.push_back(working[rng_.below(working.size())]);
    return sigma;
  }

 private:
  double p_;
  Xoshiro256 rng_;
};

class RandomSingleScheduler final : public Scheduler {
 public:
  explicit RandomSingleScheduler(std::uint64_t seed) : rng_(seed) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    if (working.empty()) return {};
    return {working[rng_.below(working.size())]};
  }

 private:
  Xoshiro256 rng_;
};

class RoundRobinScheduler final : public Scheduler {
 public:
  explicit RoundRobinScheduler(std::size_t per_step = 1)
      : per_step_(per_step) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    std::vector<NodeId> sigma;
    if (working.empty()) return sigma;
    for (std::size_t i = 0; i < per_step_; ++i)
      sigma.push_back(working[(cursor_ + i) % working.size()]);
    cursor_ = (cursor_ + per_step_) % working.size();
    return sigma;
  }

 private:
  std::size_t per_step_;
  std::size_t cursor_ = 0;
};

/// Per-node activation probability; unset nodes default to `default_speed`.
class WeightedScheduler final : public Scheduler {
 public:
  WeightedScheduler(std::vector<double> speeds, std::uint64_t seed,
                    double default_speed = 1.0)
      : speeds_(std::move(speeds)),
        default_speed_(default_speed),
        rng_(seed) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    std::vector<NodeId> sigma;
    for (NodeId v : working) {
      const double p = v < speeds_.size() ? speeds_[v] : default_speed_;
      if (rng_.chance(p)) sigma.push_back(v);
    }
    return sigma;
  }

 private:
  std::vector<double> speeds_;
  double default_speed_;
  Xoshiro256 rng_;
};

/// Runs the lowest-indexed working node alone until it terminates, then the
/// next: the obstruction-free (solo execution) regime.
class SoloRunsScheduler final : public Scheduler {
 public:
  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t /*t*/) override {
    if (working.empty()) return {};
    return {working.front()};
  }
};

/// Node i takes its first step at time i*delay+1 and every step thereafter:
/// staggered wake-ups exercising reads of ⊥ registers.
class StaggeredScheduler final : public Scheduler {
 public:
  explicit StaggeredScheduler(std::uint64_t delay = 1) : delay_(delay) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t t) override {
    std::vector<NodeId> sigma;
    for (NodeId v : working)
      if (t > static_cast<std::uint64_t>(v) * delay_) sigma.push_back(v);
    return sigma;
  }

 private:
  std::uint64_t delay_;
};

/// Plays back an explicit schedule; steps beyond the recorded prefix
/// activate all working nodes (so runs always finish).
class ReplayScheduler final : public Scheduler {
 public:
  explicit ReplayScheduler(std::vector<std::vector<NodeId>> sigmas)
      : sigmas_(std::move(sigmas)) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t t) override {
    // Indexed by the step number, not a cursor: the executor steps through
    // crash-recovery down windows without consulting the scheduler, and a
    // cursor would come back out of the window desynchronized.
    if (t >= 1 && t - 1 < sigmas_.size()) return sigmas_[t - 1];
    return {working.begin(), working.end()};
  }

 private:
  std::vector<std::vector<NodeId>> sigmas_;
};

/// Records the σ sequence an inner scheduler produces.  The executor is
/// a deterministic function of (algorithm, graph, ids, fault plan, σ), so
/// a ReplayScheduler over the recording reproduces the run exactly,
/// violation included (a fuzz witness, fuzz/schedule_io.hpp).
class RecordingScheduler final : public Scheduler {
 public:
  explicit RecordingScheduler(Scheduler& inner) : inner_(&inner) {}

  std::vector<NodeId> next(std::span<const NodeId> working,
                           std::uint64_t t) override {
    // Indexed by step, as ReplayScheduler reads it: a step the executor
    // idled through without asking (every working node down in a
    // crash-recovery window) stays an empty set.
    recorded_.resize(t - 1);
    recorded_.push_back(inner_->next(working, t));
    return recorded_.back();
  }

  /// The σ sequence of a run that took `steps` steps, one set per step,
  /// trailing idle steps included.
  [[nodiscard]] std::vector<std::vector<NodeId>> take(std::uint64_t steps) {
    recorded_.resize(steps);
    return std::move(recorded_);
  }

 private:
  Scheduler* inner_;
  std::vector<std::vector<NodeId>> recorded_;
};

/// Named scheduler factory for sweeps: "sync", "random", "single",
/// "roundrobin", "solo", "staggered", "halfspeed" (half the nodes slow).
[[nodiscard]] std::unique_ptr<Scheduler> make_scheduler(
    const std::string& name, NodeId n, std::uint64_t seed);

/// The names make_scheduler accepts (for parameterized tests/benches).
[[nodiscard]] const std::vector<std::string>& scheduler_names();

}  // namespace ftcc
