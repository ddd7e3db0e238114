#include "obs/runtime_metrics.hpp"

namespace ftcc::obs {

ExecutorMetrics ExecutorMetrics::create(Registry& reg,
                                        const std::string& prefix) {
  ExecutorMetrics m;
  m.activations = &reg.counter(prefix + ".activations");
  m.publishes = &reg.counter(prefix + ".publishes");
  m.crashes = &reg.counter(prefix + ".crashes");
  m.recoveries = &reg.counter(prefix + ".recoveries");
  m.corruptions = &reg.counter(prefix + ".corruptions");
  m.terminations = &reg.counter(prefix + ".terminations");
  m.termination_step = &reg.histogram(prefix + ".termination_step");
  return m;
}

ThreadedMetrics ThreadedMetrics::create(Registry& reg,
                                        const std::string& prefix) {
  ThreadedMetrics m;
  m.activations = &reg.counter(prefix + ".activations");
  m.publishes = &reg.counter(prefix + ".publishes");
  m.read_retries = &reg.counter(prefix + ".read_retries");
  m.read_timeouts = &reg.counter(prefix + ".read_timeouts");
  m.stalls = &reg.counter(prefix + ".stalls");
  m.corruptions = &reg.counter(prefix + ".corruptions");
  m.terminations = &reg.counter(prefix + ".terminations");
  m.rounds_to_finish = &reg.histogram(prefix + ".rounds_to_finish");
  return m;
}

BatchMetrics BatchMetrics::create(Registry& reg, const std::string& prefix) {
  BatchMetrics m;
  m.activations = &reg.counter(prefix + ".activations");
  m.sweeps = &reg.counter(prefix + ".sweeps");
  m.crashes = &reg.counter(prefix + ".crashes");
  m.terminations = &reg.counter(prefix + ".terminations");
  m.frontier_size = &reg.histogram(prefix + ".frontier_size");
  return m;
}

PoolMetrics PoolMetrics::create(Registry& reg, const std::string& prefix) {
  PoolMetrics m;
  m.tasks = &reg.counter(prefix + ".tasks");
  m.steals = &reg.counter(prefix + ".steals");
  m.queue_depth = &reg.gauge(prefix + ".queue_depth");
  m.tasks_per_worker = &reg.histogram(prefix + ".tasks_per_worker");
  return m;
}

TrialMetrics TrialMetrics::create(Registry& reg, const std::string& prefix) {
  TrialMetrics m;
  m.trials = &reg.counter(prefix + ".trials");
  m.failures = &reg.counter(prefix + ".trials.failures");
  m.trial_us = &reg.histogram(prefix + ".trial_us");
  m.trials_per_sec = &reg.gauge(prefix + ".trials_per_sec");
  m.pool = PoolMetrics::create(reg, prefix + ".pool");
  return m;
}

McMetrics McMetrics::create(Registry& reg, const std::string& prefix) {
  McMetrics m;
  m.states = &reg.counter(prefix + ".states");
  m.transitions = &reg.counter(prefix + ".transitions");
  m.store_entries = &reg.counter(prefix + ".store_entries");
  m.store_bytes = &reg.gauge(prefix + ".store_bytes");
  m.bytes_per_state = &reg.gauge(prefix + ".bytes_per_state");
  m.quotient_hits = &reg.counter(prefix + ".quotient_hits");
  m.commute_skips = &reg.counter(prefix + ".commute_skips");
  return m;
}

}  // namespace ftcc::obs
