// E23 — the parallel trial engine (DESIGN.md §10): campaign trials/sec
// and explorer states/sec at 1/2/4/8 workers, plus the single-thread
// executor hot-path win (construct-per-trial vs reset() on a warm arena).
// Every parallel arm re-checks the determinism contract: the jobs=k
// campaign report must be byte-identical to jobs=1 and the jobs=k
// explorer verdict equal to the sequential run's.  Scaling columns are
// only meaningful on multi-core hosts — on a 1-core container the pool
// adds scheduling overhead and speedup honestly reads ~1.0x or below;
// the reset() table is the measurable single-thread improvement there.
// Run with --json to get BENCH_parallel.json for tools/report --check.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/algo1_six_coloring.hpp"
#include "fuzz/campaign.hpp"
#include "graph/ids.hpp"
#include "modelcheck/explorer.hpp"
#include "obs/span.hpp"
#include "runtime/executor.hpp"
#include "runtime/worker_pool.hpp"
#include "sched/schedulers.hpp"
#include "util/table.hpp"

namespace {

using namespace ftcc;

double per_second(std::uint64_t count, std::uint64_t elapsed_us) {
  if (elapsed_us == 0) return 0.0;
  return static_cast<double>(count) * 1e6 / static_cast<double>(elapsed_us);
}

double speedup(std::uint64_t base_us, std::uint64_t arm_us) {
  if (arm_us == 0) return 0.0;
  return static_cast<double>(base_us) / static_cast<double>(arm_us);
}

IdAssignment mixed_ids(NodeId n) {
  IdAssignment ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = 10 + 7 * ((v * 2) % n) + v;
  return ids;
}

}  // namespace

int main(int argc, char** argv) {
  ftcc::bench::BenchOut out("parallel", argc, argv);
  // --jobs=N caps the worker counts measured (CI smoke runs --jobs=1 and
  // --jobs=2); anything else in argv is ignored, like every bench.
  unsigned max_jobs = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--jobs=", 0) == 0)
      max_jobs = static_cast<unsigned>(
          std::max(1L, std::strtol(arg.c_str() + 7, nullptr, 10)));
  }
  std::vector<unsigned> job_counts;
  for (unsigned j : {1u, 2u, 4u, 8u})
    if (j <= max_jobs) job_counts.push_back(j);

  // -- Campaign throughput -------------------------------------------------
  CampaignOptions options;
  options.seed = 0xe23;
  options.trials = 1500;
  options.n_min = 4;
  options.n_max = 16;
  options.jobs = 1;
  const CampaignReport baseline = run_campaign(options);
  Table campaign({"jobs", "trials", "elapsed us", "trials/sec", "speedup",
                  "report identical"});
  std::uint64_t campaign_base_us = 0;
  for (unsigned jobs : job_counts) {
    options.jobs = jobs;
    obs::Stopwatch watch;
    const CampaignReport report = run_campaign(options);
    const std::uint64_t us = watch.elapsed_us();
    if (jobs == 1) campaign_base_us = us;
    campaign.add_row({Table::cell(std::uint64_t{jobs}),
                      Table::cell(report.trials), Table::cell(us),
                      Table::cell(per_second(report.trials, us), 0),
                      Table::cell(speedup(campaign_base_us, us), 2),
                      report.text == baseline.text ? "yes" : "NO"});
  }
  out.table(campaign,
            "E23 — fuzz campaign throughput vs worker count "
            "(hardware workers: " +
                std::to_string(hardware_workers()) + ")");

  // -- Explorer throughput -------------------------------------------------
  ModelCheckOptions<SixColoring> mco;
  mco.mode = ActivationMode::sets;
  ModelChecker<SixColoring> checker(SixColoring{}, make_cycle(5),
                                    mixed_ids(5), mco);
  const ModelCheckResult seq = checker.run();
  Table explorer({"jobs", "configs", "transitions", "elapsed us",
                  "states/sec", "speedup", "verdict identical"});
  std::uint64_t explorer_base_us = 0;
  for (unsigned jobs : job_counts) {
    obs::Stopwatch watch;
    const ModelCheckResult r = checker.run_reduced(jobs);
    const std::uint64_t us = watch.elapsed_us();
    if (jobs == 1) explorer_base_us = us;
    const bool same = r.completed == seq.completed &&
                      r.wait_free == seq.wait_free &&
                      r.configs == seq.configs &&
                      r.transitions == seq.transitions &&
                      r.worst_case_steps == seq.worst_case_steps &&
                      r.colors_used == seq.colors_used;
    explorer.add_row({Table::cell(std::uint64_t{jobs}), Table::cell(r.configs),
                      Table::cell(r.transitions), Table::cell(us),
                      Table::cell(per_second(r.configs, us), 0),
                      Table::cell(speedup(explorer_base_us, us), 2),
                      same ? "yes" : "NO"});
  }
  out.table(explorer,
            "E23 — model-check exploration (algo1 on C_5, set semantics) "
            "vs worker count");

  // -- Executor hot path: construct-per-trial vs reset() -------------------
  // Single-threaded, min over alternating rounds (the bench_obs protocol):
  // this is the allocation-elimination win, visible on any host.
  const NodeId n = 64;
  const Graph g = make_cycle(n);
  const IdAssignment ids = random_ids(n, 7);
  const std::uint64_t runs = 512;
  std::uint64_t sink = 0;
  Executor<SixColoring> reused(SixColoring{}, g, ids);
  const auto fresh_arm = [&] {
    obs::Stopwatch watch;
    for (std::uint64_t r = 0; r < runs; ++r) {
      Executor<SixColoring> ex(SixColoring{}, g, ids);
      SynchronousScheduler sched;
      sink += ex.run(sched, std::uint64_t{1} << 22).steps;
    }
    return watch.elapsed_us();
  };
  const auto reset_arm = [&] {
    obs::Stopwatch watch;
    for (std::uint64_t r = 0; r < runs; ++r) {
      reused.reset(SixColoring{}, g, ids);
      SynchronousScheduler sched;
      sink += reused.run(sched, std::uint64_t{1} << 22).steps;
    }
    return watch.elapsed_us();
  };
  sink += fresh_arm() + reset_arm();  // warm both arms
  std::uint64_t fresh_us = ~std::uint64_t{0};
  std::uint64_t reset_us = ~std::uint64_t{0};
  for (int round = 0; round < 8; ++round) {
    if (round % 2 == 0) {
      fresh_us = std::min(fresh_us, fresh_arm());
      reset_us = std::min(reset_us, reset_arm());
    } else {
      reset_us = std::min(reset_us, reset_arm());
      fresh_us = std::min(fresh_us, fresh_arm());
    }
  }
  Table hot({"arm", "trials", "min elapsed us", "us/trial", "vs fresh"});
  const auto us_per_trial = [&](std::uint64_t us) {
    return static_cast<double>(us) / static_cast<double>(runs);
  };
  hot.add_row({"construct per trial", Table::cell(runs),
               Table::cell(fresh_us), Table::cell(us_per_trial(fresh_us), 2),
               Table::cell(1.0, 2)});
  hot.add_row({"reset() on warm arena", Table::cell(runs),
               Table::cell(reset_us), Table::cell(us_per_trial(reset_us), 2),
               Table::cell(speedup(fresh_us, reset_us), 2)});
  out.table(hot,
            "E23 — single-thread trial cost, n=64 (steps checksum " +
                std::to_string(sink % 997) + ")");

  return out.finish();
}
