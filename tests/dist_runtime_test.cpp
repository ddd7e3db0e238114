// End-to-end tests of the multi-process backend (src/dist/): forked node
// processes over a shared-memory seqlock register file, real OS fault
// injection, and the janitor's leak guarantees.  Every run's event log
// goes through the same HB certifier as the threaded backend's.
#include "dist/supervisor.hpp"

#include <gtest/gtest.h>

#include <csignal>
#include <filesystem>
#include <string>

#include <sys/wait.h>
#include <unistd.h>

#include "analysis/hb/certify.hpp"
#include "core/algo1_six_coloring.hpp"
#include "dist/dist_campaign.hpp"
#include "dist/janitor.hpp"
#include "dist/shm_region.hpp"
#include "graph/coloring.hpp"
#include "graph/ids.hpp"
#include "sched/schedulers.hpp"
#include "report_digest.hpp"

namespace ftcc::dist {
namespace {

PartialColoring colors_of(const ExecutionResult<std::uint64_t>& result) {
  PartialColoring colors(result.outputs.size());
  for (NodeId v = 0; v < result.outputs.size(); ++v)
    if (result.outputs[v]) colors[v] = *result.outputs[v];
  return colors;
}

bool has_event(const HbLog& log, NodeId v, HbEventKind kind) {
  for (const HbEvent& e : log.events(v))
    if (e.kind == kind) return true;
  return false;
}

TEST(DistRuntime, HealthyRunColorsProperlyAndCertifies) {
  const Graph graph = make_cycle(5);
  const IdAssignment ids = random_ids(5, 11);
  SixColoring algo;
  DistExecutor<SixColoring> ex(algo, graph, ids);
  HbLog log;
  ex.attach_hb_log(&log);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < 5; ++v)
    EXPECT_EQ(result.fates[v], NodeFate::terminated) << "node " << v;
  EXPECT_TRUE(is_proper_partial(graph, colors_of(result)));
  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(DistRuntime, TornKillLeavesAStallAndStillCertifies) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  FaultPlan plan(4);
  plan.crash_at_step(1, 1);
  DistOptions options;
  options.torn_crash.assign(4, 0);
  options.torn_crash[1] = 1;  // kill -9 mid-publish
  DistExecutor<SixColoring> ex(algo, graph, ids, plan, options);
  HbLog log;
  ex.attach_hb_log(&log);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  EXPECT_EQ(result.fates[1], NodeFate::crashed);
  for (NodeId v : {NodeId{0}, NodeId{2}, NodeId{3}})
    EXPECT_EQ(result.fates[v], NodeFate::terminated) << "node " << v;
  // The victim's cell was physically torn: the log must carry the stall,
  // and the certifier must accept the degraded reads it forces.
  EXPECT_TRUE(has_event(log, 1, HbEventKind::stall));
  EXPECT_TRUE(is_proper_partial(graph, colors_of(result)));
  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_FALSE(report.atomic);  // a stall has no atomic-model analogue
}

TEST(DistRuntime, TelemetrySurvivesTheTornKillAndLeaksNothing) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  FaultPlan plan(4);
  plan.crash_at_step(1, 1);
  DistOptions options;
  options.torn_crash.assign(4, 0);
  options.torn_crash[1] = 1;  // kill -9 mid-publish
  DistExecutor<SixColoring> ex(algo, graph, ids, plan, options);
  DistTelemetry telemetry;
  ex.attach_telemetry(&telemetry);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  EXPECT_EQ(result.fates[1], NodeFate::crashed);

  // The harvest happened post-mortem out of shared memory: every node —
  // the SIGKILLed one included — left counters and spans behind.
  ASSERT_TRUE(telemetry.enabled);
  EXPECT_GT(telemetry.epoch_ns, 0u);
  ASSERT_EQ(telemetry.slots.size(), 4u);
  for (NodeId v = 0; v < 4; ++v) {
    const obs::SlotSnapshot& slot = telemetry.slots[v];
    EXPECT_GT(slot.counters[obs::kSlotCtrFrames], 0u) << "node " << v;
    EXPECT_GT(slot.counters[obs::kSlotCtrPublishes], 0u) << "node " << v;
    EXPECT_FALSE(slot.spans.empty()) << "node " << v;
  }
  // The victim ACKed a publish frame right before dying: its slot must
  // show the publish it was killed over, and never a finish.
  EXPECT_EQ(telemetry.slots[1].counters[obs::kSlotCtrFinishes], 0u);
  bool victim_published = false;
  for (const obs::ShmSpanRecord& span : telemetry.slots[1].spans)
    victim_published |= span.kind == obs::kShmSpanPublish;
  EXPECT_TRUE(victim_published);
  // The supervisor's own fault marker is timestamped on the same clock.
  ASSERT_FALSE(telemetry.markers.empty());
  bool marked = false;
  for (const DistFaultMarker& m : telemetry.markers)
    marked |= m.node == 1 && m.label == "SIGKILL (torn)";
  EXPECT_TRUE(marked);

  // The telemetry segment is gone: the obs prefix must not leak either.
  for (const auto& entry : std::filesystem::directory_iterator("/dev/shm"))
    EXPECT_NE(entry.path().filename().string().rfind("ftcc-obs-", 0), 0u)
        << entry.path() << " leaked";
}

TEST(DistRuntime, CleanKillKeepsTheRegisterReadable) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  FaultPlan plan(4);
  plan.crash_at_step(2, 1);
  DistExecutor<SixColoring> ex(algo, graph, ids, plan);  // default: clean
  HbLog log;
  ex.attach_hb_log(&log);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  EXPECT_EQ(result.fates[2], NodeFate::crashed);
  for (NodeId v : {NodeId{0}, NodeId{1}, NodeId{3}})
    EXPECT_EQ(result.fates[v], NodeFate::terminated) << "node " << v;
  // An idle victim's register stays at its last even version: neighbours
  // keep reading it and never exhaust their retry budgets.
  EXPECT_FALSE(has_event(log, 2, HbEventKind::stall));
  for (NodeId v = 0; v < 4; ++v)
    EXPECT_FALSE(has_event(log, v, HbEventKind::read_timeout)) << "node " << v;
  EXPECT_TRUE(is_proper_partial(graph, colors_of(result)));
  EXPECT_TRUE(certify_log(algo, graph, ids, log).ok());
}

TEST(DistRuntime, PauseResumeCompletesEveryNode) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  FaultPlan plan(4);
  plan.recover(1, {/*at_step=*/1, /*down_steps=*/3, RecoveredRegister::stale});
  DistExecutor<SixColoring> ex(algo, graph, ids, plan);
  HbLog log;
  ex.attach_hb_log(&log);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  // SIGSTOP/SIGCONT freezes the process but not its register; once
  // resumed the node finishes like everyone else.
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(result.fates[v], NodeFate::terminated) << "node " << v;
  EXPECT_TRUE(is_proper_partial(graph, colors_of(result)));
  EXPECT_TRUE(certify_log(algo, graph, ids, log).ok());
}

TEST(DistRuntime, BottomRevivalEmitsReviveAndCertifies) {
  const Graph graph = make_cycle(4);
  const IdAssignment ids = sorted_ids(4);
  SixColoring algo;
  FaultPlan plan(4);
  plan.recover(1, {/*at_step=*/1, /*down_steps=*/2, RecoveredRegister::bottom});
  DistExecutor<SixColoring> ex(algo, graph, ids, plan);
  HbLog log;
  ex.attach_hb_log(&log);
  SynchronousScheduler sched;
  const auto result = ex.run(sched, 1000);
  ASSERT_TRUE(ex.error().empty()) << ex.error();
  ASSERT_TRUE(result.completed);
  for (NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(result.fates[v], NodeFate::terminated) << "node " << v;
  // The down window is a torn kill + re-fork: the log must show the
  // crash (stall) and the rebirth (revive), in that order, and the
  // revived incarnation's first publish heals the odd version.
  EXPECT_TRUE(has_event(log, 1, HbEventKind::stall));
  EXPECT_TRUE(has_event(log, 1, HbEventKind::revive));
  EXPECT_TRUE(is_proper_partial(graph, colors_of(result)));
  const CertifyReport report = certify_log(algo, graph, ids, log);
  EXPECT_TRUE(report.ok()) << report.summary();
}

TEST(DistRuntime, SequentialModeIsDeterministic) {
  const Graph graph = make_cycle(5);
  const IdAssignment ids = random_ids(5, 23);
  SixColoring algo;
  FaultPlan plan(5);
  plan.crash_at_step(3, 2);
  const auto one_run = [&](HbLog& log) {
    DistOptions options;
    options.torn_crash.assign(5, 1);
    DistExecutor<SixColoring> ex(algo, graph, ids, plan, options);
    ex.attach_hb_log(&log);
    SynchronousScheduler sched;
    return ex.run(sched, 1000);
  };
  HbLog first_log, second_log;
  const auto first = one_run(first_log);
  const auto second = one_run(second_log);
  // Activations are serialised, so two runs of the same configuration
  // produce identical decisions AND identical event logs — kill -9
  // included.  This is what makes dist campaign reports reproducible.
  EXPECT_EQ(first.fates, second.fates);
  EXPECT_EQ(first.activations, second.activations);
  ASSERT_EQ(colors_of(first), colors_of(second));
  EXPECT_EQ(first_log, second_log);
}

TEST(DistRuntime, SmallMixedCampaignCertifiesEveryTrial) {
  DistCampaignOptions options;
  options.seed = 5;
  options.trials = 6;
  options.n_min = 3;
  options.n_max = 5;
  options.inject = DistFaultMode::mixed;
  options.algos = {"six"};
  const DistCampaignReport report = run_dist_campaign(options);
  EXPECT_EQ(report.trials, 6u);
  EXPECT_EQ(report.certified, report.trials);
  EXPECT_EQ(report.violations, 0u);
  EXPECT_TRUE(report.failures.empty())
      << (report.failures.empty() ? "" : report.failures.front().verdict);
  // Same seed, same decisions: the digest pins the whole campaign.
  const DistCampaignReport again = run_dist_campaign(options);
  EXPECT_EQ(report.decisions_digest, again.decisions_digest);
  EXPECT_EQ(report.text, again.text);
  // Golden values, recorded before the campaign moved onto the shared
  // trial kernel: they pin the bytes across builds, not just reruns.
  EXPECT_EQ(report.decisions_digest, 0x526747e018d65416u);
  EXPECT_EQ(report_digest(report.text), 0xe6744e5294ca2ecdu);
}

TEST(DistJanitor, FatalSignalUnlinksShmAndReturnsConventionalStatus) {
  int pipe_fds[2];
  ASSERT_EQ(::pipe(pipe_fds), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: create a real segment (registers itself with the janitor,
    // installs the handler), hand the path to the parent, then die the
    // way a Ctrl-C'd supervisor does.  The handler must unlink the
    // segment with async-signal-safe calls only and _exit(128+sig).
    ::close(pipe_fds[0]);
    ShmRegion region(3, SixColoring::kRegisterWords);
    if (!region.ok()) ::_exit(99);
    const std::string path = region.fs_path() + "\n";
    (void)!::write(pipe_fds[1], path.data(), path.size());
    ::close(pipe_fds[1]);
    ::raise(SIGTERM);
    ::_exit(98);  // unreachable if the handler ran
  }
  ::close(pipe_fds[1]);
  std::string path;
  char c = 0;
  while (::read(pipe_fds[0], &c, 1) == 1 && c != '\n') path.push_back(c);
  ::close(pipe_fds[0]);
  int status = 0;
  ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 128 + SIGTERM);
  ASSERT_FALSE(path.empty());
  EXPECT_FALSE(std::filesystem::exists(path)) << path << " leaked";
  // Belt and braces: nothing with this child's pid survives in /dev/shm.
  const std::string prefix = "ftcc-dist-" + std::to_string(pid) + "-";
  for (const auto& entry : std::filesystem::directory_iterator("/dev/shm"))
    EXPECT_NE(entry.path().filename().string().rfind(prefix, 0), 0u)
        << entry.path() << " leaked";
}

TEST(DistJanitor, RegistriesTrackLiveResources) {
  const int paths_before = janitor_path_count();
  {
    ShmRegion region(3, SixColoring::kRegisterWords);
    ASSERT_TRUE(region.ok());
    EXPECT_EQ(janitor_path_count(), paths_before + 1);
  }
  // Normal destruction unregisters: the handler never reaps a segment
  // that a clean exit already released.
  EXPECT_EQ(janitor_path_count(), paths_before);
}

}  // namespace
}  // namespace ftcc::dist
