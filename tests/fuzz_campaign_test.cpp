// The fuzzing campaign runner: deterministic reports, a clean bill of
// health for the real algorithms, and the full failure pipeline (inject →
// record → shrink → save → load → replay) under a broken invariant.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/algo1_six_coloring.hpp"
#include "fuzz/campaign.hpp"
#include "report_digest.hpp"
#include "runtime/executor.hpp"

namespace ftcc {
namespace {

CampaignOptions small_options() {
  CampaignOptions options;
  options.seed = 0xfeedbeef;
  options.trials = 40;
  options.n_min = 4;
  options.n_max = 12;
  return options;
}

TEST(Campaign, SameSeedProducesByteIdenticalReports) {
  const CampaignOptions options = small_options();
  const CampaignReport first = run_campaign(options);
  const CampaignReport second = run_campaign(options);
  EXPECT_EQ(first.text, second.text);
  EXPECT_EQ(first.trials, second.trials);
  EXPECT_EQ(first.ok, second.ok);
  EXPECT_EQ(first.censored, second.censored);
  EXPECT_EQ(first.failures.size(), second.failures.size());
}

TEST(Campaign, ReportBytesArePinned) {
  // Golden FNV-1a digests of report.text, recorded before the campaigns
  // moved onto the shared trial kernel: plain, wrapped mixed faults, and
  // the injected-fault pipeline with its shrink lines.
  EXPECT_EQ(report_digest(run_campaign(small_options()).text),
            0x32aa5888dbeae85bu);
  CampaignOptions mixed = small_options();
  mixed.trials = 60;
  mixed.fault_mode = FaultMode::mixed;
  mixed.wrap = true;
  EXPECT_EQ(report_digest(run_campaign(mixed).text), 0x72c3ba84dd0048adu);
  CampaignOptions injected = small_options();
  injected.trials = 8;
  injected.inject = InjectedFault::no_termination;
  ASSERT_TRUE(injected.shrink);
  EXPECT_EQ(report_digest(run_campaign(injected).text), 0xa8a444dda8e7cfd5u);
}

TEST(Campaign, DifferentSeedsExploreDifferentSchedules) {
  CampaignOptions options = small_options();
  const CampaignReport first = run_campaign(options);
  options.seed = 0xdeadbeef;
  const CampaignReport second = run_campaign(options);
  EXPECT_NE(first.text, second.text);
}

TEST(Campaign, RealAlgorithmsSurviveTheFullPortfolio) {
  CampaignOptions options = small_options();
  options.trials = 120;
  const CampaignReport report = run_campaign(options);
  EXPECT_EQ(report.trials, 120u);
  for (const auto& failure : report.failures)
    ADD_FAILURE() << "trial " << failure.trial << ": " << failure.violation;
  // Livelock-prone (five/fast5 under simultaneity) runs are censored, not
  // failed; the bulk of trials must genuinely complete.
  EXPECT_GT(report.ok, report.trials / 2);
}

TEST(Campaign, SingleAlgorithmSelectionIsHonored) {
  CampaignOptions options = small_options();
  options.trials = 10;
  options.algos = {"six"};
  const CampaignReport report = run_campaign(options);
  EXPECT_NE(report.text.find("algos=six "), std::string::npos);
  EXPECT_EQ(report.text.find("algo=fast5"), std::string::npos);
  EXPECT_TRUE(report.failures.empty());
}

TEST(Campaign, FaultModeNoneLeavesTheTrialStreamUntouched) {
  // fault_mode=none must not consume any extra RNG draws: its report is
  // byte-identical to a plain campaign, so pre-fault seeds stay replayable.
  CampaignOptions plain = small_options();
  CampaignOptions none = small_options();
  none.fault_mode = FaultMode::none;
  const CampaignReport a = run_campaign(plain);
  const CampaignReport b = run_campaign(none);
  EXPECT_EQ(a.text, b.text);
  EXPECT_NE(a.text.find("faults=none wrap=0"), std::string::npos);
}

TEST(Campaign, WrappedFaultCampaignsAreDeterministicAndGreen) {
  // The acceptance property in miniature: wrapped algorithms keep every
  // invariant green under a mixed corruption/crash-recovery barrage, and
  // the whole campaign is reproducible byte for byte.
  CampaignOptions options = small_options();
  options.trials = 60;
  options.fault_mode = FaultMode::mixed;
  options.wrap = true;
  const CampaignReport first = run_campaign(options);
  const CampaignReport second = run_campaign(options);
  EXPECT_EQ(first.text, second.text);
  for (const auto& failure : first.failures)
    ADD_FAILURE() << "trial " << failure.trial << ": " << failure.violation;
  EXPECT_GT(first.ok, 0u);
  EXPECT_NE(first.text.find("faults=mixed wrap=1"), std::string::npos);
  EXPECT_NE(first.text.find("recoveries="), std::string::npos);
  EXPECT_NE(first.text.find("corruptions="), std::string::npos);
  EXPECT_NE(first.text.find("fates="), std::string::npos);
}

TEST(Campaign, EachFaultModeDrawsADifferentTrialStream) {
  CampaignOptions options = small_options();
  options.trials = 20;
  options.wrap = true;
  options.fault_mode = FaultMode::corrupt;
  const CampaignReport corrupt = run_campaign(options);
  options.fault_mode = FaultMode::recover;
  const CampaignReport recover = run_campaign(options);
  options.fault_mode = FaultMode::mixed;
  const CampaignReport mixed = run_campaign(options);
  EXPECT_NE(corrupt.text, recover.text);
  EXPECT_NE(recover.text, mixed.text);
  EXPECT_NE(corrupt.text, mixed.text);
}

TEST(Campaign, FaultedFailureArtifactsCarryTheirFaultsAndReplay) {
  // Force failures (injected invariant) in a fault-mode campaign: each
  // witness must record its surviving faults plus the wrapped flag, save
  // to disk, load back, and replay to the same violation.
  const auto dir =
      std::filesystem::temp_directory_path() / "ftcc_fuzz_campaign_faults";
  std::filesystem::remove_all(dir);

  CampaignOptions options = small_options();
  options.trials = 8;
  options.inject = InjectedFault::no_termination;
  options.fault_mode = FaultMode::mixed;
  options.wrap = false;  // raw: the injected invariant still fires
  options.artifact_dir = dir.string();
  const CampaignReport report = run_campaign(options);
  ASSERT_FALSE(report.failures.empty());

  for (const auto& failure : report.failures) {
    const auto& shrunk = failure.shrink.artifact;
    // Faults can't be load-bearing for a termination-based violation, so
    // the fault pass must have stripped every one the trial drew.
    EXPECT_TRUE(shrunk.recoveries.empty());
    EXPECT_TRUE(shrunk.corruptions.empty());
    EXPECT_FALSE(shrunk.wrapped);
    ASSERT_FALSE(failure.path.empty());
    std::string error;
    const auto loaded = load_schedule(failure.path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(*loaded, shrunk);
    EXPECT_FALSE(
        replay_violation(*loaded, InjectedFault::no_termination).empty());
  }
  std::filesystem::remove_all(dir);
}

TEST(Campaign, InjectedFaultDrivesTheWholeFailurePipeline) {
  const auto dir =
      std::filesystem::temp_directory_path() / "ftcc_fuzz_campaign";
  std::filesystem::remove_all(dir);

  CampaignOptions options = small_options();
  options.trials = 8;
  options.inject = InjectedFault::no_termination;
  options.artifact_dir = dir.string();
  const CampaignReport report = run_campaign(options);
  ASSERT_FALSE(report.failures.empty());

  for (const auto& failure : report.failures) {
    // Shrinking produced a genuinely smaller witness...
    const auto& shrunk = failure.shrink.artifact;
    std::uint64_t shrunk_acts = 0;
    for (const auto& sigma : shrunk.sigmas) shrunk_acts += sigma.size();
    EXPECT_LE(shrunk.sigmas.size(), failure.original_steps);
    EXPECT_LE(shrunk.n, failure.original_n);
    EXPECT_LE(shrunk_acts, 2u) << "minimal witness should be ~1 activation";
    // Crash entries can't be load-bearing for a termination-based fault,
    // so the crash pass must have dropped them all.
    EXPECT_TRUE(shrunk.crash_at_step.empty());
    EXPECT_TRUE(shrunk.crash_after_acts.empty());
    // ...that was saved to disk and still reproduces when loaded back.
    ASSERT_FALSE(failure.path.empty());
    std::string error;
    const auto loaded = load_schedule(failure.path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(*loaded, shrunk);
    EXPECT_FALSE(
        replay_violation(*loaded, InjectedFault::no_termination).empty());
    EXPECT_NE(loaded->violation.find("injected fault"), std::string::npos);
  }
  std::filesystem::remove_all(dir);
}

TEST(Campaign, PersistFailureArtifactsFillsPathsAfterTheFact) {
  // The --raw UX fix: a campaign run without an artifact dir leaves
  // failure paths empty; persist_witnesses saves them to a fallback dir
  // so the tool can always print a replayable path.
  const auto dir =
      std::filesystem::temp_directory_path() / "ftcc_fuzz_campaign_persist";
  std::filesystem::remove_all(dir);

  CampaignOptions options = small_options();
  options.trials = 8;
  options.inject = InjectedFault::no_termination;
  CampaignReport report = run_campaign(options);
  ASSERT_FALSE(report.failures.empty());
  for (const auto& failure : report.failures)
    EXPECT_TRUE(failure.path.empty());

  std::vector<std::string> lines;
  ASSERT_FALSE(persist_witnesses(report.failures, dir.string(), lines));
  ASSERT_EQ(lines.size(), report.failures.size());
  for (std::size_t i = 0; i < report.failures.size(); ++i) {
    const auto& failure = report.failures[i];
    ASSERT_FALSE(failure.path.empty());
    EXPECT_NE(lines[i].find(failure.path), std::string::npos);
    std::string error;
    const auto loaded = load_schedule(failure.path, &error);
    ASSERT_TRUE(loaded.has_value()) << error;
    EXPECT_EQ(*loaded, failure.shrink.artifact);
  }
  // Already-persisted failures are left alone on a second call.
  std::vector<std::string> again;
  ASSERT_FALSE(persist_witnesses(report.failures, dir.string(), again));
  EXPECT_TRUE(again.empty());
  std::filesystem::remove_all(dir);
}

TEST(Campaign, FallbackPersistUnderARegularFileReturnsAnError) {
  // A fallback directory that cannot be created (its parent is a regular
  // file) must come back as an error for the tool to exit 2 on, not as an
  // uncaught filesystem_error.
  const auto file =
      std::filesystem::temp_directory_path() / "ftcc_fuzz_persist_file";
  std::filesystem::remove_all(file);
  std::ofstream(file) << "not a directory\n";

  CampaignOptions options = small_options();
  options.trials = 3;
  options.inject = InjectedFault::no_termination;
  CampaignReport report = run_campaign(options);
  ASSERT_FALSE(report.failures.empty());
  std::vector<std::string> lines;
  const auto error =
      persist_witnesses(report.failures, (file / "fuzz-artifacts").string(),
                        lines);
  ASSERT_TRUE(error.has_value());
  EXPECT_NE(error->find("cannot create witness directory"),
            std::string::npos)
      << *error;
  EXPECT_TRUE(lines.empty());
  for (const auto& failure : report.failures)
    EXPECT_TRUE(failure.path.empty());
  std::filesystem::remove(file);
}

TEST(Campaign, ReplayViolationIsCleanOnAnEmptySchedule) {
  ScheduleArtifact artifact;
  artifact.algo = "five";
  artifact.n = 4;
  artifact.ids = {10, 20, 30, 40};
  EXPECT_EQ(replay_violation(artifact), "");
}

TEST(Campaign, UnrunnableNamesShapesNoAlgorithmCanRun) {
  TrialShape shape;
  shape.n = 4;
  for (const std::string& algo : campaign_algorithms()) {
    shape.algo = algo;
    shape.graph_kind = "cycle";
    EXPECT_FALSE(unrunnable(shape).has_value()) << algo;
    shape.graph_kind = "path";
    // Algorithms 2 and 4 are the ones specified for paths too.
    EXPECT_EQ(unrunnable(shape).has_value(), algo != "five" && algo != "delta2")
        << algo;
  }
  shape.algo = "six";
  EXPECT_EQ(unrunnable(shape).value_or(""),
            "runs cycle-only algorithm 'six' on a path");
  shape.algo = "seven";
  shape.graph_kind = "cycle";
  EXPECT_EQ(unrunnable(shape).value_or(""), "names unknown algorithm 'seven'");
}

TEST(Campaign, WitnessAcrossADownWindowReproducesTheViolation) {
  // Every node is out at step 1 (two crash, node 0 goes down until step
  // 6), so the executor idles through steps 2-6; node 0 decides at step 7,
  // which the injected fault reports.  The witness records the idle steps
  // as empty sets, so replaying exactly its seven steps reproduces it.
  ScheduleArtifact witness;
  witness.algo = "six";
  witness.n = 3;
  witness.ids = {10, 20, 30};
  witness.crash_at_step = {{1, 1}, {2, 1}};
  witness.recoveries = {{0, {1, 5, RecoveredRegister::bottom}}};
  const FaultPlan plan = witness.fault_plan();
  const Graph g = witness.graph();
  Executor<SixColoring> ex(SixColoring{}, g, witness.ids, plan);
  SynchronousScheduler sched;
  RecordingScheduler recorder(sched);
  const auto result = ex.run(recorder, 1000);
  ASSERT_EQ(result.steps, 7u);
  witness.sigmas = recorder.take(result.steps);
  ASSERT_EQ(witness.sigmas.size(), 7u);
  EXPECT_EQ(replay_violation(witness, InjectedFault::no_termination),
            "injected fault: node 0 terminated");
}

}  // namespace
}  // namespace ftcc
