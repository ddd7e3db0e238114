// Replayable schedule artifacts: serialization round-trips, empty-step
// handling, and the error paths a truncated or corrupted artifact file
// must surface instead of asserting.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "fuzz/schedule_io.hpp"

namespace ftcc {
namespace {

ScheduleArtifact sample_artifact() {
  ScheduleArtifact a;
  a.algo = "fast5";
  a.graph_kind = "cycle";
  a.n = 5;
  a.ids = {100, 7, 42, 9, 63};
  a.crash_at_step = {{2, 7}};
  a.crash_after_acts = {{3, 1}};
  a.sigmas = {{0, 1, 2}, {}, {3, 4}, {0}};
  a.seed = 12345;
  a.violation = "published identifiers collide on edge (0,1): X=7 at step 3";
  return a;
}

TEST(ScheduleIo, SerializeParseRoundTrip) {
  const ScheduleArtifact original = sample_artifact();
  const std::string text = serialize_schedule(original);
  std::string error;
  const auto parsed = parse_schedule(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, original);
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(serialize_schedule(*parsed), text);
}

TEST(ScheduleIo, EmptyStepsSurviveTheRoundTripAndReplayAsIdles) {
  ScheduleArtifact a = sample_artifact();
  a.sigmas = {{}, {1}, {}};
  a.violation.clear();
  const auto parsed = parse_schedule(serialize_schedule(a));
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->sigmas.size(), 3u);
  EXPECT_TRUE(parsed->sigmas[0].empty());
  EXPECT_EQ(parsed->sigmas[1], (std::vector<NodeId>{1}));
  EXPECT_TRUE(parsed->sigmas[2].empty());

  ReplayScheduler sched = parsed->replay();
  const std::vector<NodeId> working = {0, 1, 2, 3, 4};
  EXPECT_TRUE(sched.next(working, 1).empty());
  EXPECT_EQ(sched.next(working, 2), (std::vector<NodeId>{1}));
  EXPECT_TRUE(sched.next(working, 3).empty());
  // Beyond the recorded prefix the replay runs synchronously.
  EXPECT_EQ(sched.next(working, 4), working);
}

TEST(ScheduleIo, ReplaySchedulerPlaysBackTheExactSigmaSequence) {
  const ScheduleArtifact a = sample_artifact();
  ReplayScheduler sched = a.replay();
  const std::vector<NodeId> working = {0, 1, 2, 3, 4};
  for (std::size_t t = 0; t < a.sigmas.size(); ++t)
    EXPECT_EQ(sched.next(working, t + 1), a.sigmas[t]) << "step " << t;
}

TEST(ScheduleIo, GraphAndCrashPlanMaterialize) {
  const ScheduleArtifact a = sample_artifact();
  const Graph g = a.graph();
  EXPECT_EQ(g.node_count(), 5u);
  EXPECT_TRUE(g.has_edge(0, 4));  // cycle, not path
  const CrashPlan plan = a.crash_plan();
  EXPECT_TRUE(plan.crashes_at(2, 7, 0));
  EXPECT_FALSE(plan.crashes_at(2, 6, 0));
  EXPECT_TRUE(plan.crashes_at(3, 1, 1));
  EXPECT_FALSE(plan.crashes_at(3, 1, 0));
}

ScheduleArtifact faulted_artifact() {
  ScheduleArtifact a = sample_artifact();
  a.recoveries = {{1, {4, 3, RecoveredRegister::stale}},
                  {3, {2, 1, RecoveredRegister::zero}}};
  a.corruptions = {{0, {6, CorruptionFault::Kind::bit_flip, 2, 17}},
                   {0, {6, CorruptionFault::Kind::overwrite, 1, 999}},
                   {2, {1, CorruptionFault::Kind::overwrite, 0, 42}}};
  a.wrapped = true;
  return a;
}

TEST(ScheduleIo, FaultDirectivesRoundTrip) {
  const ScheduleArtifact original = faulted_artifact();
  const std::string text = serialize_schedule(original);
  EXPECT_NE(text.find("recover 1 4 3 stale"), std::string::npos);
  EXPECT_NE(text.find("corrupt 0 6 flip 2 17"), std::string::npos);
  EXPECT_NE(text.find("wrapped 1"), std::string::npos);
  std::string error;
  const auto parsed = parse_schedule(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, original);
  EXPECT_EQ(serialize_schedule(*parsed), text);
}

// The exact bytes of a faulted witness, recorded before the codec was
// shared with the event-log format.  Both directions are pinned: the
// writer must produce this text, and the text must parse back to the
// artifact, so a change to the format on both sides at once still fails.
constexpr const char* kFaultedScheduleText =
    "ftcc-schedule v1\n"
    "algo fast5\n"
    "graph cycle 5\n"
    "ids 100 7 42 9 63\n"
    "crash at_step 2 7\n"
    "crash after_acts 3 1\n"
    "recover 1 4 3 stale\n"
    "recover 3 2 1 zero\n"
    "corrupt 0 6 flip 2 17\n"
    "corrupt 0 6 overwrite 1 999\n"
    "corrupt 2 1 overwrite 0 42\n"
    "wrapped 1\n"
    "steps 4\n"
    "sigma 0 1 2\n"
    "sigma -\n"
    "sigma 3 4\n"
    "sigma 0\n"
    "seed 12345\n"
    "violation published identifiers collide on edge (0,1): X=7 at step 3\n";

TEST(ScheduleIo, FaultedWitnessBytesArePinned) {
  EXPECT_EQ(serialize_schedule(faulted_artifact()), kFaultedScheduleText);
  std::string error;
  const auto parsed = parse_schedule(kFaultedScheduleText, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(*parsed, faulted_artifact());
}

TEST(ScheduleIo, FaultFreeSerializationIsByteCompatibleWithTheOldFormat) {
  // An artifact without faults must serialize to exactly the pre-fault
  // format: no new directives appear, so old readers still parse it.
  const std::string text = serialize_schedule(sample_artifact());
  EXPECT_EQ(text.find("recover"), std::string::npos);
  EXPECT_EQ(text.find("corrupt"), std::string::npos);
  EXPECT_EQ(text.find("wrapped"), std::string::npos);
}

TEST(ScheduleIo, FaultPlanMaterializesInArtifactOrder) {
  const ScheduleArtifact a = faulted_artifact();
  const FaultPlan plan = a.fault_plan();
  EXPECT_TRUE(plan.crashes_at(2, 7, 0));  // crash entries carry over
  ASSERT_TRUE(plan.recovery(1).has_value());
  EXPECT_EQ(plan.recovery(1)->revive_step(), 7u);
  EXPECT_EQ(plan.recovery(1)->reg, RecoveredRegister::stale);
  // Node 0's two same-step corruptions keep their serialized order.
  ASSERT_EQ(plan.corruptions(0).size(), 2u);
  EXPECT_EQ(plan.corruptions(0)[0].kind, CorruptionFault::Kind::bit_flip);
  EXPECT_EQ(plan.corruptions(0)[1].kind, CorruptionFault::Kind::overwrite);
  EXPECT_TRUE(plan.mutates_registers());
}

TEST(ScheduleIo, MalformedFaultLinesReportErrors) {
  const std::string prologue =
      "ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n";
  const struct {
    const char* line;
    const char* expect;
  } cases[] = {
      {"recover 0 1 2 sideways\n", "unknown register policy"},
      {"recover 0 1\n", "expected node, at_step, down_steps, reg"},
      {"recover 9 1 2 zero\n", "out of range"},
      {"corrupt 0 1 flip 0\n", "expected node, at_step, kind, word, value"},
      {"corrupt 0 1 smear 0 7\n", "unknown kind"},
      {"corrupt 9 1 flip 0 7\n", "out of range"},
      {"wrapped 2\n", "expected 0 or 1"},
      {"wrapped maybe\n", "expected 0 or 1"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_schedule(prologue + c.line, &error).has_value())
        << c.line;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "input: " << c.line << "\nerror: " << error;
  }
}

TEST(ScheduleIo, TruncatedScheduleIsAnError) {
  ScheduleArtifact a = sample_artifact();
  std::string text = serialize_schedule(a);
  // Drop the last sigma line (simulating a partially written artifact).
  const auto last_sigma = text.rfind("sigma");
  const auto line_end = text.find('\n', last_sigma);
  text.erase(last_sigma, line_end - last_sigma + 1);
  std::string error;
  EXPECT_FALSE(parse_schedule(text, &error).has_value());
  EXPECT_NE(error.find("truncated"), std::string::npos) << error;
}

TEST(ScheduleIo, MalformedInputsReportErrors) {
  const struct {
    const char* text;
    const char* expect;
  } cases[] = {
      {"", "header"},
      {"ftcc-schedule v2\n", "header"},
      {"ftcc-schedule v1\nbogus 1 2\n", "unknown directive"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2\nsteps 0\n",
       "expected 3 values"},
      {"ftcc-schedule v1\nalgo six\ngraph blob 3\nids 1 2 3\nsteps 0\n",
       "unknown kind"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 x\nsteps 0\n",
       "bad value"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\n",
       "missing 'steps'"},
      {"ftcc-schedule v1\ngraph cycle 3\nids 1 2 3\nsteps 0\n",
       "missing 'algo'"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 1\n"
       "sigma 7\n",
       "out of range"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n"
       "crash at_step 9 1\n",
       "out of range"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n"
       "crash sometimes 0 1\n",
       "unknown kind"},
      // Graphs the generators cannot build.
      {"ftcc-schedule v1\nalgo six\ngraph cycle 2\nids 1 2\nsteps 0\n",
       "a cycle needs n >= 3"},
      {"ftcc-schedule v1\nalgo five\ngraph path 1\nids 1\nsteps 0\n",
       "a path needs n >= 2"},
      // A node count past NodeId must not wrap to a small graph.
      {"ftcc-schedule v1\nalgo six\ngraph cycle 4294967299\nids 1 2 3\n"
       "steps 0\n",
       "bad node count"},
      // Nor a node index alias a node in range (2^32 would cast to 0).
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 10 20 30\nsteps 1\n"
       "sigma 4294967296\n",
       "sigma: bad node"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n"
       "crash at_step 4294967296 1\n",
       "crash: bad number"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n"
       "recover 4294967296 1 1 bottom\n",
       "recover: bad number"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nsteps 0\n"
       "corrupt 4294967296 1 flip 0 0\n",
       "corrupt: bad number"},
      // Each shape line appears once; a second would silently win.
      {"ftcc-schedule v1\nalgo six\nalgo five\ngraph cycle 3\nids 1 2 3\n"
       "steps 0\n",
       "algo: repeated line"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
       "graph cycle 4\nsteps 0\n",
       "graph: repeated line"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nids 4 5 6\n"
       "steps 0\n",
       "ids: repeated line"},
      {"ftcc-schedule v1\nalgo six\ngraph cycle 3\nids 1 2 3\nwrapped 1\n"
       "wrapped 0\nsteps 0\n",
       "wrapped: repeated line"},
  };
  for (const auto& c : cases) {
    std::string error;
    EXPECT_FALSE(parse_schedule(c.text, &error).has_value()) << c.text;
    EXPECT_NE(error.find(c.expect), std::string::npos)
        << "input: " << c.text << "\nerror: " << error;
  }
}

TEST(ScheduleIo, FileRoundTripAndMissingFile) {
  const ScheduleArtifact original = sample_artifact();
  const auto dir = std::filesystem::temp_directory_path() / "ftcc_sched_io";
  std::filesystem::create_directories(dir);
  const std::string path = (dir / "roundtrip.sched").string();
  ASSERT_TRUE(save_schedule(path, original));
  std::string error;
  const auto loaded = load_schedule(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(*loaded, original);
  std::filesystem::remove(path);

  EXPECT_FALSE(load_schedule((dir / "absent.sched").string(), &error));
  EXPECT_NE(error.find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace ftcc
