#include "analysis/hb/event_log.hpp"

#include <gtest/gtest.h>

#include <filesystem>

namespace ftcc {
namespace {

EventLogArtifact sample_artifact() {
  EventLogArtifact art;
  art.algo = "six";
  art.graph_kind = "cycle";
  art.n = 3;
  art.ids = {10, 20, 30};
  art.wrapped = true;
  art.max_read_attempts = 4096;
  art.faults.push_back(
      {1, ThreadedFault::Kind::corrupt_words, 0, 0xdeadbeef});
  art.faults.push_back({2, ThreadedFault::Kind::stall_mid_publish, 1, 1});
  art.log.reset(3);
  art.log.record(0, {HbEventKind::publish, 0, 0, 2, {10, 0, 0}});
  art.log.record(0, {HbEventKind::read, 0, 1, 2, {99, 1, 2}});
  art.log.record(0, {HbEventKind::read, 0, 2, 0, {}});
  art.log.record(0, {HbEventKind::finish, 0, 0, 3, {}});
  art.log.record(1, {HbEventKind::publish, 0, 1, 2, {20, 0, 0}});
  art.log.record(1, {HbEventKind::adversary, 0, 1, 4, {99, 1, 2}});
  art.log.record(2, {HbEventKind::publish, 0, 2, 2, {30, 0, 0}});
  art.log.record(2, {HbEventKind::read_timeout, 1, 0, 0, {}});
  art.log.record(2, {HbEventKind::stall, 1, 2, 3, {}});
  art.seed = 1234;
  art.verdict = "some diagnosis with spaces";
  return art;
}

TEST(EventLogIo, RoundTripsThroughText) {
  const EventLogArtifact art = sample_artifact();
  const std::string text = serialize_event_log(art);
  std::string error;
  const auto parsed = parse_event_log(text, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->algo, art.algo);
  EXPECT_EQ(parsed->graph_kind, art.graph_kind);
  EXPECT_EQ(parsed->n, art.n);
  EXPECT_EQ(parsed->ids, art.ids);
  EXPECT_EQ(parsed->wrapped, art.wrapped);
  EXPECT_EQ(parsed->max_read_attempts, art.max_read_attempts);
  ASSERT_EQ(parsed->faults.size(), 2u);
  EXPECT_EQ(parsed->faults[0].kind, ThreadedFault::Kind::corrupt_words);
  EXPECT_EQ(parsed->faults[0].mask, 0xdeadbeefu);
  EXPECT_EQ(parsed->faults[1].kind, ThreadedFault::Kind::stall_mid_publish);
  EXPECT_EQ(parsed->log, art.log);
  EXPECT_EQ(parsed->seed, art.seed);
  EXPECT_EQ(parsed->verdict, art.verdict);
  // Serialization is canonical: a second round trip is byte-identical.
  EXPECT_EQ(serialize_event_log(*parsed), text);
}

// The exact bytes of a witness holding every event kind, both threaded
// fault kinds and a verdict, recorded before the codec was shared with
// the schedule format.  Both directions are pinned, so a change to the
// format on both sides at once still fails.
constexpr const char* kEveryEventText =
    "ftcc-eventlog v1\n"
    "algo six\n"
    "graph cycle 3\n"
    "ids 10 20 30\n"
    "wrapped 1\n"
    "max_read_attempts 4096\n"
    "fault 1 corrupt 0 3735928559\n"
    "fault 2 stall 1\n"
    "node 0 4\n"
    "pub 0 2 10 0 0\n"
    "read 0 1 2 99 1 2\n"
    "read 0 2 0\n"
    "fin 0 3\n"
    "node 1 3\n"
    "pub 0 2 20 0 0\n"
    "adv 0 4 99 1 2\n"
    "rev 1 5\n"
    "node 2 3\n"
    "pub 0 2 30 0 0\n"
    "rdto 1 0\n"
    "stall 1 3\n"
    "seed 1234\n"
    "verdict some diagnosis with spaces\n";

TEST(EventLogIo, EveryEventKindBytesArePinned) {
  EventLogArtifact art = sample_artifact();
  art.log.record(1, {HbEventKind::revive, 1, 1, 5, {}});
  EXPECT_EQ(serialize_event_log(art), kEveryEventText);
  std::string error;
  const auto parsed = parse_event_log(kEveryEventText, &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->algo, art.algo);
  EXPECT_EQ(parsed->graph_kind, art.graph_kind);
  EXPECT_EQ(parsed->n, art.n);
  EXPECT_EQ(parsed->ids, art.ids);
  EXPECT_EQ(parsed->wrapped, art.wrapped);
  EXPECT_EQ(parsed->max_read_attempts, art.max_read_attempts);
  ASSERT_EQ(parsed->faults.size(), 2u);
  EXPECT_EQ(parsed->faults[0].mask, 0xdeadbeefu);
  EXPECT_EQ(parsed->faults[1].after_publishes, 1u);
  EXPECT_EQ(parsed->log, art.log);
  EXPECT_EQ(parsed->seed, art.seed);
  EXPECT_EQ(parsed->verdict, art.verdict);
}

TEST(EventLogIo, RoundTripsThroughDisk) {
  const EventLogArtifact art = sample_artifact();
  const std::string path =
      (std::filesystem::temp_directory_path() / "ftcc-eventlog-test.eventlog")
          .string();
  ASSERT_TRUE(save_event_log(path, art));
  std::string error;
  const auto loaded = load_event_log(path, &error);
  ASSERT_TRUE(loaded.has_value()) << error;
  EXPECT_EQ(loaded->log, art.log);
  std::filesystem::remove(path);
}

TEST(EventLogIo, GraphHelperBuildsDeclaredTopology) {
  EventLogArtifact art = sample_artifact();
  EXPECT_EQ(art.graph().node_count(), 3u);
  EXPECT_EQ(art.graph().degree(0), 2);
  art.graph_kind = "path";
  EXPECT_EQ(art.graph().degree(0), 1);
  const ThreadedOptions opts = art.threaded_options();
  EXPECT_EQ(opts.max_read_attempts, 4096u);
  EXPECT_EQ(opts.faults.size(), 2u);
}

TEST(EventLogIo, RejectsMalformedInput) {
  const std::string good = serialize_event_log(sample_artifact());
  const auto rejects = [](const std::string& text, const char* what) {
    std::string error;
    EXPECT_FALSE(parse_event_log(text, &error).has_value()) << what;
    EXPECT_FALSE(error.empty()) << what;
  };
  rejects("", "empty input");
  rejects("ftcc-eventlog v2\n", "wrong version");
  rejects("ftcc-eventlog v1\ngraph cycle 3\nids 1 2 3\n", "missing algo");
  rejects("ftcc-eventlog v1\nalgo six\n", "missing graph");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2\n",
          "ids count mismatch");
  rejects("ftcc-eventlog v1\nalgo six\ngraph torus 3\nids 1 2 3\n",
          "unknown graph kind");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 7 0\n",
          "node id out of range");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 2\npub 0 2 1\n",
          "truncated event block");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 1\nzap 0 2\n",
          "unknown event kind");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 1\nread 0 9 2 1\n",
          "read peer out of range");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "fault 9 stall 0\n",
          "fault node out of range");
  // A node index past NodeId must not alias a node in range (2^32 would
  // cast to 0).
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "fault 4294967296 stall 0\n",
          "fault node past NodeId");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 1\nread 0 4294967296 2 1\n",
          "read peer past NodeId");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 1\nrdto 0 4294967297\n",
          "rdto peer past NodeId");
  // Each shape line appears once: a second graph line used to wipe the
  // log read so far.
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "node 0 1\npub 0 2 1 0 0\ngraph cycle 3\n",
          "repeated graph line");
  rejects("ftcc-eventlog v1\nalgo six\nalgo five\ngraph cycle 3\n"
          "ids 1 2 3\n",
          "repeated algo line");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "ids 1 2 3\n",
          "repeated ids line");
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 3\nids 1 2 3\n"
          "wrapped 1\nwrapped 1\n",
          "repeated wrapped line");
  rejects(good + "mystery 1\n", "unknown directive");
  // Graphs the generators cannot build.
  rejects("ftcc-eventlog v1\nalgo six\ngraph cycle 2\nids 1 2\n",
          "cycle of 2 nodes");
  rejects("ftcc-eventlog v1\nalgo five\ngraph path 1\nids 1\n",
          "path of 1 node");
  // The reference text itself parses (guards the fixtures above).
  std::string error;
  EXPECT_TRUE(parse_event_log(good, &error).has_value()) << error;
}

}  // namespace
}  // namespace ftcc
