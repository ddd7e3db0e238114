#include "lint/rules.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <gtest/gtest.h>

#include "lint/analyzer.hpp"
#include "lint/include_graph.hpp"
#include "lint/tokenizer.hpp"

namespace ftcc::lint {
namespace {

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  for (const auto& f : findings) out.push_back(f.rule);
  return out;
}

TEST(LintScoping, RulesApplyWhereTheHeaderSaysTheyDo) {
  // concurrency primitives: everywhere but the runtime.
  EXPECT_TRUE(rule_applies("concurrency-primitives", "src/core/a.hpp"));
  EXPECT_TRUE(rule_applies("concurrency-primitives", "tools/fuzz.cpp"));
  EXPECT_FALSE(
      rule_applies("concurrency-primitives", "src/runtime/executor.hpp"));
  EXPECT_FALSE(rule_applies("concurrency-primitives", "tests/a_test.cpp"));
  // spin loops: all product code.
  EXPECT_TRUE(rule_applies("unbounded-spin", "src/runtime/executor.hpp"));
  EXPECT_TRUE(rule_applies("unbounded-spin", "tools/race.cpp"));
  // nondeterminism: algorithm and fuzz code only.
  EXPECT_TRUE(rule_applies("nondeterminism", "src/core/algo.cpp"));
  EXPECT_TRUE(rule_applies("nondeterminism", "src/fuzz/campaign.cpp"));
  EXPECT_FALSE(rule_applies("nondeterminism", "src/util/rng.cpp"));
  // snapshot discipline: algorithm code only.
  EXPECT_TRUE(rule_applies("snapshot-discipline", "src/core/algo.cpp"));
  EXPECT_FALSE(rule_applies("snapshot-discipline", "src/analysis/x.cpp"));
  EXPECT_FALSE(rule_applies("made-up-rule", "src/core/algo.cpp"));
}

// ---------------------------------------------------------------------------
// concurrency-primitives
// ---------------------------------------------------------------------------

TEST(LintConcurrency, FlagsPrimitivesAndHeadersOutsideRuntime) {
  const std::string bad =
      "#include <mutex>\n"
      "std::mutex m;\n"
      "std::atomic<int> counter;\n";
  const auto findings = check_file("src/core/bad.hpp", bad);
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& f : findings)
    EXPECT_EQ(f.rule, "concurrency-primitives") << f.message;
  EXPECT_EQ(findings[0].line, 1u);
  EXPECT_EQ(findings[2].line, 3u);
}

TEST(LintConcurrency, RuntimeAndCommentsAreClean) {
  // The same content under src/runtime/ is the rule's legitimate home.
  const std::string content = "#include <atomic>\nstd::atomic<int> x;\n";
  EXPECT_TRUE(check_file("src/runtime/cell.hpp", content).empty());
  // Mentions in comments are not code.
  EXPECT_TRUE(
      check_file("src/core/doc.hpp", "// uses no std::mutex at all\n")
          .empty());
  // Identifier substrings are not tokens.
  EXPECT_TRUE(
      check_file("src/core/ok.hpp", "int my_std::atomic_count;\n").empty());
}

// ---------------------------------------------------------------------------
// unbounded-spin
// ---------------------------------------------------------------------------

TEST(LintSpin, FlagsInfiniteLoopsWithoutABound) {
  EXPECT_EQ(rules_of(check_file("src/graph/a.cpp",
                                "while (true) {\n  poll();\n}\n")),
            std::vector<std::string>{"unbounded-spin"});
  EXPECT_EQ(rules_of(check_file("src/graph/b.cpp",
                                "for (;;) {\n  poll();\n}\n")),
            std::vector<std::string>{"unbounded-spin"});
  EXPECT_EQ(rules_of(check_file("src/graph/c.cpp",
                                "for (int i = 0;; ++i) spin();\n")),
            std::vector<std::string>{"unbounded-spin"});
}

TEST(LintSpin, BoundedLoopsAreClean) {
  // A bound token anywhere in the loop body satisfies the rule.
  EXPECT_TRUE(check_file("src/graph/a.cpp",
                         "while (true) {\n"
                         "  if (++attempt > max_attempts) break;\n"
                         "}\n")
                  .empty());
  // ... or in the header line itself.
  EXPECT_TRUE(
      check_file("src/graph/b.cpp", "for (;; ++attempt) step();\n").empty());
  // Ordinary bounded loops never match.
  EXPECT_TRUE(check_file("src/graph/c.cpp",
                         "for (int i = 0; i < n; ++i) {\n}\n"
                         "while (pending()) {\n}\n")
                  .empty());
  // `for`/`while` as identifier substrings are not loop keywords.
  EXPECT_TRUE(
      check_file("src/graph/d.cpp", "int wait_for(true);\n").empty());
}

// ---------------------------------------------------------------------------
// nondeterminism
// ---------------------------------------------------------------------------

TEST(LintNondeterminism, FlagsWallClocksAndLibcRandomness) {
  const std::string bad =
      "int x = rand();\n"
      "auto t = std::chrono::steady_clock::now();\n"
      "std::random_device rd;\n";
  const auto rules = rules_of(check_file("src/fuzz/bad.cpp", bad));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "nondeterminism"), 3);
  // Outside the deterministic zone the same content draws no
  // nondeterminism findings (the clock line is still a wall-clock hit).
  const auto util = rules_of(check_file("src/util/clock.cpp", bad));
  EXPECT_EQ(std::count(util.begin(), util.end(), "nondeterminism"), 0);
}

TEST(LintNondeterminism, SeededRngIsClean) {
  EXPECT_TRUE(check_file("src/fuzz/ok.cpp",
                         "SplitMix64 rng(seed);\n"
                         "const auto roll = rng.next();\n")
                  .empty());
  // `operand(` does not match `rand(`: left word boundary.
  EXPECT_TRUE(
      check_file("src/core/ok.cpp", "int y = operand(0);\n").empty());
}

// ---------------------------------------------------------------------------
// snapshot-discipline
// ---------------------------------------------------------------------------

TEST(LintSnapshot, FlagsExecutorLeaksIntoAlgorithms) {
  const auto include_findings = check_file(
      "src/core/bad.cpp", "#include \"runtime/executor.hpp\"\n");
  ASSERT_EQ(include_findings.size(), 1u);
  EXPECT_EQ(include_findings[0].rule, "snapshot-discipline");
  const auto token_findings =
      check_file("src/core/bad2.cpp", "ThreadedExecutor<Self> ex;\n");
  ASSERT_EQ(token_findings.size(), 1u);
  EXPECT_EQ(token_findings[0].rule, "snapshot-discipline");
}

TEST(LintSnapshot, AlgorithmContractHeaderIsAllowed) {
  EXPECT_TRUE(check_file("src/core/ok.cpp",
                         "#include \"runtime/algorithm.hpp\"\n"
                         "NeighborView<Register> view;\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// Waivers and the baseline
// ---------------------------------------------------------------------------

TEST(LintWaivers, InlineAllowSilencesOnLineAndLineAbove) {
  EXPECT_TRUE(check_file("src/graph/a.cpp",
                         "while (true) {  // lint:allow(unbounded-spin)\n"
                         "}\n")
                  .empty());
  EXPECT_TRUE(check_file("src/graph/b.cpp",
                         "// lint:allow(unbounded-spin): walk ends at a cut\n"
                         "while (true) {\n"
                         "}\n")
                  .empty());
  // A waiver names one rule; others on the same line still fire.
  EXPECT_EQ(rules_of(check_file(
                "src/graph/c.cpp",
                "while (true) {  // lint:allow(nondeterminism)\n}\n")),
            std::vector<std::string>{"unbounded-spin"});
  // Two lines up is too far: the waiver must sit next to the code.
  EXPECT_FALSE(check_file("src/graph/d.cpp",
                          "// lint:allow(unbounded-spin)\n"
                          "\n"
                          "while (true) {\n}\n")
                   .empty());
}

TEST(LintBaseline, ParsesCommentsAndRejectsGarbage) {
  std::vector<BaselineEntry> entries;
  std::string error;
  EXPECT_TRUE(parse_baseline(
                  "# comment\n"
                  "\n"
                  "src/core/a.cpp nondeterminism 0123456789abcdef\n"
                  "  src/core/b.cpp unbounded-spin fedcba9876543210\n",
                  entries, &error))
      << error;
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].path, "src/core/a.cpp");
  EXPECT_EQ(entries[0].rule, "nondeterminism");
  EXPECT_EQ(entries[0].fingerprint, "0123456789abcdef");

  entries.clear();
  // The pre-fingerprint two-field format is rejected, loudly: stale
  // baselines must be regenerated, not silently widened.
  EXPECT_FALSE(
      parse_baseline("src/core/a.cpp nondeterminism\n", entries, &error));
  EXPECT_NE(error.find("line 1"), std::string::npos);
  EXPECT_FALSE(parse_baseline("src/core/a.cpp not-a-rule 0123456789abcdef\n",
                              entries, &error));
  EXPECT_NE(error.find("unknown rule"), std::string::npos);
  EXPECT_FALSE(parse_baseline("src/core/a.cpp nondeterminism 012345\n",
                              entries, &error));
  EXPECT_NE(error.find("16 lowercase hex"), std::string::npos);
  EXPECT_FALSE(parse_baseline("src/core/a.cpp nondeterminism 0123456789ABCDEF\n",
                              entries, &error));
}

TEST(LintBaseline, DropsOnlyExactFingerprintMatches) {
  std::vector<Finding> findings = {
      {"src/core/a.cpp", 1, "nondeterminism", "m", "aaaaaaaaaaaaaaaa"},
      {"src/core/a.cpp", 2, "nondeterminism", "m", "bbbbbbbbbbbbbbbb"},
      {"src/core/b.cpp", 3, "nondeterminism", "m", "cccccccccccccccc"},
  };
  // The old baseline masked every finding of a rule in a file; the
  // fingerprint baseline drops exactly one finding, so the second
  // nondeterminism hit in a.cpp — a *new* violation — still fails lint.
  const auto kept =
      apply_baseline(std::move(findings),
                     {{"src/core/a.cpp", "nondeterminism", "aaaaaaaaaaaaaaaa"}});
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_EQ(kept[0].fingerprint, "bbbbbbbbbbbbbbbb");
  EXPECT_EQ(kept[1].file, "src/core/b.cpp");
}

TEST(LintFingerprints, StableAcrossLineDriftNotAcrossEdits) {
  const std::string offending = "int x = rand();\n";
  const auto fp_of = [&](const std::string& content) {
    auto findings = check_file("src/core/a.cpp", content);
    assign_fingerprints(findings, split_lines(content));
    EXPECT_EQ(findings.size(), 1u);
    return findings.empty() ? std::string() : findings[0].fingerprint;
  };
  const std::string base = fp_of(offending);
  ASSERT_EQ(base.size(), 16u);
  // Unrelated lines above move the finding but not its identity.
  EXPECT_EQ(fp_of("int unrelated;\nint more;\n" + offending), base);
  // Reindentation is whitespace-only: same normalized content.
  EXPECT_EQ(fp_of("    int x = rand();\n"), base);
  // Touching the flagged code itself expires the fingerprint.
  EXPECT_NE(fp_of("int x = rand() + 1;\n"), base);
  // A second identical offending line gets its own occurrence index.
  auto twice = check_file("src/core/a.cpp", offending + offending);
  assign_fingerprints(twice, split_lines(offending + offending));
  ASSERT_EQ(twice.size(), 2u);
  EXPECT_EQ(twice[0].fingerprint, base);
  EXPECT_NE(twice[1].fingerprint, base);
}

// ---------------------------------------------------------------------------
// wall-clock
// ---------------------------------------------------------------------------

TEST(LintWallClock, ConfinedToObsAndRuntime) {
  EXPECT_TRUE(rule_applies("wall-clock", "src/fuzz/campaign.cpp"));
  EXPECT_TRUE(rule_applies("wall-clock", "src/analysis/hb/certify.cpp"));
  EXPECT_FALSE(rule_applies("wall-clock", "src/obs/span.cpp"));
  EXPECT_FALSE(rule_applies("wall-clock", "src/runtime/threaded_executor.hpp"));
  // bench and tools time things freely; the rule only walks src/.
  EXPECT_FALSE(rule_applies("wall-clock", "tools/fuzz.cpp"));
  EXPECT_FALSE(rule_applies("wall-clock", "bench/bench_obs.cpp"));
}

TEST(LintWallClock, FlagsClockReadsOutsideTheirHome) {
  const std::string bad =
      "#include <chrono>\n"
      "auto t0 = std::chrono::steady_clock::now();\n"
      "struct timeval tv; gettimeofday(&tv, nullptr);\n"
      "clock_gettime(CLOCK_MONOTONIC, &ts);\n";
  // src/analysis/ is outside both clock homes and outside the
  // nondeterminism zone, so every finding below is wall-clock.
  const auto findings = check_file("src/analysis/certify.cpp", bad);
  ASSERT_EQ(findings.size(), 4u);
  for (const auto& f : findings) EXPECT_EQ(f.rule, "wall-clock") << f.message;

  // The same content is legitimate in the observability layer and the
  // runtime (seqlock read timeouts).
  EXPECT_TRUE(check_file("src/obs/span.cpp", bad).empty());
  EXPECT_TRUE(check_file("src/runtime/threaded_executor.hpp", bad).empty());
}

TEST(LintWallClock, WaiversAndCommentsAreRespected) {
  EXPECT_TRUE(check_file("src/analysis/x.cpp",
                         "// a comment naming steady_clock is fine\n")
                  .empty());
  EXPECT_TRUE(check_file("src/analysis/x.cpp",
                         "// lint:allow(wall-clock) — audited exception\n"
                         "auto t = std::chrono::steady_clock::now();\n")
                  .empty());
  EXPECT_FALSE(check_file("src/analysis/x.cpp",
                          "auto t = std::chrono::steady_clock::now();\n")
                   .empty());
}

// ---------------------------------------------------------------------------
// thread-spawn
// ---------------------------------------------------------------------------

TEST(LintThreadSpawn, ConfinedToTheRuntime) {
  EXPECT_TRUE(rule_applies("thread-spawn", "src/fuzz/campaign.cpp"));
  EXPECT_TRUE(rule_applies("thread-spawn", "src/modelcheck/explorer.hpp"));
  EXPECT_TRUE(rule_applies("thread-spawn", "tools/fuzz.cpp"));
  EXPECT_FALSE(rule_applies("thread-spawn", "src/runtime/worker_pool.cpp"));
  // Tests and benches spawn threads to exercise the pool itself.
  EXPECT_FALSE(rule_applies("thread-spawn", "tests/runtime_parallel_test.cpp"));
  EXPECT_FALSE(rule_applies("thread-spawn", "bench/bench_parallel.cpp"));
}

TEST(LintThreadSpawn, FlagsEverySpawnSpelling) {
  // std::async spawns without any <thread> include, so it is a
  // thread-spawn finding even where concurrency-primitives sees nothing.
  const auto async_findings = check_file(
      "tools/helper.cpp", "auto f = std::async(std::launch::async, run);\n");
  ASSERT_EQ(async_findings.size(), 1u);
  EXPECT_EQ(async_findings[0].rule, "thread-spawn");
  const auto pthread_findings = check_file(
      "src/fuzz/bad.cpp", "pthread_create(&tid, nullptr, fn, arg);\n");
  ASSERT_EQ(pthread_findings.size(), 1u);
  EXPECT_EQ(pthread_findings[0].rule, "thread-spawn");
  // A jthread outside the runtime violates both the placement rule and
  // the spawn rule; both must fire.
  const auto rules =
      rules_of(check_file("src/core/bad.cpp", "std::jthread t(work);\n"));
  EXPECT_EQ(std::count(rules.begin(), rules.end(), "thread-spawn"), 1);
  EXPECT_EQ(
      std::count(rules.begin(), rules.end(), "concurrency-primitives"), 1);
}

TEST(LintThreadSpawn, RuntimeCommentsAndWaiversAreClean) {
  EXPECT_TRUE(
      check_file("src/runtime/worker_pool.cpp", "std::jthread t(work);\n")
          .empty());
  EXPECT_TRUE(check_file("tools/doc.cpp",
                         "// hand the pool a lambda, never std::async\n")
                  .empty());
  EXPECT_TRUE(check_file("tools/waived.cpp",
                         "// lint:allow(thread-spawn): audited exception\n"
                         "auto f = std::async(run);\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// modelcheck-internal
// ---------------------------------------------------------------------------

TEST(LintModelcheckInternal, ConfinedToTheCheckerItself) {
  EXPECT_TRUE(rule_applies("modelcheck-internal", "src/core/a.hpp"));
  EXPECT_TRUE(rule_applies("modelcheck-internal", "src/analysis/b.cpp"));
  EXPECT_FALSE(
      rule_applies("modelcheck-internal", "src/modelcheck/explorer.hpp"));
  EXPECT_FALSE(rule_applies("modelcheck-internal", "tests/a_test.cpp"));
  EXPECT_FALSE(rule_applies("modelcheck-internal", "tools/mc.cpp"));
  EXPECT_FALSE(rule_applies("modelcheck-internal", "bench/b.cpp"));
}

TEST(LintModelcheckInternal, FlagsEveryInternalHeader) {
  for (const char* header :
       {"modelcheck/state_store.hpp", "modelcheck/symmetry.hpp",
        "modelcheck/reduction.hpp"}) {
    const auto findings = check_file(
        "src/analysis/rounds.cpp",
        std::string("#include \"") + header + "\"\n");
    ASSERT_EQ(findings.size(), 1u) << header;
    EXPECT_EQ(findings[0].rule, "modelcheck-internal");
  }
  // The facade header stays importable from anywhere.
  EXPECT_TRUE(check_file("src/analysis/rounds.cpp",
                         "#include \"modelcheck/explorer.hpp\"\n")
                  .empty());
  // Mentioning a header in prose is not an include.
  EXPECT_TRUE(check_file("src/analysis/rounds.cpp",
                         "// see modelcheck/symmetry.hpp for the proof\n")
                  .empty());
  // Inline waivers work as for every other rule.
  EXPECT_TRUE(check_file("src/analysis/rounds.cpp",
                         "// lint:allow(modelcheck-internal): audited\n"
                         "#include \"modelcheck/symmetry.hpp\"\n")
                  .empty());
}

// ---------------------------------------------------------------------------
// signal-safety (whole-program: lint/callgraph.hpp via analyze_sources)
// ---------------------------------------------------------------------------

std::vector<Finding> of_rule(const ProgramAnalysis& analysis,
                             const std::string& rule) {
  std::vector<Finding> out;
  for (const auto& f : analysis.findings)
    if (f.rule == rule) out.push_back(f);
  return out;
}

TEST(LintSignalSafety, AppliesAcrossSrcNotToolsOrTests) {
  EXPECT_TRUE(rule_applies("signal-safety", "src/dist/janitor.cpp"));
  EXPECT_TRUE(rule_applies("signal-safety", "src/dist/supervisor.hpp"));
  // A handler's helper may live anywhere under src/ — the transitive
  // closure follows it, so the scope is all of src/.
  EXPECT_TRUE(rule_applies("signal-safety", "src/util/io.cpp"));
  EXPECT_FALSE(rule_applies("signal-safety", "tools/dist.cpp"));
  EXPECT_FALSE(rule_applies("signal-safety", "tests/dist_runtime_test.cpp"));
}

TEST(LintSignalSafety, FlagsUnsafeCallsInsideHandlerBodies) {
  const std::string bad =
      "void fatal_signal_handler(int sig) {\n"
      "  std::string msg = describe(sig);\n"
      "  printf(\"dying: %d\\n\", sig);\n"
      "  char* p = static_cast<char*>(malloc(64));\n"
      "  _exit(128 + sig);\n"
      "}\n";
  const auto findings =
      of_rule(analyze_sources({{"src/dist/bad.cpp", bad}}), "signal-safety");
  ASSERT_EQ(findings.size(), 3u);
  for (const auto& f : findings) {
    EXPECT_NE(f.message.find("async-signal-safe"), std::string::npos);
    EXPECT_FALSE(f.fingerprint.empty());
  }
  EXPECT_EQ(findings[0].line, 2u);
  EXPECT_EQ(findings[1].line, 3u);
  EXPECT_EQ(findings[2].line, 4u);
}

TEST(LintSignalSafety, TransitiveClosureCatchesWhatNamingMisses) {
  // The seeded violation the regex-era rule could not see: the handler is
  // registered via sa_handler under an innocent name, and the allocation
  // hides one call away in a helper.
  const std::string seeded =
      "#include <csignal>\n"
      "void flush_buffers() {\n"
      "  void* p = malloc(32);\n"
      "  (void)p;\n"
      "}\n"
      "void on_fatal(int sig) {\n"
      "  flush_buffers();\n"
      "  (void)sig;\n"
      "}\n"
      "void install() {\n"
      "  struct sigaction action {};\n"
      "  action.sa_handler = on_fatal;\n"
      "  sigaction(SIGTERM, &action, nullptr);\n"
      "}\n";
  // The name-based per-file scan (check_file) sees nothing...
  EXPECT_TRUE(check_file("src/dist/seeded.cpp", seeded).empty());
  // ... the whole-program analysis flags the malloc, with the chain.
  const auto findings = of_rule(
      analyze_sources({{"src/dist/seeded.cpp", seeded}}), "signal-safety");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 3u);
  EXPECT_NE(findings[0].message.find("on_fatal -> flush_buffers"),
            std::string::npos);
}

TEST(LintSignalSafety, FollowsHelpersAcrossFiles) {
  // Handler in one TU, helper in another: the closure is whole-program.
  const std::string handler =
      "void ftcc_dist_fatal_signal_handler(int sig) {\n"
      "  log_last_words(sig);\n"
      "}\n";
  const std::string helper =
      "void log_last_words(int sig) {\n"
      "  fprintf(stderr, \"sig %d\\n\", sig);\n"
      "}\n";
  const auto findings =
      of_rule(analyze_sources({{"src/dist/handler.cpp", handler},
                               {"src/util/last_words.cpp", helper}}),
              "signal-safety");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].file, "src/util/last_words.cpp");
  EXPECT_EQ(findings[0].line, 2u);
}

TEST(LintSignalSafety, SafeHandlersDeclarationsAndOutsideCodeAreClean) {
  // kill / unlink / _exit — the janitor's entire vocabulary — pass.
  EXPECT_TRUE(analyze_sources({{"src/dist/ok.cpp",
                                "void fatal_signal_handler(int sig) {\n"
                                "  kill(pid, SIGKILL);\n"
                                "  unlink(path);\n"
                                "  _exit(128 + sig);\n"
                                "}\n"}})
                  .findings.empty());
  // A declaration has no body to audit.
  EXPECT_TRUE(
      analyze_sources(
          {{"src/dist/decl.hpp",
            "extern \"C\" void fatal_signal_handler(int sig);\n"}})
          .findings.empty());
  // Unsafe calls outside the closure are the other rules' business.
  EXPECT_TRUE(analyze_sources({{"src/dist/other.cpp",
                                "void report() {\n"
                                "  printf(\"fine here\\n\");\n"
                                "}\n"}})
                  .findings.empty());
  // Re-arming to the default disposition registers no handler root.
  EXPECT_TRUE(analyze_sources({{"src/dist/rearm.cpp",
                                "void rearm(int sig) {\n"
                                "  signal(sig, SIG_DFL);\n"
                                "}\n"}})
                  .findings.empty());
}

TEST(LintSignalSafety, WaiversWorkLikeEveryOtherRule) {
  EXPECT_TRUE(
      analyze_sources(
          {{"src/dist/waived.cpp",
            "void fatal_signal_handler(int sig) {\n"
            "  // lint:allow(signal-safety): write(2) formatting only\n"
            "  snprintf(buf, sizeof(buf), \"%d\", sig);\n"
            "}\n"}})
          .findings.empty());
  EXPECT_FALSE(analyze_sources({{"src/dist/unwaived.cpp",
                                 "void fatal_signal_handler(int sig) {\n"
                                 "  snprintf(buf, sizeof(buf), \"%d\", sig);\n"
                                 "}\n"}})
                   .findings.empty());
}

// ---------------------------------------------------------------------------
// alloc-freedom (whole-program)
// ---------------------------------------------------------------------------

TEST(LintAllocFreedom, FlagsDirectHeapExpressionsInTheStepClosure) {
  const std::string executor =
      "struct Executor {\n"
      "  void helper();\n"
      "  void step() { helper(); }\n"
      "};\n"
      "void Executor::helper() {\n"
      "  int* p = new int[4];\n"
      "  delete[] p;\n"
      "}\n";
  const auto findings =
      of_rule(analyze_sources({{"src/runtime/executor.hpp", executor}}),
              "alloc-freedom");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 6u);
  EXPECT_NE(findings[0].message.find("Executor::step -> Executor::helper"),
            std::string::npos);
}

TEST(LintAllocFreedom, RootsArePinnedToTheRealExecutorHeader) {
  // The same code under a different path seeds no closure: the proof is
  // about src/runtime/executor.hpp, not every function named step.
  const std::string executor =
      "struct Executor {\n"
      "  void step() { int* p = new int[4]; delete[] p; }\n"
      "};\n";
  EXPECT_TRUE(of_rule(analyze_sources({{"src/runtime/other.hpp", executor}}),
                      "alloc-freedom")
                  .empty());
  // Container growth (push_back onto reserved arenas) is the dynamic
  // counting-new test's jurisdiction, not a direct heap expression.
  EXPECT_TRUE(
      of_rule(analyze_sources({{"src/runtime/executor.hpp",
                                "struct Executor {\n"
                                "  void step() { arena_.push_back(1); }\n"
                                "};\n"}}),
              "alloc-freedom")
          .empty());
}

TEST(LintRuleIds, EveryRuleHasAnIdAScopeAndADescription) {
  const auto& ids = rule_ids();
  ASSERT_EQ(ids.size(), 12u);
  for (const auto& id : ids) {
    EXPECT_TRUE(rule_applies(id, "src/core/x.cpp") ||
                rule_applies(id, "src/runtime/x.cpp") ||
                rule_applies(id, "src/dist/x.cpp"))
        << id;
    EXPECT_FALSE(rule_description(id).empty()) << id;
  }
}

// ---------------------------------------------------------------------------
// Token-awareness regressions: the regex era flagged banned identifiers
// inside comments and string literals.  One commented and one quoted
// probe per line rule, all clean.
// ---------------------------------------------------------------------------

TEST(LintTokenAwareness, CommentsAndStringsNeverTrigger) {
  struct Probe {
    const char* path;
    const char* content;
  };
  const Probe probes[] = {
      // concurrency-primitives
      {"src/core/a.cpp", "// guard with std::mutex? no: see DESIGN.md\n"},
      {"src/core/b.cpp", "const char* k = \"std::atomic<int> banned\";\n"},
      {"src/core/c.cpp", "/* std::thread is confined to the runtime */\n"},
      // unbounded-spin
      {"src/graph/a.cpp", "// while (true) would livelock here\n"},
      {"src/graph/b.cpp", "log(\"while (true) { spin(); }\");\n"},
      // nondeterminism
      {"src/fuzz/a.cpp", "// rand() is banned; use SplitMix64(seed)\n"},
      {"src/fuzz/b.cpp", "const char* m = \"rand() leaked into a trial\";\n"},
      {"src/core/d.cpp", "// std::chrono::steady_clock::now() is banned\n"},
      // snapshot-discipline
      {"src/core/e.cpp", "// never name the Executor from an algorithm\n"},
      {"src/core/f.cpp", "const char* e = \"Scheduler moved the token\";\n"},
      // wall-clock
      {"src/analysis/a.cpp", "// timing uses obs::Stopwatch, not <chrono>\n"},
      {"src/analysis/b.cpp", "warn(\"clock_gettime outside src/obs\");\n"},
      // thread-spawn
      {"src/core/g.cpp", "// std::async(run) would bypass the pool\n"},
      {"src/core/h.cpp", "const char* t = \"pthread_create is confined\";\n"},
      // modelcheck-internal (a quoted include only counts on an
      // #include line; in a plain string it is prose)
      {"src/analysis/c.cpp",
       "// include modelcheck/state_store.hpp? use explorer.hpp\n"},
      {"src/analysis/d.cpp",
       "const char* h = \"modelcheck/symmetry.hpp\";\n"},
      // raw strings scrub like ordinary strings, across lines
      {"src/core/i.cpp",
       "const char* r = R\"(\n"
       "  std::mutex m; while (true) {} rand();\n"
       ")\";\n"},
  };
  for (const Probe& probe : probes)
    EXPECT_TRUE(check_file(probe.path, probe.content).empty())
        << probe.path << ": " << probe.content;
}

// ---------------------------------------------------------------------------
// The real tree: the analyzer runs over the live repository (path baked
// in by CMake) and the subsystem-level include edges are pinned as a
// golden map.  A new cross-subsystem edge shows up here first — adding
// one is a reviewed architecture decision, not a lint chore.
// ---------------------------------------------------------------------------

#ifdef FTCC_REPO_ROOT
TEST(LintRealTree, AnalyzesCleanAndMatchesTheGoldenLayerMap) {
  namespace fs = std::filesystem;
  const fs::path root = FTCC_REPO_ROOT;
  std::vector<SourceFile> sources;
  for (const char* top : {"src", "tools"}) {
    for (const auto& entry :
         fs::recursive_directory_iterator(root / top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".hpp" && ext != ".cpp" && ext != ".h" && ext != ".cc")
        continue;
      std::ifstream in(entry.path());
      ASSERT_TRUE(in) << entry.path();
      std::ostringstream buffer;
      buffer << in.rdbuf();
      sources.push_back({fs::relative(entry.path(), root).generic_string(),
                         buffer.str()});
    }
  }
  std::sort(sources.begin(), sources.end(),
            [](const SourceFile& a, const SourceFile& b) {
              return a.path < b.path;
            });
  ASSERT_GT(sources.size(), 50u);  // the walk found the real tree

  // The whole tree is clean under every rule — zero baseline entries.
  std::vector<FileAnalysis> files;
  IncludeGraph graph;
  for (const SourceFile& source : sources)
    files.push_back(analyze_file(source.path, source.content));
  for (const FileAnalysis& file : files)
    graph.add_file(file.path, file.includes);
  const auto analysis = analyze_program(std::move(files));
  for (const auto& f : analysis.findings)
    ADD_FAILURE() << f.file << ":" << f.line << ": [" << f.rule << "] "
                  << f.message;

  // The golden subsystem-edge map.  Every edge the tree actually has,
  // spelled out: a diff here means the architecture changed.
  const std::vector<std::string> expected = {
      "analysis -> core",      "analysis -> graph",
      "analysis -> obs",       "analysis -> runtime",
      "analysis -> sched",     "analysis -> util",
      "core -> runtime",       "core -> util",
      "decoupled -> graph",    "decoupled -> localmodel",
      "decoupled -> runtime",  "decoupled -> util",
      "dist -> analysis",      "dist -> fuzz",
      "dist -> graph",         "dist -> obs",
      "dist -> runtime",       "dist -> sched",
      "dist -> util",          "fuzz -> analysis",
      "fuzz -> core",          "fuzz -> graph",
      "fuzz -> obs",           "fuzz -> runtime",
      "fuzz -> sched",         "fuzz -> util",
      "graph -> util",         "localmodel -> graph",
      "localmodel -> util",    "mis -> runtime",
      "modelcheck -> graph",   "modelcheck -> obs",
      "modelcheck -> runtime", "modelcheck -> util",
      "obs -> util",           "runtime -> graph",
      "runtime -> obs",        "runtime -> util",
      "scale -> core",         "scale -> graph",
      "scale -> obs",          "scale -> runtime",
      "scale -> sched",        "scale -> util",
      "sched -> runtime",      "sched -> util",
      "selfstab -> graph",     "selfstab -> util",
      "shm -> runtime",        "shm -> util",
  };
  std::vector<std::string> actual = graph.subsystem_edges();
  std::erase_if(actual, [](const std::string& edge) {
    return edge.rfind("tools ", 0) == 0;  // tools fronts everything
  });
  EXPECT_EQ(actual, expected);

  // Every present edge must also be *declared*.
  for (const std::string& edge : actual) {
    const std::size_t arrow = edge.find(" -> ");
    ASSERT_NE(arrow, std::string::npos);
    EXPECT_TRUE(layer_edge_allowed(edge.substr(0, arrow),
                                   edge.substr(arrow + 4)))
        << edge;
  }
  // And no two subsystems may include each other.  Every present edge is
  // declared, so checking the table covers the tree too.
  for (const auto& [from, tos] : layering_rules())
    for (const std::string& to : tos)
      EXPECT_FALSE(layer_edge_allowed(to, from))
          << "mutual pair: " << from << " <-> " << to;
}
#endif  // FTCC_REPO_ROOT

TEST(LintTokenAwareness, RealCodeNextToProseStillFlags) {
  // The scrub must not blind the rules: code outside the comment on the
  // same line still fires.
  const auto findings = check_file(
      "src/core/mixed.cpp", "std::atomic<int> x;  // not a std::mutex\n");
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "concurrency-primitives");
  EXPECT_NE(findings[0].message.find("std::atomic"), std::string::npos);
}

}  // namespace
}  // namespace ftcc::lint
