#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace ftcc {
namespace {

std::vector<char*> make_argv(std::vector<std::string>& args) {
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (auto& a : args) argv.push_back(a.data());
  return argv;
}

TEST(Cli, DefaultsWhenUnset) {
  Cli cli;
  cli.flag("n", std::uint64_t{16}, "nodes")
      .flag("rate", 0.25, "crash rate")
      .flag("sched", std::string("sync"), "scheduler")
      .flag("verbose", false, "chatty");
  std::vector<std::string> args = {"prog"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_u64("n"), 16u);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.25);
  EXPECT_EQ(cli.get_string("sched"), "sync");
  EXPECT_FALSE(cli.get_bool("verbose"));
}

TEST(Cli, ParsesValues) {
  Cli cli;
  cli.flag("n", std::uint64_t{16}, "nodes")
      .flag("rate", 0.25, "crash rate")
      .flag("sched", std::string("sync"), "scheduler")
      .flag("verbose", false, "chatty");
  std::vector<std::string> args = {"prog", "--n=64", "--rate=0.5",
                                   "--sched=single", "--verbose"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_u64("n"), 64u);
  EXPECT_DOUBLE_EQ(cli.get_double("rate"), 0.5);
  EXPECT_EQ(cli.get_string("sched"), "single");
  EXPECT_TRUE(cli.get_bool("verbose"));
}

TEST(Cli, RejectsUnknownFlag) {
  Cli cli;
  cli.flag("n", std::uint64_t{16}, "nodes");
  std::vector<std::string> args = {"prog", "--bogus=1"};
  auto argv = make_argv(args);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

bool parses_n(const std::string& value) {
  Cli cli;
  cli.flag("n", std::uint64_t{16}, "nodes");
  std::vector<std::string> args = {"prog", "--n=" + value};
  auto argv = make_argv(args);
  return cli.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Cli, RejectsMalformedUnsignedValues) {
  // strtoull alone reads abc as 0, wraps -1 to 2^64 - 1, reads 6x as 6,
  // and saturates 2^64; each must fail the parse instead.
  for (const char* bad : {"abc", "-1", "6x", "", "18446744073709551616",
                          "+5", " 7"})
    EXPECT_FALSE(parses_n(bad)) << "'" << bad << "'";
}

TEST(Cli, AcceptsTheFullUnsignedRange) {
  Cli cli;
  cli.flag("lo", std::uint64_t{16}, "low")
      .flag("hi", std::uint64_t{16}, "high");
  std::vector<std::string> args = {"prog", "--lo=0",
                                   "--hi=18446744073709551615"};
  auto argv = make_argv(args);
  ASSERT_TRUE(cli.parse(static_cast<int>(argv.size()), argv.data()));
  EXPECT_EQ(cli.get_u64("lo"), 0u);
  EXPECT_EQ(cli.get_u64("hi"), 18446744073709551615u);
}

TEST(Cli, RejectsMalformedRealValues) {
  for (const char* bad : {"abc", "0.5x", "", "1e999", "nan", " 0.5"}) {
    Cli cli;
    cli.flag("rate", 0.25, "crash rate");
    std::vector<std::string> args = {"prog", std::string("--rate=") + bad};
    auto argv = make_argv(args);
    EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()))
        << "'" << bad << "'";
  }
}

TEST(Cli, HelpReturnsFalse) {
  Cli cli;
  cli.flag("n", std::uint64_t{16}, "nodes");
  std::vector<std::string> args = {"prog", "--help"};
  auto argv = make_argv(args);
  EXPECT_FALSE(cli.parse(static_cast<int>(argv.size()), argv.data()));
}

}  // namespace
}  // namespace ftcc
