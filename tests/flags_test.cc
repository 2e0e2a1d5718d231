// Regression tests for the suite's flag parsing: unknown (or value-less)
// arguments must abort the run instead of silently recording a whole table
// under default settings (a typo like `--job 4` used to do exactly that).
#include <string>

#include <gtest/gtest.h>

#include "bench/flags.h"

namespace cpi::bench {
namespace {

TEST(BenchFlagsTest, KnownFlagsParse) {
  char a0[] = "bench";
  char a1[] = "--json";
  char a2[] = "--scale";
  char a3[] = "3";
  char a4[] = "--jobs";
  char a5[] = "2";
  char a6[] = "--opt";
  char a7[] = "1";
  char* argv[] = {a0, a1, a2, a3, a4, a5, a6, a7};
  const Flags flags = Parse(8, argv);
  EXPECT_TRUE(flags.json);
  EXPECT_EQ(flags.scale, 3);
  EXPECT_EQ(flags.jobs, 2);
  EXPECT_EQ(flags.opt, 1);

  // The special values that stay valid: `--scale small` (== 1) and
  // `--jobs 0` (hardware concurrency).
  char b2[] = "small";
  char b4[] = "0";
  char* defaults[] = {a0, a2, b2, a4, b4};
  const Flags resolved = Parse(5, defaults);
  EXPECT_EQ(resolved.scale, 1);
  EXPECT_EQ(resolved.jobs, ThreadPool::DefaultJobs());
}

TEST(BenchFlagsDeathTest, UnknownArgumentExitsNonZero) {
  char a0[] = "bench";
  char a1[] = "--job";  // the motivating typo
  char a2[] = "4";
  char* argv[] = {a0, a1, a2};
  EXPECT_EXIT(Parse(3, argv), testing::ExitedWithCode(2), "unknown argument: --job");
  // Shard count is not a suite flag: the suite sweeps it itself.
  char b1[] = "--shards";
  char b2[] = "16";
  char* retired[] = {a0, b1, b2};
  EXPECT_EXIT(Parse(3, retired), testing::ExitedWithCode(2), "unknown argument: --shards");
}

TEST(BenchFlagsDeathTest, MissingValueExitsNonZero) {
  char a0[] = "bench";
  char a1[] = "--scale";  // value missing: falls through to the unknown path
  char* argv[] = {a0, a1};
  EXPECT_EXIT(Parse(2, argv), testing::ExitedWithCode(2), "usage:");
  // Malformed numbers used to fall back silently (atoi): `--jobs foo` ran
  // on every core, `--opt x` at O0, `--scale 2x` at scale 2.
  const char* malformed[][2] = {{"--jobs", "foo"}, {"--jobs", "-3"},  {"--jobs", ""},
                                {"--opt", "x"},    {"--opt", "-1"},   {"--opt", "1.5"},
                                {"--scale", "2x"}, {"--scale", "0"},  {"--scale", " 2"},
                                {"--jobs", "99999999999"}};
  for (const auto& [flag, value] : malformed) {
    std::string f = flag;
    std::string v = value;
    char* bad[] = {a0, f.data(), v.data()};
    EXPECT_EXIT(Parse(3, bad), testing::ExitedWithCode(2),
                std::string("invalid ") + flag + ": ") << flag << " " << value;
  }
}

}  // namespace
}  // namespace cpi::bench
