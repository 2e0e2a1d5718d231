// Regression tests for the suite's flag parsing: unknown (or value-less)
// arguments must abort the run instead of silently recording a whole table
// under default settings (a typo like `--job 4` used to do exactly that).
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
}

}  // namespace
}  // namespace cpi::bench
