// Unit tests for the common utility module.
#include <gtest/gtest.h>

#include <set>

#include "common/logging.h"
#include "common/math_util.h"
#include "common/rng.h"
#include "common/strings.h"

namespace pim {
namespace {

// ---------------------------------------------------------------- strings

TEST(Strings, SplitKeepsEmptyFields) {
  EXPECT_EQ(split("a,b,,c", ','), (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(Strings, SplitWsDropsEmpty) {
  EXPECT_EQ(split_ws("  a\t b \n c  "), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(split_ws("   ").empty());
  EXPECT_TRUE(split_ws("").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  hi  "), "hi");
  EXPECT_EQ(trim("hi"), "hi");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("\t\na b\r\n"), "a b");
}

TEST(Strings, StartsEndsWith) {
  EXPECT_TRUE(starts_with("mvm g0", "mvm"));
  EXPECT_FALSE(starts_with("mv", "mvm"));
  EXPECT_TRUE(ends_with("prog.json", ".json"));
  EXPECT_FALSE(ends_with("x", ".json"));
}

TEST(Strings, CaseConversion) {
  EXPECT_EQ(to_lower("MVM"), "mvm");
  EXPECT_EQ(to_upper("mvm"), "MVM");
  EXPECT_EQ(to_lower("MiXeD123"), "mixed123");
}

TEST(Strings, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(join({}, ","), "");
  EXPECT_EQ(join({"one"}, ","), "one");
}

TEST(Strings, Strformat) {
  EXPECT_EQ(strformat("%d-%s", 42, "x"), "42-x");
  EXPECT_EQ(strformat("%.2f", 1.2345), "1.23");
  EXPECT_EQ(strformat("empty"), "empty");
}

// --------------------------------------------------------------- math_util

TEST(Strings, Fnv1a64ContinuesAcrossChunks) {
  // Published FNV-1a 64 test vectors pin the basis and the prime.
  EXPECT_EQ(fnv1a64(""), kFnv1a64Basis);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Seeding with the running hash continues the stream.
  EXPECT_EQ(fnv1a64("bar", fnv1a64("foo")), fnv1a64("foobar"));
  EXPECT_EQ(fnv1a64("", fnv1a64("foobar")), fnv1a64("foobar"));
}

TEST(MathUtil, CeilDiv) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 128), 1);
  EXPECT_EQ(ceil_div(0, 5), 0);
  EXPECT_EQ(ceil_div<uint64_t>(1ull << 40, 2), 1ull << 39);
}

TEST(MathUtil, RoundUp) {
  EXPECT_EQ(round_up(10, 64), 64);
  EXPECT_EQ(round_up(64, 64), 64);
  EXPECT_EQ(round_up(65, 64), 128);
  EXPECT_EQ(round_up(0, 64), 0);
}

TEST(MathUtil, IsPow2) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(128));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_FALSE(is_pow2(130));
}

TEST(MathUtil, SaturateI8) {
  EXPECT_EQ(saturate_i8(127), 127);
  EXPECT_EQ(saturate_i8(128), 127);
  EXPECT_EQ(saturate_i8(100000), 127);
  EXPECT_EQ(saturate_i8(-128), -128);
  EXPECT_EQ(saturate_i8(-129), -128);
  EXPECT_EQ(saturate_i8(0), 0);
}

TEST(MathUtil, RoundedShiftRight) {
  EXPECT_EQ(rounded_shift_right(8, 2), 2);
  EXPECT_EQ(rounded_shift_right(10, 2), 3);   // 2.5 rounds away
  EXPECT_EQ(rounded_shift_right(9, 2), 2);    // 2.25 rounds down
  EXPECT_EQ(rounded_shift_right(-10, 2), -3); // ties away from zero
  EXPECT_EQ(rounded_shift_right(-9, 2), -2);
  EXPECT_EQ(rounded_shift_right(5, 0), 5);
  EXPECT_EQ(rounded_shift_right(3, -2), 12);  // negative shift = left shift
}

// --------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInRange) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = r.uniform(-5, 9);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 9);
  }
}

TEST(Rng, UniformCoversRange) {
  Rng r(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(r.uniform(0, 7));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, Uniform01Bounds) {
  Rng r(3);
  for (int i = 0; i < 1000; ++i) {
    double v = r.uniform01();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, WeightBounds) {
  Rng r(9);
  for (int i = 0; i < 1000; ++i) {
    int8_t w = r.weight(7);
    EXPECT_GE(w, -7);
    EXPECT_LE(w, 7);
  }
}

TEST(Rng, SplitMix64KnownSequenceIsStable) {
  uint64_t s = 0;
  const uint64_t first = splitmix64(s);
  uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), first);
  EXPECT_NE(splitmix64(s2), first);  // state advanced
}

// ----------------------------------------------------------------- logging

TEST(Logging, LevelGate) {
  log::set_level(log::Level::Error);
  EXPECT_EQ(log::level(), log::Level::Error);
  // A Warn message below the gate must not be emitted (no crash, cheap path).
  PIM_LOG(Warn) << "this should be dropped";
  log::set_level(log::Level::Warn);
}

TEST(Logging, LevelNames) {
  EXPECT_STREQ(log::level_name(log::Level::Trace), "TRACE");
  EXPECT_STREQ(log::level_name(log::Level::Error), "ERROR");
}

}  // namespace
}  // namespace pim
